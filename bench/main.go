// Command bench is the repository benchmark: it runs one of three
// paper-shaped workloads against the simulator, measures the host time
// and memory a user waits on, checks the simulated results, and with
// -trace 1 splits the host time across the modules from outside.
//
//	go -C bench run . -workload web-sweep -seed 1 [-seconds 40] [-trace 1] [-trace-dir DIR]
//
// bench/run.sh builds it inside the checkout and runs it from the
// repository root.  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  See
// bench/README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// workloads returns the benchmark's workloads at their measured sizes.
// Each repetition takes a few seconds, so a run's median covers about
// ten of them.
func workloads() map[string]workload {
	loads := experiments.DefaultConfig().Loads
	dram := experiments.CacheSpec{Tier: cache.TierDRAM, CapacityMB: 32, Eviction: "2q"}
	ssd := experiments.CacheSpec{Tier: cache.TierSSD, CapacityMB: 256}
	dramParams, ssdParams := dram.Params(), ssd.Params()
	return map[string]workload{
		"web-sweep": &sweep{
			trace: synth.WebServerParams{Duration: 90 * simtime.Second, MeanIOPS: 400, ReadRatio: 0.6, FootprintBytes: 256 << 20},
			cells: slices.Concat(
				loadCells("raid5-hdd", nil, loads),
				loadCells(dram.Label(), &dramParams, loads),
				loadCells(ssd.Label(), &ssdParams, loads)),
		},
		// One worker: the reference kernel that calibrates the rate is
		// single-threaded, and a second worker runs on the other vCPU,
		// whose contention the kernel does not see.
		"fleet-storm": &fleetStorm{arrays: 1024, workers: 1, perArrayIOPS: 64, dur: 10 * simtime.Second, faults: 4},
		"conserve-grid": &conserveGrid{
			// 15 min: a repetition takes about a second, so a run pairs
			// some thirty of them with reference samples.  With 30 min,
			// about twelve, the calibrated rate spread three times as
			// much from run to run.
			trace:    synth.WebServerParams{Duration: 15 * simtime.Minute, MeanIOPS: 2, FootprintBytes: 4 << 20},
			policies: []string{"tpm", "drpm", "eraid", "pdc", "maid", "cache"},
			// One worker: with two, peak memory depended on which cells
			// happened to overlap and the run-to-run spread of both
			// the IO rate and peak_rss_mb was about five times larger.
			workers: 1,
		},
	}
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "web-sweep, fleet-storm or conserve-grid")
	seed := fs.Uint64("seed", 1, "seed of the input generators")
	seconds := fs.Float64("seconds", 40, "host seconds to spend measuring")
	trace := fs.Int("trace", 0, "1 adds a traced repetition and reports the per-layer metrics")
	traceDir := fs.String("trace-dir", "", "write layers.json and spans.json of the traced repetition here (implies -trace 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads()[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: want -workload web-sweep|fleet-storm|conserve-grid, -seconds > 0, -trace 0|1\n")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1 || *traceDir != "", traceDir: *traceDir, refSteps: refSampleSteps}
	return execute(*name, w, cfg, stdout, stderr)
}

type config struct {
	seed     uint64
	seconds  float64
	traced   bool
	traceDir string
	refSteps int // reference kernel steps per sample
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute measures w and prints the report; it returns the exit code.
func execute(name string, w workload, cfg config, stdout, stderr io.Writer) int {
	m, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	rep := report{
		Correct:   m.failed == 0 && len(m.wrong) == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   m.endToEnd(),
	}
	if cfg.traced {
		rep.Metrics = m.perLayer()
	}
	for _, p := range append(m.problems, m.wrong...) {
		fmt.Fprintf(stderr, "bench: %s: %s\n", name, p)
	}
	fmt.Fprintf(stdout, "%s seed %d: %d repetitions after a warm-up, digest %016x\n", name, cfg.seed, len(m.reps), m.first.digest)
	for i, r := range m.reps {
		fmt.Fprintf(stdout, "  repetition %d: setup %.4fs, run %.3fs, %.0f IO/s, reference %.3g steps/s, %.0f IO/s calibrated\n",
			i+1, r.setups[0].Seconds(), r.run.Seconds(), r.iosPerS(), r.ref, r.calIOsPerS())
	}
	fmt.Fprintf(stdout, "  %-28s %14.6g %s (%d of %d IOs)\n", "error_rate", m.errorRate(), "fraction", m.failed, m.attempted)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	if cfg.traceDir != "" {
		if err := m.writeArtifacts(cfg.traceDir, name, cfg.seed); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// repStats is one measured repetition.
type repStats struct {
	setups     []time.Duration
	synth, run time.Duration
	ref        float64 // reference kernel speed around the timed section, steps/s
	out        *outcome
}

func (r repStats) iosPerS() float64 { return float64(r.out.ios) / r.run.Seconds() }

// calIOsPerS is iosPerS at the reference speed refNominal.
func (r repStats) calIOsPerS() float64 { return r.iosPerS() * refNominal / r.ref }

// measurement is everything one benchmark run measured.
type measurement struct {
	first             *outcome   // the warm-up's, which every repetition must match
	reps              []repStats // untraced, after the warm-up
	traced            *repStats
	tracer            *tracer
	attempted, failed int64
	problems, wrong   []string
	peakRSSMB         float64

	// Runtime counters over the untraced timed sections.
	allocs, allocBytes, gcCPU, totalCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() [4]float64 {
	metrics.Read(runtimeSamples)
	var v [4]float64
	for i, s := range runtimeSamples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	return v
}

// minSetups is the fewest times a repetition builds its inputs.
const minSetups = 3

// once sets up and runs one repetition.  It builds the inputs at least
// minSetups times, and until setupBudget has gone to set-up, and keeps
// the last: set-up takes milliseconds, so setup_s is the median of many
// samples.  The timed section starts after set-up and one runtime.GC(),
// and a sample of the reference kernel runs right before and right
// after it.
func once(w workload, seed uint64, t *tracer, k *refKernel, setupBudget time.Duration) (repStats, [4]float64, error) {
	var r rep
	var st repStats
	for spent := time.Duration(0); len(st.setups) < minSetups || spent < setupBudget; {
		r = nil
		runtime.GC() // the discarded inputs must not add to peak memory
		start := time.Now()
		var err error
		if r, st.synth, err = w.setup(seed); err != nil {
			return repStats{}, [4]float64{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		st.setups = append(st.setups, d)
		spent += d
	}
	runtime.GC()
	refBefore := k.speed()
	before := readRuntime()
	start := time.Now()
	out, err := r.run(t)
	elapsed := time.Since(start)
	after := readRuntime()
	if err != nil {
		return repStats{}, [4]float64{}, err
	}
	st.ref = (refBefore + k.speed()) / 2
	var delta [4]float64
	for i := range delta {
		delta[i] = after[i] - before[i]
	}
	st.run, st.out = elapsed-out.untimed, out
	return st, delta, nil
}

// measure repeats the workload until the measuring budget is spent.
// A warm-up repetition comes first: it is checked like the others, but
// its times are dropped, because the first repetition of a process runs
// on a heap that is still growing.  Then come untraced repetitions, at
// least three, or with tracing at least one until half the budget is
// spent and a traced repetition after them.
func measure(w workload, cfg config) (*measurement, error) {
	m := &measurement{}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	minReps := 3
	if cfg.traced {
		budget /= 2
		minReps = 1
	}
	begin := time.Now()
	k := newRefKernel(cfg.refSteps)
	warm, _, err := once(w, cfg.seed, nil, k, 0)
	if err != nil {
		return nil, err
	}
	m.add(warm, "warm-up")
	var last time.Duration
	for len(m.reps) < minReps || time.Since(begin)+last <= budget {
		repStart := time.Now()
		r, rt, err := once(w, cfg.seed, nil, k, budget/200)
		if err != nil {
			return nil, err
		}
		last = time.Since(repStart)
		m.allocs += rt[0]
		m.allocBytes += rt[1]
		m.gcCPU += rt[2]
		m.totalCPU += rt[3]
		m.add(r, "repetition")
		m.reps = append(m.reps, r)
	}
	if cfg.traced {
		m.tracer = newTracer()
		r, _, err := once(w, cfg.seed, m.tracer, k, budget/200)
		if err != nil {
			return nil, err
		}
		m.add(r, "traced repetition")
		m.traced = &r
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	m.peakRSSMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	return m, nil
}

// add folds one repetition's accounting in.  Every repetition runs the
// same inputs, so its simulated digest must equal the warm-up's.
func (m *measurement) add(r repStats, what string) {
	o := r.out
	m.attempted += o.attempted
	m.failed += o.failed
	m.problems = append(m.problems, o.problems...)
	m.wrong = append(m.wrong, o.wrong...)
	if m.first == nil {
		m.first = o
	} else if o.digest != m.first.digest {
		m.failed += o.attempted - o.failed
		m.problems = append(m.problems, fmt.Sprintf("%s digest %016x differs from the warm-up's %016x",
			what, o.digest, m.first.digest))
	}
}

func (m *measurement) errorRate() float64 {
	if m.attempted == 0 {
		return 0
	}
	return float64(m.failed) / float64(m.attempted)
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of sorted xs.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func (m *measurement) medianOf(f func(repStats) float64) float64 {
	xs := make([]float64, len(m.reps))
	for i, r := range m.reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd is what a user of the simulator waits on.
func (m *measurement) endToEnd() map[string]metric {
	var setups []float64
	for _, r := range m.reps {
		for _, d := range r.setups {
			setups = append(setups, d.Seconds())
		}
	}
	return map[string]metric{
		"calibrated_ios_per_s": {m.medianOf(repStats.calIOsPerS), "IO/s"},
		"setup_s":              {median(setups), "s"},
		"peak_rss_mb":          {m.peakRSSMB, "MB"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer splits the traced repetition across the modules.  Counts
// and model outputs are the traced repetition's (identical to the
// untraced ones when the digests agree); rates and runtime costs use
// the untraced repetitions, which the tracer does not perturb.
func (m *measurement) perLayer() map[string]metric {
	t, o := m.tracer, m.traced.out
	k := o.counts
	s := func(x time.Duration) float64 { return x.Seconds() }
	var ios float64
	for _, r := range m.reps {
		ios += float64(r.out.ios)
	}
	runS := m.medianOf(func(r repStats) float64 { return r.run.Seconds() })

	var winMs []float64
	var idle, slots int64
	var windows time.Duration
	if f := o.fleet; f != nil {
		for _, d := range f.windows {
			winMs = append(winMs, float64(d.Nanoseconds())/1e6)
			windows += d
		}
		slices.Sort(winMs)
		idle, slots = f.idle, f.slots
	}
	var cellS []float64
	var cellSum time.Duration
	for _, d := range o.cellTimes {
		cellS = append(cellS, d.Seconds())
		cellSum += d
	}
	slices.Sort(cellS)

	return map[string]metric{
		"synth.trace_s": {s(m.traced.synth), "s"},

		"replay.filter_s":        {s(t.incl[siteReplayFilter]), "s"},
		"replay.complete_self_s": {s(t.self[siteReplayComplete]), "s"},
		"replay.ios":             {float64(k.replayIOs), "count"},

		"cache.submit_self_s":   {s(t.self[siteCacheSubmit]), "s"},
		"cache.complete_self_s": {s(t.self[siteCacheComplete]), "s"},
		"cache.ns_per_req":      {ratio(float64(t.self[siteCacheSubmit].Nanoseconds()), float64(k.cacheReqs)), "ns"},
		"cache.hit_rate":        {ratio(float64(k.cacheHits), float64(k.cacheHits+k.cacheMisses)), "fraction"},
		"cache.writebacks":      {float64(k.cacheWB), "count"},

		"raid.submit_self_s":   {s(t.self[siteRaidSubmit]), "s"},
		"raid.complete_self_s": {s(t.self[siteRaidComplete]), "s"},
		"raid.requests":        {float64(k.raidRequests), "count"},
		"raid.rmw_stripes":     {float64(k.raidRMW), "count"},
		"raid.rebuild_bytes":   {float64(k.rebuildBytes), "B"},

		"disksim.ops":                  {float64(k.diskOps), "count"},
		"disksim.submit_s":             {s(t.incl[siteDiskSubmit]), "s"},
		"disksim.queue_at_submit_mean": {ratio(float64(t.queueSum), float64(t.queueOps)), "count"},
		"disksim.queue_at_submit_max":  {float64(t.queueMax), "count"},

		"simtime.events":         {float64(k.events), "count"},
		"simtime.events_per_s":   {ratio(float64(k.events), runS), "1/s"},
		"simtime.max_heap_depth": {float64(k.maxHeap), "count"},
		"simtime.residual_s":     {s(o.residual), "s"},

		"powersim.meter_s":        {s(t.incl[siteMeter]), "s"},
		"powersim.samples":        {float64(k.samples), "count"},
		"powersim.timeline_steps": {float64(k.timelineSteps), "count"},

		"fleet.windows":          {float64(k.windows), "count"},
		"fleet.coordinator_s":    {s(windows - t.incl[siteFleetBarrier]), "s"},
		"fleet.barrier_s":        {s(t.incl[siteFleetBarrier]), "s"},
		"fleet.window_ms_p50":    {nearestRank(winMs, 0.50), "ms"},
		"fleet.window_ms_p99":    {nearestRank(winMs, 0.99), "ms"},
		"fleet.window_samples":   {float64(len(winMs)), "count"},
		"fleet.route_s":          {s(t.incl[siteFleetRoute]), "s"},
		"fleet.finish_s":         {s(t.incl[siteFleetFinish]), "s"},
		"fleet.idle_member_frac": {ratio(float64(idle), float64(slots)), "fraction"},

		"slo.evals":  {float64(k.sloEvals), "count"},
		"slo.alerts": {float64(k.sloAlerts), "count"},

		"optimize.cells":      {float64(k.cells), "count"},
		"optimize.cell_s_p50": {nearestRank(cellS, 0.50), "s"},
		"optimize.cell_s_max": {nearestRank(cellS, 1), "s"},
		"conserve.spin_ups":   {float64(k.spinUps), "count"},
		"conserve.rpm_shifts": {float64(k.rpmShifts), "count"},
		"parsweep.efficiency": {ratio(s(cellSum), float64(o.workers)*s(o.mapWall)), "fraction"},

		"runtime.allocs_per_io":      {ratio(m.allocs, ios), "count"},
		"runtime.alloc_bytes_per_io": {ratio(m.allocBytes, ios), "B"},
		"runtime.gc_cpu_frac":        {ratio(m.gcCPU, m.totalCPU), "fraction"},

		"model.iops_per_watt": {ratio(float64(k.modelIOs), k.energyJ), "IOPS/W"},
		"model.p99_ms":        {k.p99Ms, "ms"},
		"model.energy_j":      {k.energyJ, "J"},

		"trace.overhead_frac": {ratio(m.medianOf(repStats.calIOsPerS), m.traced.calIOsPerS()) - 1, "fraction"},

		"host.ios_per_s":       {m.medianOf(repStats.iosPerS), "IO/s"},
		"host.ref_steps_per_s": {m.medianOf(func(r repStats) float64 { return r.ref }), "1/s"},
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeArtifacts writes layers.json (every per-layer metric) and
// spans.json (the traced repetition's spans, Chrome trace format).
func (m *measurement) writeArtifacts(dir, name string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	layers, err := json.MarshalIndent(map[string]any{
		"workload": name, "seed": seed, "metrics": m.perLayer(),
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), append(layers, '\n'), 0o644); err != nil {
		return err
	}
	events := make([]chromeEvent, len(m.tracer.spans))
	for i, sp := range m.tracer.spans {
		name := siteNames[sp.Site]
		layer, _, _ := strings.Cut(name, ".")
		events[i] = chromeEvent{
			Name: name, Cat: layer, Ph: "X", Ts: sp.Start, Dur: sp.Dur, Pid: 1, Tid: sp.Tid,
			Args: map[string]any{"io": sp.IO, "span": sp.ID, "parent": sp.Parent},
		}
	}
	spans, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), append(spans, '\n'), 0o644)
}
