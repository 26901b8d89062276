package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/disksim"
	"repro/internal/host"
	"repro/internal/netproto"
	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/repository"
	"repro/internal/simtime"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// buildRepo creates a repository holding one synthetic peak trace and
// returns it with the mode used.
func buildRepo(t *testing.T) (*repository.Repository, synth.Mode, string) {
	t.Helper()
	repo, err := repository.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := simtime.NewEngine()
	a, err := raid.NewHDDArray(e, raid.DefaultParams(), 6, disksim.Seagate7200())
	if err != nil {
		t.Fatal(err)
	}
	mode := synth.Mode{RequestBytes: 4096, ReadRatio: 0.5, RandomRatio: 0.5}
	tr, err := synth.Collect(e, a, synth.CollectParams{
		Mode: mode, Duration: 2 * simtime.Second, QueueDepth: 8, WorkingSetBytes: 8 << 30, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	entry, err := repo.StoreSynthetic("raid5-hdd", mode, tr)
	if err != nil {
		t.Fatal(err)
	}
	name := entry.Path[strings.LastIndex(entry.Path, "/")+1:]
	return repo, mode, name
}

func hddFactory() (*SystemUnderTest, error) {
	e := simtime.NewEngine()
	a, err := raid.NewHDDArray(e, raid.DefaultParams(), 6, disksim.Seagate7200())
	if err != nil {
		return nil, err
	}
	return &SystemUnderTest{Engine: e, Device: a, Power: a.PowerSource(), Name: "raid5-hdd"}, nil
}

func startCluster(t *testing.T, repo *repository.Repository) (*Host, func()) {
	t.Helper()
	analyzer := NewAnalyzerAgent(nil)
	aAddr, err := analyzer.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGeneratorAgent(repo, hddFactory, aAddr.String(), "ch0", nil)
	gAddr, err := gen.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	db := host.NewDB()
	h, err := Dial(gAddr.String(), aAddr.String(), db)
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		h.Close()
		gen.Close()
		analyzer.Close()
	}
	return h, cleanup
}

func TestEndToEndDistributedTest(t *testing.T) {
	repo, mode, traceName := buildRepo(t)
	h, cleanup := startCluster(t, repo)
	defer cleanup()

	outcome, err := h.RunTest(netproto.StartTest{TraceName: traceName, LoadProportion: 0.5},
		"raid5-hdd", host.ModeVector{RequestBytes: mode.RequestBytes, ReadRatio: mode.ReadRatio, RandomRatio: mode.RandomRatio, LoadProportion: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Result.IOPS <= 0 || outcome.Result.IOs <= 0 {
		t.Fatalf("no throughput: %+v", outcome.Result)
	}
	if outcome.Power.MeanWatts <= 0 || outcome.Power.Samples == 0 {
		t.Fatalf("no power report: %+v", outcome.Power)
	}
	// Mean power should be roughly an idle-plus chassis figure: between
	// the empty-chassis wall power and the all-seeking ceiling.
	if outcome.Power.MeanWatts < 23 || outcome.Power.MeanWatts > 130 {
		t.Fatalf("implausible power %v W", outcome.Power.MeanWatts)
	}
	if outcome.Record.ID == 0 {
		t.Fatal("record not inserted")
	}
	if outcome.Record.Efficiency.IOPSPerWatt <= 0 {
		t.Fatalf("efficiency not derived: %+v", outcome.Record.Efficiency)
	}
	// Latency percentiles travel through the protocol.
	p := outcome.Record.Perf
	if p.P95ResponseMs <= 0 || p.P99ResponseMs < p.P95ResponseMs || p.MaxResponseMs < p.P99ResponseMs {
		t.Fatalf("percentiles wrong: %+v", p)
	}
	if len(outcome.Progress) == 0 {
		t.Fatal("no per-interval progress streamed")
	}
	// volts*amps == watts in the report
	if math.Abs(outcome.Power.MeanVolts*outcome.Power.MeanAmps-outcome.Power.MeanWatts) > 1 {
		t.Fatalf("V*A != W: %+v", outcome.Power)
	}
}

func TestDistributedLoadProportion(t *testing.T) {
	repo, mode, traceName := buildRepo(t)
	h, cleanup := startCluster(t, repo)
	defer cleanup()

	run := func(load float64) *TestOutcome {
		out, err := h.RunTest(netproto.StartTest{TraceName: traceName, LoadProportion: load},
			"raid5-hdd", host.ModeVector{RequestBytes: mode.RequestBytes, LoadProportion: load})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	full := run(1.0)
	twenty := run(0.2)
	lp := twenty.Result.IOPS / full.Result.IOPS
	if math.Abs(lp-0.2) > 0.03 {
		t.Fatalf("measured load proportion %.3f, configured 0.2", lp)
	}
	// Sequential tests over one connection must both be recorded.
	if full.Record.ID == twenty.Record.ID {
		t.Fatal("records share an ID")
	}
}

func TestGeneratorReportsUnknownTrace(t *testing.T) {
	repo, _, _ := buildRepo(t)
	h, cleanup := startCluster(t, repo)
	defer cleanup()
	_, err := h.RunTest(netproto.StartTest{TraceName: "missing.replay", LoadProportion: 0.5}, "d", host.ModeVector{})
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v", err)
	}
	// The connection must survive the error for subsequent tests.
	_, _, traceName := func() (*repository.Repository, synth.Mode, string) { return buildRepo(t) }()
	_ = traceName // separate repo; reuse is not the point here
}

func TestHostWithoutAnalyzer(t *testing.T) {
	repo, mode, traceName := buildRepo(t)
	gen := NewGeneratorAgent(repo, hddFactory, "", "ch0", nil)
	gAddr, err := gen.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	h, err := Dial(gAddr.String(), "", host.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	out, err := h.RunTest(netproto.StartTest{TraceName: traceName, LoadProportion: 1},
		"raid5-hdd", host.ModeVector{RequestBytes: mode.RequestBytes, LoadProportion: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.IOPS <= 0 {
		t.Fatal("no throughput")
	}
	if out.Power.Samples != 0 {
		t.Fatal("unexpected power report without analyzer")
	}
}

func TestIntensityScaling(t *testing.T) {
	repo, mode, traceName := buildRepo(t)
	h, cleanup := startCluster(t, repo)
	defer cleanup()
	normal, err := h.RunTest(netproto.StartTest{TraceName: traceName, LoadProportion: 1},
		"raid5-hdd", host.ModeVector{RequestBytes: mode.RequestBytes, LoadProportion: 1})
	if err != nil {
		t.Fatal(err)
	}
	slowed, err := h.RunTest(netproto.StartTest{TraceName: traceName, Intensity: 0.5},
		"raid5-hdd", host.ModeVector{RequestBytes: mode.RequestBytes, LoadProportion: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Half intensity stretches the run to ~2x the duration with the
	// same IO count.
	if slowed.Result.IOs != normal.Result.IOs {
		t.Fatalf("scaler dropped IOs: %d vs %d", slowed.Result.IOs, normal.Result.IOs)
	}
	ratio := slowed.Result.DurationS / normal.Result.DurationS
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("duration ratio %.2f, want ~2", ratio)
	}
}

func TestMultiChannelAnalyzer(t *testing.T) {
	// Two generators on distinct channels sharing one analyzer: reports
	// must not cross channels (the KS706 is multi-channel).
	repoA, modeA, traceA := buildRepo(t)
	repoB, _, traceB := buildRepo(t)

	analyzer := NewAnalyzerAgent(nil)
	aAddr, err := analyzer.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer analyzer.Close()

	genA := NewGeneratorAgent(repoA, hddFactory, aAddr.String(), "hdd-array", nil)
	gA, err := genA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer genA.Close()
	genB := NewGeneratorAgent(repoB, hddFactory, aAddr.String(), "hdd-array-2", nil)
	gB, err := genB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer genB.Close()

	hA, err := Dial(gA.String(), aAddr.String(), host.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	defer hA.Close()
	hB, err := Dial(gB.String(), aAddr.String(), host.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	defer hB.Close()

	outA, err := hA.RunTest(netproto.StartTest{TraceName: traceA, LoadProportion: 1}, "a", host.ModeVector{RequestBytes: modeA.RequestBytes})
	if err != nil {
		t.Fatal(err)
	}
	outB, err := hB.RunTest(netproto.StartTest{TraceName: traceB, LoadProportion: 0.2}, "b", host.ModeVector{})
	if err != nil {
		t.Fatal(err)
	}
	if outA.Power.Channel != "hdd-array" || outB.Power.Channel != "hdd-array-2" {
		t.Fatalf("channels crossed: %q / %q", outA.Power.Channel, outB.Power.Channel)
	}
}

// TestGeneratorTelemetryAccumulates wires a telemetry Set into the
// generator agent: counters must match the protocol-reported IO counts
// across consecutive tests, spans and sampling windows must exist, and
// the registry snapshot (what tracerd's debug endpoint serves) must be
// readable from a foreign goroutine.
func TestGeneratorTelemetryAccumulates(t *testing.T) {
	repo, mode, traceName := buildRepo(t)
	set := telemetry.New(telemetry.Options{})

	gen := NewGeneratorAgent(repo, hddFactory, "", "ch0", nil)
	gen.AttachTelemetry(set)
	gAddr, err := gen.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	h, err := Dial(gAddr.String(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	var total int64
	for _, load := range []float64{1, 0.5} {
		out, err := h.RunTest(netproto.StartTest{TraceName: traceName, LoadProportion: load},
			"raid5-hdd", host.ModeVector{RequestBytes: mode.RequestBytes, LoadProportion: load})
		if err != nil {
			t.Fatal(err)
		}
		total += out.Result.IOs
	}
	if got := set.Registry().Counter("replay.completed").Value(); got != total {
		t.Fatalf("replay.completed = %d, want %d accumulated over both tests", got, total)
	}
	if len(set.Tracer().Spans()) == 0 {
		t.Fatal("no spans recorded")
	}
	if len(set.Windows()) == 0 {
		t.Fatal("no sampling windows recorded")
	}
	snap := set.Registry().Snapshot()
	if snap["replay.completed"] != total {
		t.Fatalf("snapshot disagrees: %v", snap["replay.completed"])
	}
	if err := set.WriteDir(t.TempDir()); err != nil {
		t.Fatalf("export after distributed run: %v", err)
	}
}

// TestGeneratorTelemetryConcurrentRuns drives instrumented tests from
// several hosts at once: each run records into its own private Set and
// only the post-run Merge synchronizes, so nothing serializes on the
// replay path and the daemon set still accumulates every run (the
// -race CI pass holds the merge path to that).
func TestGeneratorTelemetryConcurrentRuns(t *testing.T) {
	repo, mode, traceName := buildRepo(t)
	set := telemetry.New(telemetry.Options{})

	gen := NewGeneratorAgent(repo, hddFactory, "", "ch0", nil)
	gen.AttachTelemetry(set)
	gAddr, err := gen.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()

	const hosts = 4
	totals := make(chan int64, hosts)
	errs := make(chan error, hosts)
	for i := 0; i < hosts; i++ {
		go func() {
			h, err := Dial(gAddr.String(), "", nil)
			if err != nil {
				errs <- err
				return
			}
			defer h.Close()
			out, err := h.RunTest(netproto.StartTest{TraceName: traceName, LoadProportion: 0.5},
				"raid5-hdd", host.ModeVector{RequestBytes: mode.RequestBytes, LoadProportion: 0.5})
			if err != nil {
				errs <- err
				return
			}
			totals <- out.Result.IOs
		}()
	}
	var total int64
	for i := 0; i < hosts; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case n := <-totals:
			total += n
		}
	}
	if got := set.Registry().Counter("replay.completed").Value(); got != total {
		t.Fatalf("replay.completed = %d, want %d accumulated over %d concurrent tests", got, total, hosts)
	}
	if len(set.Windows()) == 0 {
		t.Fatal("no sampling windows merged")
	}
	if len(set.Tracer().Spans()) == 0 {
		t.Fatal("no spans merged")
	}
}

// Sanity: a meter pointed at a constant source reports that constant
// through the whole distributed pipeline.
func TestPowerPipelineFidelity(t *testing.T) {
	repo, _, traceName := buildRepo(t)

	constFactory := func() (*SystemUnderTest, error) {
		sut, err := hddFactory()
		if err != nil {
			return nil, err
		}
		sut.Power = powersim.Sum{powersim.NewTimeline(100)}
		return sut, nil
	}
	analyzer := NewAnalyzerAgent(nil)
	aAddr, err := analyzer.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer analyzer.Close()
	gen := NewGeneratorAgent(repo, constFactory, aAddr.String(), "c", nil)
	gAddr, err := gen.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	h, err := Dial(gAddr.String(), aAddr.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	out, err := h.RunTest(netproto.StartTest{TraceName: traceName, LoadProportion: 1}, "c", host.ModeVector{})
	if err != nil {
		t.Fatal(err)
	}
	if !powersim.ApproxEqual(out.Power.MeanWatts, 100, 0.01) {
		t.Fatalf("pipeline mean = %v, want ~100 (0.5%% meter noise)", out.Power.MeanWatts)
	}
}

// TestSamplingCycleBounds: 0 is the 1 s default, every cycle up to
// simtime.Horizon converts exactly, and a negative cycle or one whose
// nanosecond count would wrap is a labelled error.
func TestSamplingCycleBounds(t *testing.T) {
	for _, c := range []struct {
		ms   int64
		want simtime.Duration
	}{
		{0, simtime.Second},
		{1, simtime.Millisecond},
		{500, 500 * simtime.Millisecond},
		{maxSamplingCycleMs, simtime.Duration(maxSamplingCycleMs) * simtime.Millisecond},
	} {
		if got, err := samplingCycle(c.ms); err != nil || got != c.want {
			t.Errorf("samplingCycle(%d) = %v, %v; want %v", c.ms, got, err, c.want)
		}
	}
	if top, _ := samplingCycle(maxSamplingCycleMs); top <= 0 || simtime.Time(top) > simtime.Horizon {
		t.Fatalf("longest cycle %v lies outside (0, Horizon]", top)
	}
	for _, ms := range []int64{-1, math.MinInt64, maxSamplingCycleMs + 1, 76480200929599801, math.MaxInt64} {
		want := fmt.Sprintf("generator: sampling_cycle_ms %d outside [0, %d]", ms, maxSamplingCycleMs)
		if got, err := samplingCycle(ms); err == nil || err.Error() != want {
			t.Errorf("samplingCycle(%d) = %v, %v; want error %q", ms, got, err, want)
		}
	}
}

// TestGeneratorRejectsBadSamplingCycle: a generator answers a negative
// or wrapping sampling cycle with a labelled error before it loads the
// trace (a missing one shows the order), and the connection then
// serves a valid test at a 500 ms cycle.
func TestGeneratorRejectsBadSamplingCycle(t *testing.T) {
	repo, _, traceName := buildRepo(t)
	gen := NewGeneratorAgent(repo, hddFactory, "", "ch0", nil)
	gAddr, err := gen.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	h, err := Dial(gAddr.String(), "", host.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, ms := range []int64{-1, 76480200929599801} {
		_, err := h.RunTest(netproto.StartTest{TraceName: "missing.replay", LoadProportion: 1, SamplingCycleMs: ms}, "d", host.ModeVector{})
		if want := fmt.Sprintf("cluster: remote: generator: sampling_cycle_ms %d outside", ms); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("sampling_cycle_ms %d: err = %v, want prefix %q", ms, err, want)
		}
	}
	out, err := h.RunTest(netproto.StartTest{TraceName: traceName, LoadProportion: 1, SamplingCycleMs: 500}, "raid5-hdd", host.ModeVector{LoadProportion: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Progress) == 0 || out.Progress[0].EndS-out.Progress[0].StartS != 0.5 {
		t.Fatalf("progress at a 500 ms cycle: %+v", out.Progress)
	}
}
