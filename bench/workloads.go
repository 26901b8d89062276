package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/disksim"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/optimize"
	"repro/internal/parsweep"
	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/slo"
	"repro/internal/storage"
	"repro/internal/synth"
)

// A workload turns a seed into one repetition's inputs.  Everything
// the seed drives is built here, so the timed section of rep.run
// starts from ready inputs.  The modelled system itself is always
// experiments.DefaultConfig().
type workload interface {
	setup(seed uint64) (r rep, synth time.Duration, err error)
}

// rep is one single-use repetition over prepared inputs.  A nil tracer
// runs the system exactly as a user would; a tracer wraps the public
// boundaries between modules and must not change any simulated result.
type rep interface {
	run(t *tracer) (*outcome, error)
}

// counts are the per-layer work counts a repetition reads back from the
// modules' public accessors.
type counts struct {
	replayIOs                                  int64
	cacheReqs, cacheHits, cacheMisses, cacheWB int64
	raidRequests, raidRMW, rebuildBytes        int64
	diskOps                                    int64
	events                                     uint64
	maxHeap                                    int
	samples, timelineSteps                     int64
	windows, sloEvals, sloAlerts               int64
	cells, spinUps, rpmShifts                  int64
	// Model outputs: completed IOs, metered energy, worst p99.
	modelIOs int64
	energyJ  float64
	p99Ms    float64
}

// outcome is what one repetition produced.
type outcome struct {
	ios       int64 // simulated IOs completed: the numerator of the rate
	attempted int64
	failed    int64
	problems  []string // why IOs failed
	wrong     []string // model outputs that contradict the paper
	digest    uint64
	counts    counts

	// Set by traced repetitions only.
	untimed   time.Duration   // traced-only work to leave out of the rate
	residual  time.Duration   // host time outside every shim span
	fleet     *fleetTrace     // fleet window split
	cellTimes []time.Duration // optimize.Evaluate host time per grid cell
	mapWall   time.Duration   // parsweep.Map wall time over all grids
	workers   int
}

// fail charges n IOs as failed and keeps the reason.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// digest hashes the simulated results a repetition reports.  Host
// timings never enter it, so a traced repetition must match.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) add(vs ...any) {
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			b = []byte(err.Error())
		}
		d.h.Write(b)
	}
}

func (d digest) sum() uint64 { return d.h.Sum64() }

// hooks let tests put a faulty device into a sweep cell: wrapFront
// wraps the device replay submits to, wrapDisk each RAID member.
type hooks struct {
	wrapFront func(storage.Device) storage.Device
	wrapDisk  func(raid.Disk) raid.Disk
}

// cell is one replay of a sweep: a load proportion on a fresh array,
// optionally behind a cache tier.  Cells of one system share a label.
type cell struct {
	label string
	load  float64
	cache *cache.Params
}

// loadCells crosses one system with every load.
func loadCells(label string, c *cache.Params, loads []float64) []cell {
	cells := make([]cell, len(loads))
	for i, l := range loads {
		cells[i] = cell{label: label, load: l, cache: c}
	}
	return cells
}

// sweep replays one synthesised web-server trace through every cell.
// web-sweep is a sweep.
type sweep struct {
	trace synth.WebServerParams
	cells []cell
	hooks hooks
}

type sweepRep struct {
	w     *sweep
	trace *blktrace.Trace
}

func (w *sweep) setup(seed uint64) (rep, time.Duration, error) {
	p := w.trace
	p.Seed = seed
	start := time.Now()
	tr := synth.WebServerTrace(p)
	return &sweepRep{w: w, trace: tr}, time.Since(start), nil
}

func (r *sweepRep) run(t *tracer) (*outcome, error) {
	out := &outcome{}
	d := newDigest()
	cfg := experiments.DefaultConfig()
	var effs, done []float64 // IOPS/W and completed IOs of the current system, by load
	var loads []float64
	for i, c := range r.w.cells {
		if i > 0 {
			// Cells are independent systems.  Collecting between them makes
			// the process's peak memory one cell's peak, not the chance
			// overlap of a cell's garbage with the next cell's growth.
			runtime.GC()
		}
		before := out.counts.replayIOs
		eff, err := r.cell(cfg, c, t, out, d)
		if err != nil {
			return nil, fmt.Errorf("%s at load %v: %w", c.label, c.load, err)
		}
		effs = append(effs, eff)
		done = append(done, float64(out.counts.replayIOs-before))
		loads = append(loads, c.load)
		if i+1 < len(r.w.cells) && r.w.cells[i+1].label == c.label {
			continue
		}
		out.wrong = append(out.wrong, checkSweep(c.label, loads, done, effs)...)
		effs, done, loads = effs[:0], done[:0], loads[:0]
	}
	out.ios = out.counts.replayIOs
	out.digest = d.sum()
	return out, nil
}

// checkSweep compares one system's load sweep with the paper's
// findings: the replayed share of the trace tracks the configured load
// (Table IV: within 7% on the web trace; 10% allowed here), and energy
// efficiency rises with load (Fig. 9).  Loads must ascend.
func checkSweep(label string, loads, done, effs []float64) []string {
	var wrong []string
	full := done[len(done)-1] / loads[len(loads)-1]
	for i, l := range loads {
		if got := done[i] / full; math.Abs(got/l-1) > 0.10 {
			wrong = append(wrong, fmt.Sprintf("%s: load %v replayed %.3f of the trace", label, l, got))
		}
	}
	if !metrics.Monotone(effs, +1, 0.02) {
		wrong = append(wrong, fmt.Sprintf("%s: IOPS/W does not rise with load: %.4g", label, effs))
	}
	return wrong
}

// cell builds a fresh system, replays the trace at the cell's load,
// meters it, checks it and folds its counts into out.  It returns the
// cell's IOPS/W.
func (r *sweepRep) cell(cfg experiments.Config, c cell, t *tracer, out *outcome, d digest) (float64, error) {
	t.resetCell()
	e := simtime.NewEngine()
	params := raid.DefaultParams()
	a, err := raid.NewHDDArray(e, params, cfg.HDDs, disksim.Seagate7200())
	if err != nil {
		return 0, err
	}
	hdds := make([]*disksim.HDD, len(a.Disks()))
	for i, m := range a.Disks() {
		hdds[i] = m.(*disksim.HDD)
	}
	if t != nil || r.w.hooks.wrapDisk != nil {
		members := make([]raid.Disk, len(hdds))
		for i, h := range hdds {
			members[i] = h
			if t != nil {
				members[i] = &diskShim{hdd: h, eng: e, t: t}
			}
			if r.w.hooks.wrapDisk != nil {
				members[i] = r.w.hooks.wrapDisk(members[i])
			}
		}
		if a, err = raid.New(e, params, members); err != nil {
			return 0, err
		}
	}

	var front storage.Device = a
	var src powersim.Source = a.PowerSource()
	frontSite := siteRaidSubmit
	var ch *cache.Cache
	if c.cache != nil {
		var backing storage.Device = a
		if t != nil {
			backing = &devShim{inner: a, t: t, sub: siteRaidSubmit, done: siteCacheComplete}
		}
		if ch, err = cache.New(e, backing, a.PowerSource(), *c.cache); err != nil {
			return 0, err
		}
		front, src, frontSite = ch, ch.PowerSource(), siteCacheSubmit
	}
	var f replay.Filter = replay.UniformFilter{Proportion: c.load}
	if t != nil {
		front = &devShim{inner: front, t: t, sub: frontSite, done: siteReplayComplete}
		f = filterShim{inner: f, t: t}
	}
	if r.w.hooks.wrapFront != nil {
		front = r.w.hooks.wrapFront(front)
	}

	var root time.Duration
	if t != nil {
		root = t.root
	}
	start := time.Now()
	res, err := replay.ReplayFiltered(e, front, r.trace, f, replay.Options{})
	if err != nil {
		return 0, err
	}
	if t != nil {
		out.residual += time.Since(start) - (t.root - root)
	}

	meter := powersim.DefaultMeter(src)
	meter.Seed = cfg.Seed
	t.enter(siteMeter, -1)
	samples := meter.Measure(res.Start, res.End)
	t.exit()
	watts := powersim.MeanWatts(samples)
	energy := powersim.EnergyJ(samples)

	out.attempted += res.Issued
	bad := res.Issued - res.Completed
	if bad != 0 {
		out.fail(0, "%s at load %v: %d of %d IOs never completed", c.label, c.load, bad, res.Issued)
	}
	if err := checkCell(e, a, hdds, ch); err != nil {
		out.fail(0, "%s at load %v: %v", c.label, c.load, err)
		bad = res.Issued
	}
	out.failed += bad

	k := &out.counts
	k.replayIOs += res.Completed
	st := a.Stats()
	k.raidRequests += st.Reads + st.Writes
	k.raidRMW += st.RMWStripes
	k.rebuildBytes += st.RebuildBytes
	for _, h := range hdds {
		k.diskOps += h.ServedOps()
		k.timelineSteps += int64(h.Timeline().Steps())
	}
	if ch != nil {
		cs := ch.Stats()
		k.cacheReqs += cs.Requests
		k.cacheHits += cs.Hits
		k.cacheMisses += cs.Misses
		k.cacheWB += cs.Writebacks
		d.add(cs)
	}
	k.events += e.Fired()
	k.maxHeap = max(k.maxHeap, e.MaxHeapDepth())
	k.samples += int64(len(samples))
	k.modelIOs += res.Completed
	k.energyJ += energy
	k.p99Ms = math.Max(k.p99Ms, res.P99Response.Seconds()*1000)

	d.add(c.label, c.load, res, st, watts, energy)
	return metrics.IOPSPerWatt(res.IOPS, watts), nil
}

// checkCell runs the post-drain invariants of one sweep cell: the
// kernel drained, the controller and member self-checks hold, every
// member op the controller issued was served exactly once, and, with
// a cache, its write conservation holds and every backing op it issued
// reached the array.
func checkCell(e *simtime.Engine, a *raid.Array, hdds []*disksim.HDD, ch *cache.Cache) error {
	if n := e.Pending(); n != 0 {
		return fmt.Errorf("%d events still pending after the run", n)
	}
	if err := a.CheckInvariants(); err != nil {
		return err
	}
	if err := memberConservation(a, hdds); err != nil {
		return err
	}
	if ch != nil {
		if err := ch.CheckInvariants(e.Now()); err != nil {
			return err
		}
		cs := ch.Stats()
		if issued := cs.BackingReads + cs.BackingWrites; issued != a.FrontServed() {
			return fmt.Errorf("cache issued %d backing ops, array served %d", issued, a.FrontServed())
		}
	}
	return nil
}

// memberConservation checks that the members served exactly the disk
// operations the controller issued, rebuild traffic included.
func memberConservation(a *raid.Array, hdds []*disksim.HDD) error {
	var served int64
	for _, h := range hdds {
		served += h.ServedOps()
	}
	s := a.Stats()
	if issued := s.DiskReads + s.DiskWrites + s.RebuildReads + s.RebuildWrites; served != issued {
		return fmt.Errorf("members served %d ops, controller issued %d", served, issued)
	}
	return nil
}

// fleetStorm runs a large HDD fleet under the SLO engine with seeded
// disk faults and rebuilds.
type fleetStorm struct {
	arrays, workers int
	perArrayIOPS    float64
	dur             simtime.Duration
	faults          int
}

type fleetRep struct {
	w        *fleetStorm
	cfg      experiments.Config
	f        *fleet.Fleet
	slo      *slo.Engine
	arrivals *arrivals
	faults   []fleet.Fault
}

// arrivals is a client stream generated ahead of the run, so the timed
// section measures the fleet and not the generator.  It reports the
// generator's Duration, which the fleet reads to pin the end of a run.
type arrivals struct {
	reqs []fleet.ClientRequest
	next int
	dur  simtime.Duration
}

func (a *arrivals) Next() (fleet.ClientRequest, bool) {
	if a.next == len(a.reqs) {
		return fleet.ClientRequest{}, false
	}
	a.next++
	return a.reqs[a.next-1], true
}

func (a *arrivals) Duration() simtime.Duration { return a.dur }

func (w *fleetStorm) setup(seed uint64) (rep, time.Duration, error) {
	cfg := experiments.DefaultConfig()
	f, err := fleet.New(cfg, experiments.HDDArray, w.arrays, w.workers)
	if err != nil {
		return nil, 0, err
	}
	eng, err := slo.NewEngine(slo.ExampleSpec())
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	rate := w.perArrayIOPS * float64(w.arrays)
	stream := fleet.NewSynthStream(fleet.SynthParams{
		Duration:   w.dur,
		MeanIOPS:   rate,
		Size:       16 << 10,
		ReadRatio:  0.6,
		WorkingSet: cfg.WorkingSet,
		Seed:       seed,
	})
	arr := &arrivals{reqs: make([]fleet.ClientRequest, 0, int(rate*w.dur.Seconds()*1.05)), dur: stream.Duration()}
	for r, ok := stream.Next(); ok; r, ok = stream.Next() {
		arr.reqs = append(arr.reqs, r)
	}
	// Faults land on distinct seed-chosen arrays at evenly spaced
	// points of the run.
	rng := rand.New(rand.NewPCG(seed, 0xfa17))
	targets := rng.Perm(w.arrays)
	faults := make([]fleet.Fault, w.faults)
	for i := range faults {
		faults[i] = fleet.Fault{
			Array: targets[i],
			Disk:  rng.IntN(cfg.HDDs),
			At:    w.dur * simtime.Duration(i+1) / simtime.Duration(w.faults+1),
		}
	}
	return &fleetRep{w: w, cfg: cfg, f: f, slo: eng, arrivals: arr, faults: faults}, time.Since(start), nil
}

func (r *fleetRep) run(t *tracer) (*outcome, error) {
	out := &outcome{}
	opts := fleet.Options{Policy: fleet.NewRoundRobin(), SLO: r.slo, Faults: r.faults}
	if t != nil {
		out.fleet = newFleetTrace(t, r.f.Engines())
		opts.Policy = policyShim{inner: opts.Policy, t: out.fleet}
		opts.OnBarrier = out.fleet.onBarrier
		out.fleet.begin()
	}
	start := time.Now()
	res, err := r.f.Run(r.arrivals, opts)
	if err != nil {
		return nil, err
	}
	if t != nil {
		wall := time.Since(start)
		out.fleet.finish()
		out.residual = wall
		for _, s := range []site{siteFleetRoute, siteFleetBarrier, siteFleetFinish} {
			out.residual -= t.incl[s]
		}
	}
	out.ios = res.Completed
	out.attempted = res.Offered
	if res.Completed != res.Offered {
		out.fail(res.Offered-res.Completed, "offered %d, admitted %d, completed %d", res.Offered, res.Admitted, res.Completed)
	}

	k := &out.counts
	for i, a := range r.f.Arrays() {
		e := r.f.Engines()[i]
		hdds := make([]*disksim.HDD, len(a.Disks()))
		for j, m := range a.Disks() {
			hdds[j] = m.(*disksim.HDD)
			k.diskOps += hdds[j].ServedOps()
			k.timelineSteps += int64(hdds[j].Timeline().Steps())
		}
		err := checkCell(e, a, hdds, nil)
		if err != nil {
			out.fail(res.PerArray[i].Completed, "array %d: %v", i, err)
		}
		st := a.Stats()
		k.raidRequests += st.Reads + st.Writes
		k.raidRMW += st.RMWStripes
		k.rebuildBytes += st.RebuildBytes
		k.events += e.Fired()
		k.maxHeap = max(k.maxHeap, e.MaxHeapDepth())
	}
	for _, ft := range res.Faults {
		if ft.Error != "" || ft.RecoveredAt <= ft.FailedAt {
			out.fail(res.PerArray[ft.Array].Completed, "fault on array %d: %q, recovered at %v", ft.Array, ft.Error, ft.RecoveredAt)
		}
	}
	if t != nil {
		// The fleet meters every member inside Run where no shim can
		// reach; metering them again the same way reproduces that cost
		// and must reproduce the fleet's total exactly.
		start = time.Now()
		var watts float64
		for i, a := range r.f.Arrays() {
			meter := powersim.DefaultMeter(a.PowerSource())
			meter.Seed = r.cfg.Seed + uint64(i)
			samples := meter.Measure(res.Start, res.End)
			watts += powersim.MeanWatts(samples)
			k.samples += int64(len(samples))
		}
		end := time.Now()
		t.add(siteMeter, -1, 1, start, end)
		out.untimed = end.Sub(start)
		if watts != res.MeanWatts {
			out.fail(out.attempted, "re-metered fleet power %v W != fleet's %v W", watts, res.MeanWatts)
		}
	}
	alerts := r.slo.Alerts()
	k.windows = int64(res.Windows)
	k.sloEvals = r.slo.Snapshot().EvaluatedTick
	k.sloAlerts = int64(len(alerts))
	k.modelIOs = res.Completed
	k.energyJ = res.EnergyJ
	k.p99Ms = res.P99Response.Seconds() * 1000

	d := newDigest()
	d.add(res, alerts)
	out.digest = d.sum()
	return out, nil
}

// conserveGrid evaluates every cell of the default optimize search
// spaces of several conservation policies over one idle-heavy trace.
type conserveGrid struct {
	trace    synth.WebServerParams
	policies []string
	workers  int
}

type gridRep struct {
	w      *conserveGrid
	trace  *blktrace.Trace
	spaces []optimize.Space
}

func (w *conserveGrid) setup(seed uint64) (rep, time.Duration, error) {
	p := w.trace
	p.Seed = seed
	start := time.Now()
	tr := synth.WebServerTrace(p)
	synthTime := time.Since(start)
	r := &gridRep{w: w, trace: tr}
	for _, pol := range w.policies {
		s, err := optimize.DefaultSpace(pol)
		if err != nil {
			return nil, 0, err
		}
		r.spaces = append(r.spaces, s)
	}
	return r, synthTime, nil
}

func (r *gridRep) run(t *tracer) (*outcome, error) {
	start := time.Now()
	out := &outcome{workers: r.w.workers}
	opts := optimize.Options{Config: experiments.DefaultConfig(), Load: 1, Workers: r.w.workers}
	ctx := context.Background()
	d := newDigest()
	ios := int64(r.trace.NumIOs()) // load 1 replays every IO
	k := &out.counts
	for i, space := range r.spaces {
		if i > 0 {
			runtime.GC() // as between sweep cells
		}
		var evals []optimize.Eval
		if t == nil {
			res, err := optimize.Grid(ctx, space, r.trace, opts)
			if err != nil {
				return nil, err
			}
			evals = res.Evals
		} else {
			var err error
			if evals, err = r.tracedGrid(ctx, t, space, opts, out); err != nil {
				return nil, err
			}
		}
		for _, e := range evals {
			o := e.Objectives
			out.attempted += ios
			if !(o.IOPS > 0 && o.MeanWatts > 0 && o.EnergyJ > 0) || math.IsNaN(e.Fitness) {
				out.fail(ios, "%s: degenerate objectives %+v", e.Point, o)
			}
			k.cells++
			k.spinUps += o.SpinUps
			k.rpmShifts += o.RPMShifts
			k.modelIOs += ios
			k.energyJ += o.EnergyJ
			k.p99Ms = math.Max(k.p99Ms, o.P99Ms)
		}
		d.add(evals)
	}
	out.ios = k.modelIOs
	out.digest = d.sum()
	if t != nil {
		out.residual = time.Since(start) - out.mapWall
	}
	return out, nil
}

// tracedGrid evaluates one space point by point through parsweep, the
// way optimize.Grid does, timing each optimize.Evaluate call.
func (r *gridRep) tracedGrid(ctx context.Context, t *tracer, space optimize.Space, opts optimize.Options, out *outcome) ([]optimize.Eval, error) {
	n := space.Cells()
	starts := make([]time.Time, n)
	ends := make([]time.Time, n)
	start := time.Now()
	evals, err := parsweep.Map(ctx, parsweep.Options{Workers: opts.Workers}, n, func(i int) (optimize.Eval, error) {
		starts[i] = time.Now()
		e, err := optimize.Evaluate(opts, space.Point(i), r.trace, nil)
		ends[i] = time.Now()
		return e, err
	})
	if err != nil {
		return nil, err
	}
	end := time.Now()
	t.add(siteGridMap, -1, 1, start, end)
	out.mapWall += end.Sub(start)
	for i := range starts {
		base := int64(len(out.cellTimes))
		t.add(siteOptimizeCell, -1, 2+base, starts[i], ends[i])
		out.cellTimes = append(out.cellTimes, ends[i].Sub(starts[i]))
	}
	return evals, nil
}
