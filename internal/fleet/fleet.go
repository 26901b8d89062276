// Package fleet scales the simulation from one array to a storage
// fleet: N independent arrays — each an experiments-provisioned
// engine + RAID array — behind a front-end router, partitioned across
// W worker goroutines that advance in shared-clock windows.  Run is
// the repository's only windowed-barrier executor: a single array
// always replays on one serial engine (DESIGN.md §12).
//
// Arrays only interact through the front end, so the conservative
// lookahead is the router's decision interval: the coordinator routes
// every arrival inside the window [t, t+Δ) using coordinator-owned
// state.  A window ends in a barrier only when something reads the
// fleet's state after it: a policy that weighs ArrayState, an
// OnBarrier hook, the telemetry watermark, an idle gap or the stream's
// end, or a full routing budget (64 requests per member).  Otherwise
// the coordinator routes on, and at the next barrier each worker replays
// its members' routed windows one member at a time, making on each
// engine exactly the calls a barrier after every window would have
// made.  Every routing and admission decision happens on the
// coordinator, and each array's variate sequence is fixed by its fleet
// index (per-array PCG seed derivation in experiments.Build), so fleet
// results are byte-identical at any worker count — the determinism
// gate in internal/check holds summary.json to that at workers 1/2/8.
package fleet

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/slo"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// DefaultWindow is the router's decision interval — the shared-clock
// lookahead between worker barriers.
const DefaultWindow = 10 * simtime.Millisecond

// barrierBudget bounds a batch: once barrierBudget requests per member
// have been routed since the last barrier, the window ends in one.  It
// caps the pending lists (32 B per request) and how far SLO evaluation
// trails routing.  A barrier brings every member's engine, array and
// drives back into cache, so the larger the batch, the more events
// each visit fires.  In the sweep of DESIGN §13.1, 64 ran within 7% of
// the fastest budget at every fleet size, and 128 gained little for a
// third more peak memory.
const barrierBudget = 64

// completion records one finished IO for tail-latency accounting and
// (when an SLO engine rides the run) per-class attribution.
type completion struct {
	response simtime.Duration
	finish   simtime.Time
	class    int
}

// pending is one admitted request waiting for its issue event.  The
// coordinator appends one per request to its member's list, in routing
// order, so the request is packed into 32 bytes, two to a cache line.
type pending struct {
	offset, size int64
	issue        simtime.Time
	op           storage.Op
	class        int32
}

// member is one array of the fleet.  Its mutable fields are written by
// the coordinator between barriers (routing) and by its worker during
// drains (completions); the limit/drained channel handshake orders the
// two, so no field needs atomics.
type member struct {
	// Routing writes these four for every request, so they lead.
	outstanding int
	queuedBytes int64
	admitted    int64
	pending     []pending

	index  int
	engine *simtime.Engine
	array  *raid.Array

	completed int64
	bytes     int64
	maxResp   simtime.Duration
	// completions holds the IOs finished since the last barrier, which
	// gathers them into the run's buffers and truncates the slice.
	completions []completion
	probe       *workerProbe
	// free is a LIFO list of idle in-flight records.  Only the worker
	// draining this member touches it.
	free []*inflight
}

// inflight is one issued request awaiting its array completion.
// Records recycle through their member's free list, and each binds its
// completion callback once, when first created.
type inflight struct {
	m     *member
	size  int64
	issue simtime.Time
	class int
	done  func(simtime.Time) // onDone, bound once
}

// OnEvent implements simtime.Handler: issue the pending request to the
// array.  The done callback runs on the member's own engine when the
// controller completes the request.
func (m *member) OnEvent(_ *simtime.Engine, arg simtime.EventArg) {
	p := m.pending[arg.I64]
	var r *inflight
	if n := len(m.free); n > 0 {
		r = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		r = &inflight{m: m}
		r.done = r.onDone
	}
	r.size, r.issue, r.class = p.size, p.issue, int(p.class)
	m.array.Submit(storage.Request{Op: p.op, Offset: p.offset, Size: p.size}, r.done)
}

// onDone accounts one completed request and recycles its record.
func (r *inflight) onDone(finish simtime.Time) {
	m := r.m
	m.outstanding--
	m.queuedBytes -= r.size
	m.completed++
	m.bytes += r.size
	resp := finish.Sub(r.issue)
	if resp > m.maxResp {
		m.maxResp = resp
	}
	m.completions = append(m.completions, completion{response: resp, finish: finish, class: r.class})
	m.probe.observe(r.size, resp)
	m.free = append(m.free, r)
}

// workerProbe is one worker's telemetry: a private Set whose registry
// is merged into the run's parent Set after the run, so worker
// goroutines never contend on shared instruments mid-run.  All
// instruments are nil-safe, so a zero probe (telemetry disabled) costs
// one nil check per completion.
type workerProbe struct {
	set       *telemetry.Set
	completed *telemetry.Counter
	bytes     *telemetry.Counter
	latency   *telemetry.Histogram
}

func newWorkerProbe(cadence simtime.Duration) *workerProbe {
	s := telemetry.New(telemetry.Options{Cadence: cadence})
	reg := s.Registry()
	return &workerProbe{
		set:       s,
		completed: reg.Counter("fleet.completed"),
		bytes:     reg.Counter("fleet.bytes"),
		latency:   reg.Histogram("fleet.response_ns", telemetry.LatencyBounds()),
	}
}

func (p *workerProbe) observe(bytes int64, resp simtime.Duration) {
	p.completed.Inc()
	p.bytes.Add(bytes)
	p.latency.Observe(int64(resp))
}

// batch is the run of router windows one barrier completes: from is
// the start of the first window routed since the previous barrier,
// limit the barrier time, and window the windows' length.  Window
// starts lie a whole number of windows past from, and each arrival
// lies in the window that routed it.
type batch struct {
	from, limit simtime.Time
	window      simtime.Duration
}

// worker owns a static partition of the members (array i on worker
// i mod W) and replays their routed windows at each barrier.
type worker struct {
	members []*member
	probe   *workerProbe
	batches chan batch
	drained chan struct{}
}

func (w *worker) drain(b batch) {
	for _, m := range w.members {
		m.replay(b)
	}
}

// replay makes on m's engine the calls a barrier after every window of
// b would have made: for each window, drain through its start, then
// schedule the window's arrivals in routing order; finally drain
// through the limit.  The first window's drain is the previous
// barrier's, already made: after an idle-gap jump its start lies past
// that barrier, and draining through the start early would fire the
// gap's events before the arrivals take their sequence numbers.
// Windows without arrivals for m only drain, and consecutive drains
// fire what one drain through the later limit fires, so m walks only
// its own arrivals.
func (m *member) replay(b batch) {
	e := m.engine
	end := b.from.Add(b.window) // the end of the window being scheduled
	for i := range m.pending {
		p := &m.pending[i]
		if p.issue >= end {
			start := p.issue.Add(-p.issue.Sub(b.from) % b.window)
			e.DrainThrough(start)
			end = start.Add(b.window)
		}
		e.ScheduleEvent(p.issue, m, simtime.EventArg{I64: int64(i)})
	}
	e.DrainThrough(b.limit)
}

// Fleet is a set of independent arrays behind one front-end router.  A
// Fleet runs one client stream: arrays accumulate state across Run, so
// build a fresh Fleet per run.
type Fleet struct {
	cfg     experiments.Config
	kind    experiments.ArrayKind
	members []*member
	workers []*worker
	minCap  int64
	// responses is the run's one record of its completed IOs: each
	// barrier appends the members' new response times in member order,
	// and classes their SLO classes when an SLO engine rides the run.
	responses []simtime.Duration
	classes   []int32
}

// New provisions a fleet of the given size.  workers <= 0 uses
// GOMAXPROCS; the count is clamped to the array count.  Array i is
// provisioned by experiments.Build as StackSpec{Kind: kind, Member: i}
// and assigned to worker i mod W, so the fleet's composition — and
// therefore every array's variate sequence — is independent of the
// worker count.
func New(cfg experiments.Config, kind experiments.ArrayKind, arrays, workers int) (*Fleet, error) {
	if arrays <= 0 {
		return nil, fmt.Errorf("fleet: need at least one array, got %d", arrays)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > arrays {
		workers = arrays
	}
	cfg = experiments.NormalizeConfig(cfg)
	f := &Fleet{cfg: cfg, kind: kind, members: make([]*member, arrays), workers: make([]*worker, workers)}
	for i := range f.members {
		s, err := experiments.Build(cfg, experiments.StackSpec{Kind: kind, Member: i})
		if err != nil {
			return nil, fmt.Errorf("fleet: member %d: %w", i, err)
		}
		f.members[i] = &member{index: i, engine: s.Engine, array: s.Array}
		if c := s.Array.Capacity(); i == 0 || c < f.minCap {
			f.minCap = c
		}
	}
	for i := range f.workers {
		f.workers[i] = &worker{}
	}
	for i, m := range f.members {
		w := f.workers[i%workers]
		w.members = append(w.members, m)
	}
	return f, nil
}

// Size reports the number of member arrays.
func (f *Fleet) Size() int { return len(f.members) }

// Capacity reports the smallest member array's usable capacity — the
// address bound a stream must respect on every member.
func (f *Fleet) Capacity() int64 { return f.minCap }

// Arrays lists the member arrays in fleet-index order.
func (f *Fleet) Arrays() []*raid.Array {
	out := make([]*raid.Array, len(f.members))
	for i, m := range f.members {
		out[i] = m.array
	}
	return out
}

// Engines lists the member engines in fleet-index order.
func (f *Fleet) Engines() []*simtime.Engine {
	out := make([]*simtime.Engine, len(f.members))
	for i, m := range f.members {
		out[i] = m.engine
	}
	return out
}

// Options tune one fleet run.
type Options struct {
	// Policy places requests (default round-robin).
	Policy Policy
	// Admission paces the front end; nil admits everything.
	Admission *TokenBucket
	// Window is the router decision interval (default DefaultWindow).
	// Routing, admission and SLO attribution happen per window; a
	// window ends in a worker barrier when something reads the fleet's
	// state after it (see the package doc), so Result.Windows counts
	// windows, not barriers.
	Window simtime.Duration
	// Telemetry, when non-nil, receives fleet counters, the response
	// histogram and the in-flight watermark; per-worker sets are
	// merged into it after the run in worker order.
	Telemetry *telemetry.Set
	// PowerCapW, when positive, is the fleet power budget headroom is
	// accounted against.
	PowerCapW float64
	// SLO, when non-nil, attributes every admission, rejection and
	// completion to a tenant class and evaluates burn-rate alerts at
	// the window barriers, so evaluation may trail routing by the
	// windows since the last barrier.  The engine's alert stream and
	// snapshot are byte-identical at any worker count and barrier
	// schedule.
	SLO *slo.Engine
	// Faults schedules member-disk failures with background rebuilds
	// (the rebuild-storm scenario); see Fault.
	Faults []Fault
	// OnBarrier, when non-nil, is called on the coordinator goroutine
	// after every window with the window's end — the hook the
	// `tracer fleet -watch` dashboard refreshes from.  Setting it ends
	// every window in a barrier, so the hook sees member and SLO state
	// current to that time.  It must only read; mutating fleet or SLO
	// state from it breaks worker-count determinism.
	OnBarrier func(now simtime.Time)
}

// ArrayResult is one member's share of a fleet run.
type ArrayResult struct {
	Index     int     `json:"index"`
	Admitted  int64   `json:"admitted"`
	Completed int64   `json:"completed"`
	Bytes     int64   `json:"bytes"`
	MeanWatts float64 `json:"mean_watts"`
}

// Result aggregates one fleet run.
type Result struct {
	Arrays  int    `json:"arrays"`
	Workers int    `json:"workers"`
	Policy  string `json:"policy"`
	// Windows is the number of router decision windows executed.
	Windows int `json:"windows"`
	// Start and End bound the run on the shared virtual clock.
	Start simtime.Time `json:"start_ns"`
	End   simtime.Time `json:"end_ns"`
	// Offered = Admitted + Rejected; Admitted == Completed when the
	// run drains fully.
	Offered    int64   `json:"offered"`
	Admitted   int64   `json:"admitted"`
	Rejected   int64   `json:"rejected"`
	Completed  int64   `json:"completed"`
	RejectRate float64 `json:"reject_rate"`
	Bytes      int64   `json:"bytes"`
	IOPS       float64 `json:"iops"`
	MBPS       float64 `json:"mbps"`
	// Tail latency over all completions, nearest-rank.
	MeanResponse simtime.Duration `json:"mean_response_ns"`
	MaxResponse  simtime.Duration `json:"max_response_ns"`
	P50Response  simtime.Duration `json:"p50_response_ns"`
	P99Response  simtime.Duration `json:"p99_response_ns"`
	P999Response simtime.Duration `json:"p999_response_ns"`
	// Fleet power: sum of per-array wall meters over [Start, End].
	MeanWatts   float64 `json:"mean_watts"`
	EnergyJ     float64 `json:"energy_j"`
	IOPSPerWatt float64 `json:"iops_per_watt"`
	MBPSPerKW   float64 `json:"mbps_per_kw"`
	// PowerCapW and HeadroomW account the run against Options.PowerCapW.
	PowerCapW float64 `json:"power_cap_w,omitempty"`
	HeadroomW float64 `json:"headroom_w,omitempty"`
	// PerArray breaks the run down by member, fleet-index order.
	PerArray []ArrayResult `json:"per_array"`
	// PerClass breaks tails down by SLO class, spec order (present
	// only when Options.SLO was set).
	PerClass []ClassResult `json:"per_class,omitempty"`
	// Faults reports injected fault lifecycles, schedule order.
	Faults []FaultResult `json:"faults,omitempty"`
}

// ClassResult is one SLO class's share of a fleet run.
type ClassResult struct {
	Class        string           `json:"class"`
	Completed    int64            `json:"completed"`
	MeanResponse simtime.Duration `json:"mean_response_ns"`
	MaxResponse  simtime.Duration `json:"max_response_ns"`
	P50Response  simtime.Duration `json:"p50_response_ns"`
	P99Response  simtime.Duration `json:"p99_response_ns"`
	P999Response simtime.Duration `json:"p999_response_ns"`
}

// Run drives stream through the fleet and drains every in-flight IO.
// Arrivals must be nondecreasing in time and fit the smallest member
// array.  The result — and the telemetry layout, when Options.Telemetry
// is set — is byte-identical at any worker count.
func (f *Fleet) Run(stream Stream, opts Options) (*Result, error) {
	if stream == nil {
		return nil, fmt.Errorf("fleet: nil stream")
	}
	pol := opts.Policy
	if pol == nil {
		pol = NewRoundRobin()
	}
	window := opts.Window
	if window <= 0 {
		window = DefaultWindow
	}
	n := len(f.members)
	start := f.members[0].engine.Now()
	for _, m := range f.members {
		if m.engine.Now() != start {
			return nil, fmt.Errorf("fleet: member clocks disagree (%v vs %v)", m.engine.Now(), start)
		}
	}
	span := simtime.Duration(-1) // the stream declares no end
	if d, ok := stream.(interface{ Duration() simtime.Duration }); ok {
		span = d.Duration()
	}
	// Members share one kind, so member 0's disk count holds for all.
	if err := validateFaults(opts.Faults, n, len(f.members[0].array.Disks()), span); err != nil {
		return nil, err
	}
	// Fault events ride the target member's own engine: they fire
	// during that member's drain at the same virtual time regardless of
	// which worker drains it.
	faultResults := make([]FaultResult, len(opts.Faults))
	for i, ft := range opts.Faults {
		faultResults[i] = FaultResult{Array: ft.Array, Disk: ft.Disk}
		m := f.members[ft.Array]
		m.engine.ScheduleEvent(start.Add(ft.At), &faultTask{m: m, fault: ft, res: &faultResults[i]}, simtime.EventArg{})
	}
	sloEng := opts.SLO

	// Pre-register every fleet column on the parent set, coordinator
	// counters first, so the merged layout is fixed before any worker
	// set is folded in — summary.json then lays out identically at any
	// worker count.
	tel := opts.Telemetry
	var offeredC, admittedC, rejectedC *telemetry.Counter
	var inflight *telemetry.Watermark
	if tel != nil {
		reg := tel.Registry()
		offeredC = reg.Counter("fleet.offered")
		admittedC = reg.Counter("fleet.admitted")
		rejectedC = reg.Counter("fleet.rejected")
		reg.Counter("fleet.completed")
		reg.Counter("fleet.bytes")
		inflight = reg.Watermark("fleet.inflight_max")
		reg.Histogram("fleet.response_ns", telemetry.LatencyBounds())
	}
	for _, w := range f.workers {
		if tel != nil {
			w.probe = newWorkerProbe(tel.Cadence())
		} else {
			w.probe = &workerProbe{}
		}
		for _, m := range w.members {
			m.probe = w.probe
		}
	}

	multi := len(f.workers) > 1
	if multi {
		for _, w := range f.workers {
			w.batches = make(chan batch)
			w.drained = make(chan struct{})
			go func(w *worker) {
				for b := range w.batches {
					w.drain(b)
					w.drained <- struct{}{}
				}
			}(w)
		}
		defer func() {
			for _, w := range f.workers {
				close(w.batches)
			}
		}()
	}
	// barrier has every worker replay its members' routed windows
	// through b.limit and republishes member state to the coordinator
	// (the channel handshake orders the cross-goroutine field accesses).
	// It moves the members' new completions into the run's records.
	outstanding := 0
	states := make([]ArrayState, n)
	barrier := func(b batch) {
		if multi {
			for _, w := range f.workers {
				w.batches <- b
			}
			for _, w := range f.workers {
				<-w.drained
			}
		} else {
			for _, w := range f.workers {
				w.drain(b)
			}
		}
		outstanding = 0
		for i, m := range f.members {
			states[i] = ArrayState{Outstanding: m.outstanding, QueuedBytes: m.queuedBytes, Admitted: m.admitted}
			outstanding += m.outstanding
			// Issue events through the limit have fired; their pending
			// entries were captured by value, so the slab recycles.
			m.pending = m.pending[:0]
			// The SLO engine buckets completions by finish time, so the
			// order they are fed in cannot change any count.
			for _, c := range m.completions {
				f.responses = append(f.responses, c.response)
				if sloEng != nil {
					f.classes = append(f.classes, int32(c.class))
					sloEng.ObserveCompletion(c.class, m.index, c.finish, c.response)
				}
			}
			m.completions = m.completions[:0]
		}
		if sloEng != nil && b.limit != simtime.MaxTime {
			// Evaluation advances to the barrier, never past it.
			sloEng.Advance(b.limit)
		}
		if opts.OnBarrier != nil && b.limit != simtime.MaxTime {
			opts.OnBarrier(b.limit)
		}
	}
	// Something reads the fleet's state after every window when the
	// policy weighs ArrayState, a hook watches the barriers, or the
	// in-flight watermark samples each window; then every window ends in
	// a barrier.
	_, blind := pol.(stateBlind)
	everyWindow := !blind || opts.OnBarrier != nil || tel != nil
	budget := barrierBudget * n

	var offered, admitted, rejected int64
	bucket := opts.Admission
	windows := 0
	t := start
	var next ClientRequest
	ok := false
	lastAt := start
	// pull reads the next arrival.  It rejects one that goes back in
	// time, and one past the simulation horizon, where the window
	// arithmetic below would wrap.
	pull := func() error {
		if next, ok = stream.Next(); !ok {
			return nil
		}
		if next.At < lastAt {
			return fmt.Errorf("fleet: arrivals regress (%v after %v)", next.At, lastAt)
		}
		if next.At > simtime.Horizon {
			return fmt.Errorf("fleet: arrival %d at %v lies past the simulation horizon %v", offered, next.At, simtime.Horizon)
		}
		lastAt = next.At
		return nil
	}
	if err := pull(); err != nil {
		return nil, err
	}
	// from is the start of the first window routed since the last
	// barrier; routed counts the requests admitted since then.  The
	// loop's condition and the idle-gap test read outstanding, which is
	// current only right after a barrier, so a window followed by an
	// exhausted stream or an idle gap always ends in one.
	from, routed := t, 0
	for ok || outstanding > 0 {
		if !ok {
			// Stream dry: one final unbounded window drains the tail.
			barrier(batch{from: from, limit: simtime.MaxTime, window: window})
			windows++
			break
		}
		if outstanding == 0 && next.At >= t.Add(window) {
			// Idle gap: jump to the window containing the next arrival
			// instead of spinning empty barriers.
			k := int64(next.At.Sub(t) / window)
			t = t.Add(simtime.Duration(k) * window)
			from = t
		}
		wend := t.Add(window)
		for ok && next.At < wend {
			offered++
			offeredC.Inc()
			class := -1
			if sloEng != nil {
				class = sloEng.Classify(next.At, next.Client)
			}
			if !bucket.Admit(next.At) {
				rejected++
				rejectedC.Inc()
				if sloEng != nil {
					sloEng.ObserveRejection(class, next.At)
				}
				if err := pull(); err != nil {
					return nil, err
				}
				continue
			}
			if err := next.Req.Validate(f.minCap); err != nil {
				return nil, fmt.Errorf("fleet: request %d: %w", offered, err)
			}
			idx := pol.Pick(next, states)
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("fleet: policy %s picked array %d of %d", pol.Name(), idx, n)
			}
			m := f.members[idx]
			m.outstanding++
			m.queuedBytes += next.Req.Size
			m.admitted++
			states[idx] = ArrayState{Outstanding: m.outstanding, QueuedBytes: m.queuedBytes, Admitted: m.admitted}
			m.pending = append(m.pending, pending{offset: next.Req.Offset, size: next.Req.Size, issue: next.At, op: next.Req.Op, class: int32(class)})
			admitted++
			admittedC.Inc()
			if sloEng != nil {
				sloEng.ObserveAdmission(class, next.At)
			}
			routed++
			if err := pull(); err != nil {
				return nil, err
			}
		}
		// With telemetry on, every window ends in a barrier, so routed
		// holds this window's requests alone.
		inflight.Update(int64(outstanding + routed))
		windows++
		t = wend
		if everyWindow || routed >= budget || !ok || next.At >= wend.Add(window) {
			barrier(batch{from: from, limit: wend, window: window})
			from, routed = t, 0
		}
	}

	// Pin every engine to a common end so per-member state (disk
	// timelines, power sources) reads consistently, covering at least
	// the offered window when the stream declares one.
	end := start
	for _, m := range f.members {
		if m.engine.Now() > end {
			end = m.engine.Now()
		}
	}
	if span >= 0 && start.Add(span) > end {
		end = start.Add(span)
	}
	for _, m := range f.members {
		m.engine.RunUntil(end)
	}

	if sloEng != nil {
		sloEng.Finish(end)
	}

	if tel != nil {
		for _, w := range f.workers {
			tel.Merge(w.probe.set)
		}
		if sloEng != nil {
			tel.AddArtifact(slo.AlertsFile, sloEng.WriteAlerts)
		}
	}

	res := &Result{
		Arrays: n, Workers: len(f.workers), Policy: pol.Name(), Windows: windows,
		Start: start, End: end,
		Offered: offered, Admitted: admitted, Rejected: rejected,
		PowerCapW: opts.PowerCapW,
		Faults:    faultResults,
	}
	if offered > 0 {
		res.RejectRate = float64(rejected) / float64(offered)
	}
	for _, m := range f.members {
		res.Completed += m.completed
		res.Bytes += m.bytes
		if m.maxResp > res.MaxResponse {
			res.MaxResponse = m.maxResp
		}
		p := powersim.Read(m.array.PowerSource(), f.cfg.Seed+uint64(m.index), start, end)
		res.MeanWatts += p.Watts
		res.EnergyJ += p.EnergyJ
		res.PerArray = append(res.PerArray, ArrayResult{
			Index: m.index, Admitted: m.admitted, Completed: m.completed,
			Bytes: m.bytes, MeanWatts: p.Watts,
		})
	}
	if dur := end.Sub(start).Seconds(); dur > 0 {
		res.IOPS = float64(res.Completed) / dur
		res.MBPS = float64(res.Bytes) / (1 << 20) / dur
	}
	// Tails read populations, not sequences, so the order barriers
	// gathered the responses in cannot change them.
	var all *tailPop
	if sloEng != nil {
		names := sloEng.ClassNames()
		var groups []tailPop
		all, groups = responseTails(f.responses, f.classes, len(names))
		for i, name := range names {
			res.PerClass = append(res.PerClass, groups[i].classResult(name))
		}
		if g := &groups[len(names)]; g.n > 0 {
			res.PerClass = append(res.PerClass, g.classResult("unmatched"))
		}
	} else {
		all, _ = responseTails(f.responses, nil, 0)
	}
	if all.n > 0 {
		t := all.tails()
		res.MeanResponse, res.P50Response, res.P99Response, res.P999Response = t.Mean, t.P50, t.P99, t.P999
	}
	if res.MeanWatts > 0 {
		res.IOPSPerWatt = res.IOPS / res.MeanWatts
		res.MBPSPerKW = res.MBPS / (res.MeanWatts / 1000)
	}
	if opts.PowerCapW > 0 {
		res.HeadroomW = opts.PowerCapW - res.MeanWatts
	}
	return res, nil
}

// Tails summarises a response population: mean, max and nearest-rank
// percentiles.
type Tails struct {
	Mean, Max, P50, P99, P999 simtime.Duration
}

// tailSubBits sets the tail histogram's resolution: each power of two
// splits into 2^tailSubBits buckets, so a bucket spans under 1.6% of
// the values in it.
const tailSubBits = 6

// tailBuckets is the number of buckets tailBucket maps onto.
const tailBuckets = (64-tailSubBits)<<tailSubBits + 1

// tailBucket maps a response onto the tail histogram.  The map does
// not decrease, so each bucket holds one range of values: negatives
// share bucket 0, values below 2^(tailSubBits+1) get a bucket each,
// and every power of two above that splits into 2^tailSubBits.
func tailBucket(v simtime.Duration) int {
	if v < 0 {
		return 0
	}
	u := uint64(v)
	if u < 2<<tailSubBits {
		return 1 + int(u)
	}
	shift := bits.Len64(u) - tailSubBits - 1
	return 1 + shift<<tailSubBits + int(u>>shift)
}

// tailPop is one response population: its count, sum, maximum and
// histogram from the first pass over the run's responses, and from the
// second the members of the buckets that hold its fleetTails ranks.
type tailPop struct {
	n        int
	sum, max simtime.Duration
	hist     []int
	// Rank q is member offset[q] of bucket[q] in ascending order.  The
	// lead rank of a bucket, the first one in it, collects its members.
	bucket, offset [len(fleetTails)]int
	lead           [len(fleetTails)]bool
	picked         [len(fleetTails)][]simtime.Duration
}

func (p *tailPop) add(r simtime.Duration, b int) {
	p.n++
	p.sum += r
	if p.n == 1 || r > p.max {
		p.max = r
	}
	p.hist[b]++
}

// locate places each rank in its bucket once the histogram is whole.
func (p *tailPop) locate() {
	if p.n == 0 {
		return
	}
	b, below := 0, 0 // below counts the members of buckets before b
	for q, quantile := range fleetTails {
		k := metrics.NearestRankIndex(quantile, p.n)
		for below+p.hist[b] <= k {
			below += p.hist[b]
			b++
		}
		p.bucket[q], p.offset[q] = b, k-below
		if p.lead[q] = q == 0 || p.bucket[q-1] != b; p.lead[q] {
			p.picked[q] = make([]simtime.Duration, 0, p.hist[b])
		}
	}
}

// pick collects r when its bucket b holds a rank.
func (p *tailPop) pick(r simtime.Duration, b int) {
	for q, lead := range p.lead {
		if lead && p.bucket[q] == b {
			p.picked[q] = append(p.picked[q], r)
			return
		}
	}
}

// tails reads a non-empty population's tails: each rank is the
// offset-th of its bucket's members, sorted, so it is the value a sort
// of the whole population puts at that rank.
func (p *tailPop) tails() Tails {
	var v [len(fleetTails)]simtime.Duration
	for q := range v {
		lead := q
		for !p.lead[lead] {
			lead--
		}
		if lead == q {
			slices.Sort(p.picked[q])
		}
		v[q] = p.picked[lead][p.offset[q]]
	}
	return Tails{Mean: p.sum / simtime.Duration(p.n), Max: p.max, P50: v[0], P99: v[1], P999: v[2]}
}

// classResult reports a class's share of the run.
func (p *tailPop) classResult(name string) ClassResult {
	cr := ClassResult{Class: name, Completed: int64(p.n)}
	if p.n > 0 {
		t := p.tails()
		cr.MeanResponse, cr.MaxResponse = t.Mean, t.Max
		cr.P50Response, cr.P99Response, cr.P999Response = t.P50, t.P99, t.P999
	}
	return cr
}

// responseTails finds the tails of every response and, when classes
// is positive, of each class's share: class[i] is response i's class,
// groups[c] holds class c < classes and groups[classes] class -1.  The
// first pass counts each response into its class's histogram and the
// overall one; the second collects only the members of the buckets
// that hold a rank.
func responseTails(responses []simtime.Duration, class []int32, classes int) (all *tailPop, groups []tailPop) {
	all = &tailPop{hist: make([]int, tailBuckets)}
	if classes > 0 {
		groups = make([]tailPop, classes+1)
		for i := range groups {
			groups[i].hist = make([]int, tailBuckets)
		}
	}
	slot := func(i int) *tailPop {
		c := int(class[i])
		if c < 0 {
			c = classes
		}
		return &groups[c]
	}
	for i, r := range responses {
		b := tailBucket(r)
		all.add(r, b)
		if groups != nil {
			slot(i).add(r, b)
		}
	}
	all.locate()
	for i := range groups {
		groups[i].locate()
	}
	for i, r := range responses {
		b := tailBucket(r)
		all.pick(r, b)
		if groups != nil {
			slot(i).pick(r, b)
		}
	}
	return all, groups
}

// fleetTails are the quantiles a fleet reports: p50, p99 and p999.
var fleetTails = [...]float64{0.50, 0.99, 0.999}
