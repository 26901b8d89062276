// Package fleet scales the simulation from one array to a storage
// fleet: N independent arrays — each an experiments-provisioned
// engine + RAID array — behind a front-end router, partitioned across
// W worker goroutines that advance in lock-stepped shared-clock
// windows.  Run is the repository's only windowed-barrier executor:
// a single array always replays on one serial engine (DESIGN.md §12).
//
// Arrays only interact through the front end, so the conservative
// lookahead is the router's decision interval: the coordinator routes
// every arrival inside the window [t, t+Δ) using coordinator-owned
// state, schedules the admitted requests onto their targets' engines,
// then barrier-drains all workers through t+Δ.  Every routing and
// admission decision happens on the coordinator at a barrier, and each
// array's variate sequence is fixed by its fleet index (per-array PCG
// seed derivation in experiments.NewFleetMember), so fleet results are
// byte-identical at any worker count — the determinism gate in
// internal/check holds summary.json to that at workers 1/2/8.
package fleet

import (
	"fmt"
	"runtime"
	"sort"

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

// completion records one finished IO for tail-latency accounting and
// (when an SLO engine rides the run) per-class attribution.
type completion struct {
	response simtime.Duration
	finish   simtime.Time
	class    int
}

// pending is one admitted request waiting for its issue event.
type pending struct {
	req   storage.Request
	issue simtime.Time
	class int
}

// member is one array of the fleet.  Its mutable fields are written by
// the coordinator between barriers (routing) and by its worker during
// drains (completions); the limit/drained channel handshake orders the
// two, so no field needs atomics.
type member struct {
	index  int
	engine *simtime.Engine
	array  *raid.Array

	outstanding int
	queuedBytes int64
	admitted    int64
	completed   int64
	bytes       int64
	maxResp     simtime.Duration
	completions []completion
	pending     []pending
	probe       *workerProbe
	// sloFed counts completions already fed to the SLO engine; the
	// coordinator consumes completions[sloFed:] at each barrier.
	sloFed int
}

// OnEvent implements simtime.Handler: issue the pending request to the
// array.  The done callback runs on the member's own engine when the
// controller completes the request.
func (m *member) OnEvent(_ *simtime.Engine, arg simtime.EventArg) {
	p := m.pending[arg.I64]
	m.array.Submit(p.req, func(finish simtime.Time) {
		m.outstanding--
		m.queuedBytes -= p.req.Size
		m.completed++
		m.bytes += p.req.Size
		resp := finish.Sub(p.issue)
		if resp > m.maxResp {
			m.maxResp = resp
		}
		m.completions = append(m.completions, completion{response: resp, finish: finish, class: p.class})
		m.probe.observe(p.req.Size, resp)
	})
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

// worker owns a static partition of the members (array i on worker
// i mod W) and drains their engines through each window limit.
type worker struct {
	members []*member
	probe   *workerProbe
	limit   chan simtime.Time
	drained chan struct{}
}

func (w *worker) drain(limit simtime.Time) {
	for _, m := range w.members {
		m.engine.DrainThrough(limit)
	}
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
}

// New provisions a fleet of the given size.  workers <= 0 uses
// GOMAXPROCS; the count is clamped to the array count.  Array i is
// provisioned by experiments.NewFleetMember(cfg, kind, i) and assigned
// to worker i mod W, so the fleet's composition — and therefore every
// array's variate sequence — is independent of the worker count.
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
		e, a, err := experiments.NewFleetMember(cfg, kind, i)
		if err != nil {
			return nil, fmt.Errorf("fleet: member %d: %w", i, err)
		}
		f.members[i] = &member{index: i, engine: e, array: a}
		if c := a.Capacity(); i == 0 || c < f.minCap {
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

// Workers reports the worker-goroutine count.
func (f *Fleet) Workers() int { return len(f.workers) }

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
	// Window is the router decision interval — the shared-clock
	// lookahead between worker barriers (default DefaultWindow).
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
	// the window barriers.  The engine's alert stream and snapshot are
	// byte-identical at any worker count.
	SLO *slo.Engine
	// Faults schedules member-disk failures with background rebuilds
	// (the rebuild-storm scenario); see Fault.
	Faults []Fault
	// OnBarrier, when non-nil, is called on the coordinator goroutine
	// after every window barrier with the barrier time — the hook the
	// `tracer fleet -watch` dashboard refreshes from.  It must only
	// read; mutating fleet or SLO state from it breaks worker-count
	// determinism.
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
	if err := validateFaults(opts.Faults, n); err != nil {
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
			w.limit = make(chan simtime.Time)
			w.drained = make(chan struct{})
			go func(w *worker) {
				for limit := range w.limit {
					w.drain(limit)
					w.drained <- struct{}{}
				}
			}(w)
		}
		defer func() {
			for _, w := range f.workers {
				close(w.limit)
			}
		}()
	}
	// barrier drains every worker through limit and republishes member
	// state to the coordinator (the channel handshake orders the
	// cross-goroutine field accesses).
	outstanding := 0
	states := make([]ArrayState, n)
	barrier := func(limit simtime.Time) {
		if multi {
			for _, w := range f.workers {
				w.limit <- limit
			}
			for _, w := range f.workers {
				<-w.drained
			}
		} else {
			for _, w := range f.workers {
				w.drain(limit)
			}
		}
		outstanding = 0
		for i, m := range f.members {
			states[i] = ArrayState{Outstanding: m.outstanding, QueuedBytes: m.queuedBytes, Admitted: m.admitted}
			outstanding += m.outstanding
			// Issue events through limit have fired; their pending
			// entries were captured by value, so the slab recycles.
			m.pending = m.pending[:0]
		}
		if sloEng != nil {
			// Feed the barrier's new completions in member order; the
			// engine buckets by finish time, so worker count (which only
			// permutes this order) cannot change any count.  Evaluation
			// advances to the barrier, never past it.
			for _, m := range f.members {
				for _, c := range m.completions[m.sloFed:] {
					sloEng.ObserveCompletion(c.class, m.index, c.finish, c.response)
				}
				m.sloFed = len(m.completions)
			}
			if limit != simtime.MaxTime {
				sloEng.Advance(limit)
			}
		}
		if opts.OnBarrier != nil && limit != simtime.MaxTime {
			opts.OnBarrier(limit)
		}
	}

	var offered, admitted, rejected int64
	bucket := opts.Admission
	windows := 0
	t := start
	lastAt := start
	next, ok := stream.Next()
	for ok || outstanding > 0 {
		if !ok {
			// Stream dry: one final unbounded window drains the tail.
			barrier(simtime.MaxTime)
			windows++
			break
		}
		if outstanding == 0 && next.At >= t.Add(window) {
			// Idle gap: jump to the window containing the next arrival
			// instead of spinning empty barriers.
			k := int64(next.At.Sub(t) / window)
			t = t.Add(simtime.Duration(k) * window)
		}
		wend := t.Add(window)
		routed := 0
		for ok && next.At < wend {
			if next.At < lastAt {
				return nil, fmt.Errorf("fleet: arrivals regress (%v after %v)", next.At, lastAt)
			}
			lastAt = next.At
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
				next, ok = stream.Next()
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
			m.pending = append(m.pending, pending{req: next.Req, issue: next.At, class: class})
			m.engine.ScheduleEvent(next.At, m, simtime.EventArg{I64: int64(len(m.pending) - 1)})
			admitted++
			admittedC.Inc()
			if sloEng != nil {
				sloEng.ObserveAdmission(class, next.At)
			}
			routed++
			next, ok = stream.Next()
		}
		inflight.Update(int64(outstanding + routed))
		barrier(wend)
		windows++
		t = wend
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
	if d, okd := stream.(interface{ Duration() simtime.Duration }); okd {
		if e := start.Add(d.Duration()); e > end {
			end = e
		}
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
	var responses []simtime.Duration
	byClass := make(map[int][]simtime.Duration)
	for _, m := range f.members {
		res.Completed += m.completed
		res.Bytes += m.bytes
		if m.maxResp > res.MaxResponse {
			res.MaxResponse = m.maxResp
		}
		for _, c := range m.completions {
			responses = append(responses, c.response)
			if sloEng != nil {
				byClass[c.class] = append(byClass[c.class], c.response)
			}
		}
		meter := powersim.DefaultMeter(m.array.PowerSource())
		meter.Seed = f.cfg.Seed + uint64(m.index)
		samples := meter.Measure(start, end)
		w := powersim.MeanWatts(samples)
		res.MeanWatts += w
		res.EnergyJ += powersim.EnergyJ(samples)
		res.PerArray = append(res.PerArray, ArrayResult{
			Index: m.index, Admitted: m.admitted, Completed: m.completed,
			Bytes: m.bytes, MeanWatts: w,
		})
	}
	if dur := end.Sub(start).Seconds(); dur > 0 {
		res.IOPS = float64(res.Completed) / dur
		res.MBPS = float64(res.Bytes) / (1 << 20) / dur
	}
	if len(responses) > 0 {
		t := tailStats(responses)
		res.MeanResponse, res.P50Response, res.P99Response, res.P999Response = t.Mean, t.P50, t.P99, t.P999
	}
	if sloEng != nil {
		for i, name := range sloEng.ClassNames() {
			cr := ClassResult{Class: name}
			if rs := byClass[i]; len(rs) > 0 {
				cr.Completed = int64(len(rs))
				t := tailStats(rs)
				cr.MeanResponse, cr.MaxResponse = t.Mean, t.Max
				cr.P50Response, cr.P99Response, cr.P999Response = t.P50, t.P99, t.P999
			}
			res.PerClass = append(res.PerClass, cr)
		}
		if rs := byClass[-1]; len(rs) > 0 {
			t := tailStats(rs)
			res.PerClass = append(res.PerClass, ClassResult{
				Class: "unmatched", Completed: int64(len(rs)),
				MeanResponse: t.Mean, MaxResponse: t.Max,
				P50Response: t.P50, P99Response: t.P99, P999Response: t.P999,
			})
		}
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

// tailStats sorts responses in place and computes its tails.
func tailStats(responses []simtime.Duration) Tails {
	sort.Slice(responses, func(i, j int) bool { return responses[i] < responses[j] })
	var sum simtime.Duration
	for _, r := range responses {
		sum += r
	}
	return Tails{
		Mean: sum / simtime.Duration(len(responses)),
		Max:  responses[len(responses)-1],
		P50:  metrics.NearestRank(responses, 0.50),
		P99:  metrics.NearestRank(responses, 0.99),
		P999: metrics.NearestRank(responses, 0.999),
	}
}
