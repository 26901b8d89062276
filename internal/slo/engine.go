package slo

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/simtime"
)

// Engine evaluates a Spec against the fleet's attributed event stream
// on the simulated clock.
//
// The contract with the fleet coordinator is feed-then-advance: at
// each shared-clock window barrier the coordinator calls
// ObserveAdmission / ObserveRejection / ObserveCompletion for every
// event with a timestamp at or before the barrier, then Advance
// (barrier time), which evaluates every whole eval-interval tick that
// has closed.  Events are bucketed by timestamp, so the order the
// coordinator feeds them in — which varies with worker count — cannot
// change any count, and neither can how many router windows one
// barrier closes, which only delays a tick's evaluation to the first
// barrier past its end.  Every evaluation happens at a tick boundary
// whose position depends only on the spec.  That is the whole
// determinism argument: alerts.jsonl is a pure function of the spec
// and the attributed event stream.
//
// Observe*/Advance run on the coordinator goroutine; Snapshot may be
// called concurrently from watch/HTTP goroutines, so a mutex guards
// the state.
type Engine struct {
	mu   sync.Mutex
	spec Spec

	interval  simtime.Duration
	fastTicks int // fast window length in ticks
	slowTicks int // slow window length in ticks

	// next tick index to evaluate; tick k covers
	// [k*interval, (k+1)*interval).
	nextTick int64

	classes []*classState

	// Power reports mean fleet watts over [start, end) of sim time;
	// nil disables efficiency objectives.  Set before the run starts.
	Power func(start, end simtime.Time) float64

	unmatched int64 // events attributed to no class

	alerts []Alert
	seq    int // alert sequence number, for stable drill-down keys
}

// classState accumulates one class's events.
type classState struct {
	spec ClassSpec
	objs []*objectiveState

	// Admission/completion totals (cumulative, for the snapshot).
	offered, admitted, rejected, completed int64

	// completions[k] counts completions bucketed into pending tick k.
	completions map[int64]int64
	// arrayBad[k][array] attributes bad events (any objective) to the
	// array that served them, for top-contributor ranking.  Rejections
	// carry array -1 and stay unattributed.
	arrayBad map[int64]map[int]int64
}

// objectiveState is one objective's tick ring and alert state.
type objectiveState struct {
	spec Objective

	// good/bad[k] count events in pending tick k (map: ticks are
	// evaluated and deleted in order, so the map stays small — at most
	// a few open ticks plus the sliding window kept in rings below).
	good, bad map[int64]int64

	// ring of evaluated ticks, slowTicks long: ringGood[k%slowTicks]
	// holds tick k's counts once evaluated.
	ringGood, ringBad []int64
	ringTick          []int64 // which tick the slot holds, -1 if empty

	// Cumulative totals for budget accounting.
	cumGood, cumBad int64

	firing bool
}

// NewEngine validates the spec, applies defaults and builds an engine.
func NewEngine(spec Spec) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	e := &Engine{
		spec:      spec,
		interval:  spec.EvalInterval,
		fastTicks: int(spec.FastWindow / spec.EvalInterval),
		slowTicks: int(spec.SlowWindow / spec.EvalInterval),
	}
	for _, c := range spec.Classes {
		cs := &classState{
			spec:        c,
			completions: make(map[int64]int64),
			arrayBad:    make(map[int64]map[int]int64),
		}
		for _, o := range c.Objectives {
			os := &objectiveState{
				spec:     o,
				good:     make(map[int64]int64),
				bad:      make(map[int64]int64),
				ringGood: make([]int64, e.slowTicks),
				ringBad:  make([]int64, e.slowTicks),
				ringTick: make([]int64, e.slowTicks),
			}
			for i := range os.ringTick {
				os.ringTick[i] = -1
			}
			cs.objs = append(cs.objs, os)
		}
		e.classes = append(e.classes, cs)
	}
	return e, nil
}

// Classify attributes an arrival; see Spec.Classify.
func (e *Engine) Classify(at simtime.Time, client uint64) int {
	return e.spec.Classify(at, client)
}

func (e *Engine) tickOf(at simtime.Time) int64 {
	return int64(at) / int64(e.interval)
}

// ObserveAdmission records an admitted arrival for class (index from
// Classify; -1 is counted as unmatched).
func (e *Engine) ObserveAdmission(class int, at simtime.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if class < 0 || class >= len(e.classes) {
		e.unmatched++
		return
	}
	c := e.classes[class]
	c.offered++
	c.admitted++
	k := e.tickOf(at)
	for _, o := range c.objs {
		if o.spec.Kind == KindAvailability {
			o.good[k]++
		}
	}
}

// ObserveRejection records an admission-control rejection: a bad
// availability event, unattributed to any array.
func (e *Engine) ObserveRejection(class int, at simtime.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if class < 0 || class >= len(e.classes) {
		e.unmatched++
		return
	}
	c := e.classes[class]
	c.offered++
	c.rejected++
	k := e.tickOf(at)
	for _, o := range c.objs {
		if o.spec.Kind == KindAvailability {
			o.bad[k]++
		}
	}
}

// ObserveCompletion records a finished request: the response time is
// judged against every latency objective of the class, and the serving
// array is charged for any bad outcome.  Bucketing is by finish time.
func (e *Engine) ObserveCompletion(class, array int, finish simtime.Time, response simtime.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if class < 0 || class >= len(e.classes) {
		e.unmatched++
		return
	}
	c := e.classes[class]
	c.completed++
	k := e.tickOf(finish)
	c.completions[k]++
	for _, o := range c.objs {
		if o.spec.Kind != KindLatency {
			continue
		}
		if response <= o.spec.ThresholdNs {
			o.good[k]++
		} else {
			o.bad[k]++
			m := c.arrayBad[k]
			if m == nil {
				m = make(map[int]int64)
				c.arrayBad[k] = m
			}
			m[array]++
		}
	}
}

// Advance evaluates every eval-interval tick that closes at or before
// now.  Called at window barriers; now never goes backwards.
func (e *Engine) Advance(now simtime.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Tick k closes at (k+1)*interval.
	for (e.nextTick+1)*int64(e.interval) <= int64(now) {
		e.evalTick(e.nextTick)
		e.nextTick++
	}
}

// Finish seals the stream at end: every tick closed by end is
// evaluated, and a trailing partial tick still holding events is
// evaluated too, so a run that ends mid-tick settles its alerts.  The
// result depends only on end and the event stream, both of which are
// worker-count invariant.
func (e *Engine) Finish(end simtime.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for (e.nextTick+1)*int64(e.interval) <= int64(end) {
		e.evalTick(e.nextTick)
		e.nextTick++
	}
	last := int64(-1)
	for _, c := range e.classes {
		for _, o := range c.objs {
			for k := range o.good {
				if k > last {
					last = k
				}
			}
			for k := range o.bad {
				if k > last {
					last = k
				}
			}
		}
	}
	for e.nextTick <= last {
		e.evalTick(e.nextTick)
		e.nextTick++
	}
}

// burn computes the burn rate over the last n evaluated ticks ending
// at tick k: (bad fraction) / (error budget fraction).  An empty
// window burns nothing.  The division chain is two int-ratio floats —
// no fused multiply-add opportunity, so the result is bit-stable
// across architectures and the JSONL goldens can demand byte identity.
func (o *objectiveState) burn(k int64, n int) float64 {
	var good, bad int64
	for t := k - int64(n) + 1; t <= k; t++ {
		if t < 0 {
			continue
		}
		slot := int(t % int64(len(o.ringTick)))
		if o.ringTick[slot] == t {
			good += o.ringGood[slot]
			bad += o.ringBad[slot]
		}
	}
	if good+bad == 0 {
		return 0
	}
	frac := float64(bad) / float64(good+bad)
	return frac / (1 - o.spec.Target)
}

// windowBad sums a class's attributed badness per array over the last
// n ticks ending at k.
func (c *classState) windowBad(k int64, n int) map[int]int64 {
	out := make(map[int]int64)
	for t := k - int64(n) + 1; t <= k; t++ {
		for arr, v := range c.arrayBad[t] {
			out[arr] += v
		}
	}
	return out
}

// budgetRemaining reports the fraction of cumulative error budget
// left: 1 - cumBad / ((cumGood+cumBad) * (1-target)).  Clamped at 0;
// again pure int-ratio arithmetic for bit stability.
func (o *objectiveState) budgetRemaining() float64 {
	total := o.cumGood + o.cumBad
	if total == 0 {
		return 1
	}
	frac := float64(o.cumBad) / float64(total)
	used := frac / (1 - o.spec.Target)
	if used >= 1 {
		return 0
	}
	return 1 - used
}

// evalTick seals tick k into every ring and runs the alert rules.
// Alert emission order is fixed — class spec order, then objective
// spec order — so the stream is deterministic.
func (e *Engine) evalTick(k int64) {
	end := simtime.Time((k + 1) * int64(e.interval))
	for _, c := range e.classes {
		for _, o := range c.objs {
			slot := int(k % int64(e.slowTicks))
			g, b := o.good[k], o.bad[k]
			o.ringGood[slot], o.ringBad[slot], o.ringTick[slot] = g, b, k
			o.cumGood += g
			o.cumBad += b
			delete(o.good, k)
			delete(o.bad, k)

			switch o.spec.Kind {
			case KindLatency, KindAvailability:
				fast := o.burn(k, e.fastTicks)
				slow := o.burn(k, e.slowTicks)
				if !o.firing && fast >= e.spec.BurnThreshold && slow >= e.spec.BurnThreshold {
					o.firing = true
					e.emit(end, c, o, EventFire, fast, slow)
				} else if o.firing && fast < e.spec.BurnThreshold {
					o.firing = false
					e.emit(end, c, o, EventResolve, fast, slow)
				}
			case KindEfficiency:
				e.evalEfficiency(end, k, c, o)
			}
		}
		// Attribution older than the slow window can never be cited
		// again; drop it so long runs stay bounded.
		delete(c.arrayBad, k-int64(e.slowTicks))
		delete(c.completions, k-int64(e.slowTicks))
	}
}

// evalEfficiency fires when the class's fast-window IOPS/Watt drops
// below the floor while the class has traffic, and resolves when it
// recovers (or goes idle).  Power is wall-fleet watts from the meter
// callback; a nil callback disables the objective.
func (e *Engine) evalEfficiency(end simtime.Time, k int64, c *classState, o *objectiveState) {
	if e.Power == nil {
		return
	}
	var done int64
	for t := k - int64(e.fastTicks) + 1; t <= k; t++ {
		done += c.completions[t]
	}
	span := simtime.Duration(int64(e.fastTicks) * int64(e.interval))
	start := end.Add(-span)
	if start < 0 {
		start = 0
		span = simtime.Duration(end)
	}
	watts := e.Power(start, end)
	if watts <= 0 || span <= 0 {
		return
	}
	iops := float64(done) / span.Seconds()
	perWatt := iops / watts
	// Burn fields are reused to carry the measured ratio vs the floor.
	if !o.firing && done > 0 && perWatt < o.spec.FloorIOPSPerWatt {
		o.firing = true
		e.emit(end, c, o, EventFire, perWatt, o.spec.FloorIOPSPerWatt)
	} else if o.firing && (done == 0 || perWatt >= o.spec.FloorIOPSPerWatt) {
		o.firing = false
		e.emit(end, c, o, EventResolve, perWatt, o.spec.FloorIOPSPerWatt)
	}
}

// emit appends a fire/resolve alert with the top-3 contributing
// arrays over the fast window (sorted by badness desc, index asc —
// total order, so ties cannot reorder across runs).
func (e *Engine) emit(at simtime.Time, c *classState, o *objectiveState, event string, fast, slow float64) {
	bad := c.windowBad(e.tickOf(at)-1, e.fastTicks)
	type ab struct {
		arr int
		n   int64
	}
	var ranked []ab
	for arr, n := range bad {
		if arr >= 0 {
			ranked = append(ranked, ab{arr, n})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].arr < ranked[j].arr
	})
	if len(ranked) > 3 {
		ranked = ranked[:3]
	}
	var top []ArrayBadness
	for _, r := range ranked {
		top = append(top, ArrayBadness{Array: r.arr, Bad: r.n})
	}
	e.seq++
	e.alerts = append(e.alerts, Alert{
		Seq:             e.seq,
		At:              at,
		Event:           event,
		Class:           c.spec.Name,
		Objective:       o.spec.Name,
		Kind:            o.spec.Kind,
		FastBurn:        fast,
		SlowBurn:        slow,
		BudgetRemaining: o.budgetRemaining(),
		TopArrays:       top,
	})
}

// Alerts returns the alert stream so far (shared slice; callers must
// not mutate).
func (e *Engine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.alerts
}

// Snapshot types — also the payload of tracerd's /slo endpoint and the
// -watch dashboard.

// ObjectiveStatus is one row of the budget table.
type ObjectiveStatus struct {
	Name            string  `json:"name"`
	Kind            string  `json:"kind"`
	Target          float64 `json:"target,omitempty"`
	Good            int64   `json:"good"`
	Bad             int64   `json:"bad"`
	FastBurn        float64 `json:"fast_burn"`
	SlowBurn        float64 `json:"slow_burn"`
	BudgetRemaining float64 `json:"budget_remaining"`
	Firing          bool    `json:"firing"`
}

// ClassStatus is one class's row group.
type ClassStatus struct {
	Name       string            `json:"name"`
	Offered    int64             `json:"offered"`
	Admitted   int64             `json:"admitted"`
	Rejected   int64             `json:"rejected"`
	Completed  int64             `json:"completed"`
	Objectives []ObjectiveStatus `json:"objectives"`
}

// Status is the full snapshot.
type Status struct {
	Spec          string           `json:"spec"`
	Now           simtime.Time     `json:"now_ns"`
	EvaluatedTick int64            `json:"evaluated_ticks"`
	BurnThreshold float64          `json:"burn_threshold"`
	FastWindow    simtime.Duration `json:"fast_window_ns"`
	SlowWindow    simtime.Duration `json:"slow_window_ns"`
	Unmatched     int64            `json:"unmatched"`
	Alerts        int              `json:"alerts"`
	Firing        int              `json:"firing"`
	Classes       []ClassStatus    `json:"classes"`
}

// Snapshot renders the current budget table.  Safe to call from other
// goroutines while the sim feeds the engine.
func (e *Engine) Snapshot() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	last := e.nextTick - 1
	st := Status{
		Spec:          e.spec.Name,
		Now:           simtime.Time(e.nextTick * int64(e.interval)),
		EvaluatedTick: e.nextTick,
		BurnThreshold: e.spec.BurnThreshold,
		FastWindow:    e.spec.FastWindow,
		SlowWindow:    e.spec.SlowWindow,
		Unmatched:     e.unmatched,
		Alerts:        len(e.alerts),
	}
	for _, c := range e.classes {
		cs := ClassStatus{
			Name:      c.spec.Name,
			Offered:   c.offered,
			Admitted:  c.admitted,
			Rejected:  c.rejected,
			Completed: c.completed,
		}
		for _, o := range c.objs {
			os := ObjectiveStatus{
				Name:            o.spec.Name,
				Kind:            o.spec.Kind,
				Target:          o.spec.Target,
				Good:            o.cumGood,
				Bad:             o.cumBad,
				BudgetRemaining: o.budgetRemaining(),
				Firing:          o.firing,
			}
			if last >= 0 {
				os.FastBurn = o.burn(last, e.fastTicks)
				os.SlowBurn = o.burn(last, e.slowTicks)
			}
			if o.firing {
				st.Firing++
			}
			cs.Objectives = append(cs.Objectives, os)
		}
		st.Classes = append(st.Classes, cs)
	}
	return st
}

// ClassNames lists the spec's class names in order.
func (e *Engine) ClassNames() []string {
	names := make([]string, len(e.spec.Classes))
	for i, c := range e.spec.Classes {
		names[i] = c.Name
	}
	return names
}

// String summarises the engine configuration.
func (e *Engine) String() string {
	return fmt.Sprintf("slo(%s: %d classes, fast %v, slow %v, thr %.1f)",
		e.spec.Name, len(e.classes), e.spec.FastWindow, e.spec.SlowWindow, e.spec.BurnThreshold)
}
