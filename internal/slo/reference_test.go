package slo

import (
	"sort"
	"sync"

	"repro/internal/simtime"
)

// refEngine is Engine as it was while every Observe* call took the
// mutex and counted into per-tick maps.  The differential tests hold
// Engine to it: fed the same calls, both must write the same alerts
// and snapshots.
type refEngine struct {
	mu   sync.Mutex
	spec Spec

	interval  simtime.Duration
	fastTicks int // fast window length in ticks
	slowTicks int // slow window length in ticks

	// next tick index to evaluate; tick k covers
	// [k*interval, (k+1)*interval).
	nextTick int64

	classes []*refClassState

	// Power reports mean fleet watts over [start, end) of sim time;
	// nil disables efficiency objectives.  Set before the run starts.
	Power func(start, end simtime.Time) float64

	unmatched int64 // events attributed to no class

	alerts []Alert
	seq    int // alert sequence number, for stable drill-down keys
}

// refClassState accumulates one class's events.
type refClassState struct {
	spec ClassSpec
	objs []*refObjectiveState

	// Admission/completion totals (cumulative, for the snapshot).
	offered, admitted, rejected, completed int64

	// completions[k] counts completions bucketed into pending tick k.
	completions map[int64]int64
	// arrayBad[k][array] attributes bad events (any objective) to the
	// array that served them, for top-contributor ranking.  Rejections
	// carry array -1 and stay unattributed.
	arrayBad map[int64]map[int]int64
}

// refObjectiveState is one objective's tick ring and alert state.
type refObjectiveState struct {
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

func newRefEngine(spec Spec) (*refEngine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	e := &refEngine{
		spec:      spec,
		interval:  spec.EvalInterval,
		fastTicks: int(spec.FastWindow / spec.EvalInterval),
		slowTicks: int(spec.SlowWindow / spec.EvalInterval),
	}
	for _, c := range spec.Classes {
		cs := &refClassState{
			spec:        c,
			completions: make(map[int64]int64),
			arrayBad:    make(map[int64]map[int]int64),
		}
		for _, o := range c.Objectives {
			os := &refObjectiveState{
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

func (e *refEngine) tickOf(at simtime.Time) int64 {
	return int64(at) / int64(e.interval)
}

// ObserveAdmission records an admitted arrival for class (index from
// Classify; -1 is counted as unmatched).
func (e *refEngine) ObserveAdmission(class int, at simtime.Time) {
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
func (e *refEngine) ObserveRejection(class int, at simtime.Time) {
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
func (e *refEngine) ObserveCompletion(class, array int, finish simtime.Time, response simtime.Duration) {
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
func (e *refEngine) Advance(now simtime.Time) {
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
func (e *refEngine) Finish(end simtime.Time) {
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
func (o *refObjectiveState) burn(k int64, n int) float64 {
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
func (c *refClassState) windowBad(k int64, n int) map[int]int64 {
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
func (o *refObjectiveState) budgetRemaining() float64 {
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
func (e *refEngine) evalTick(k int64) {
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
func (e *refEngine) evalEfficiency(end simtime.Time, k int64, c *refClassState, o *refObjectiveState) {
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
func (e *refEngine) emit(at simtime.Time, c *refClassState, o *refObjectiveState, event string, fast, slow float64) {
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

// Snapshot renders the current budget table.  Safe to call from other
// goroutines while the sim feeds the engine.
func (e *refEngine) Snapshot() Status {
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
