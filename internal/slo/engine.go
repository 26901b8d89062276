package slo

import (
	"fmt"
	"slices"
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
// One goroutine feeds the engine: Observe*, Advance and Finish.  The
// Observe* calls count into state only that goroutine touches — the
// per-tick rows and each class's pending totals — and take no lock.
// Advance and Finish take the mutex once, fold the pending totals into
// the published ones and evaluate the closed ticks.  Snapshot, Alerts
// and WriteAlerts may run on any goroutine (the watch dashboard, HTTP
// handlers) and read only published state, so they see the engine as
// of the last Advance or Finish.
//
// Per-tick storage is one row per tick that holds an event and that an
// evaluation can still read: every tick not yet evaluated, and at most
// fastTicks−1 evaluated ones, whose completions and bad-event
// attribution the fast window still sums.  An idle gap holds no row,
// however many ticks it spans.
type Engine struct {
	mu   sync.Mutex
	spec Spec

	interval  simtime.Duration
	fastTicks int // fast window length in ticks
	slowTicks int // slow window length in ticks

	classes []*classState

	// Power reports mean fleet watts over [start, end) of sim time;
	// nil disables efficiency objectives.  Set before the run starts.
	Power func(start, end simtime.Time) float64

	// Published state, written under mu by Advance and Finish.

	// next tick index to evaluate; tick k covers
	// [k*interval, (k+1)*interval).
	nextTick  int64
	unmatched int64 // events attributed to no class
	alerts    []Alert
	seq       int // alert sequence number, for stable drill-down keys

	// Feeder state, touched without the lock.

	pendUnmatched int64
	// rows[head:] are the live tick rows in ascending tick order; the
	// rows below head and past len are recycled buffers.  hot is the
	// row the last event counted into.
	rows      []tickRow
	head, hot int
	// width counts a row's counters, of which the first goodBad are the
	// objectives' good and bad counts.
	width, goodBad int
}

// tickRow counts one tick's events: n holds a good and a bad counter
// per objective (at objectiveState.good and the index after it) and a
// completion counter per class with an efficiency objective
// (classState.completions), and bad lists the tick's bad latency
// events by class and serving array.
type tickRow struct {
	tick int64
	n    []int64
	bad  []arrayBad
}

// arrayBad charges n bad events of a class to the array that served
// them.  Consecutive charges to one class and array share an entry.
type arrayBad struct {
	class, array int
	n            int64
}

// charge records one bad event of class served by array.
func (r *tickRow) charge(class, array int) {
	if n := len(r.bad); n > 0 && r.bad[n-1].class == class && r.bad[n-1].array == array {
		r.bad[n-1].n++
		return
	}
	r.bad = append(r.bad, arrayBad{class: class, array: array, n: 1})
}

// classCounts are a class's admission and completion totals.
type classCounts struct {
	offered, admitted, rejected, completed int64
}

// classState accumulates one class's events.
type classState struct {
	spec  ClassSpec
	index int
	objs  []*objectiveState
	// avail and lat list the class's availability and latency
	// objectives, the ones Observe* count into.
	avail, lat []*objectiveState
	// completions is the row index of the class's completion counter,
	// or -1 when no efficiency objective reads it.
	completions int

	// Published totals (cumulative, for the snapshot) and the totals
	// observed since the last Advance or Finish.
	total, pending classCounts
}

// objectiveState is one objective's tick ring and alert state.
type objectiveState struct {
	spec Objective
	// good is the row index of the objective's good counter; its bad
	// counter follows it.
	good int

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
	for i, c := range spec.Classes {
		cs := &classState{spec: c, index: i, completions: -1}
		for _, o := range c.Objectives {
			os := &objectiveState{
				spec:     o,
				good:     e.width,
				ringGood: make([]int64, e.slowTicks),
				ringBad:  make([]int64, e.slowTicks),
				ringTick: make([]int64, e.slowTicks),
			}
			e.width += 2
			for i := range os.ringTick {
				os.ringTick[i] = -1
			}
			cs.objs = append(cs.objs, os)
			switch o.Kind {
			case KindAvailability:
				cs.avail = append(cs.avail, os)
			case KindLatency:
				cs.lat = append(cs.lat, os)
			}
		}
		e.classes = append(e.classes, cs)
	}
	e.goodBad = e.width
	for _, cs := range e.classes {
		for _, o := range cs.objs {
			if o.spec.Kind == KindEfficiency && cs.completions < 0 {
				cs.completions = e.width
				e.width++
			}
		}
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

// class returns the state of class, or nil when the index names none.
func (e *Engine) class(class int) *classState {
	if class < 0 || class >= len(e.classes) {
		return nil
	}
	return e.classes[class]
}

// row returns the live row of tick k, opening an empty one in tick
// order when k has none yet.
func (e *Engine) row(k int64) *tickRow {
	if h := e.hot; h >= e.head && h < len(e.rows) && e.rows[h].tick == k {
		return &e.rows[h]
	}
	live := e.rows[e.head:]
	i := e.head + sort.Search(len(live), func(i int) bool { return live[i].tick >= k })
	if i == len(e.rows) || e.rows[i].tick != k {
		i = e.open(i, k)
	}
	e.hot = i
	return &e.rows[i]
}

// open inserts an empty row for tick k before live row i, reusing a
// recycled buffer, and returns its index.
func (e *Engine) open(i int, k int64) int {
	if len(e.rows) == cap(e.rows) && e.head > 0 {
		// Swap the live rows down, so the dropped ones' buffers follow
		// them.
		n := len(e.rows) - e.head
		for j := range n {
			e.rows[j], e.rows[e.head+j] = e.rows[e.head+j], e.rows[j]
		}
		e.rows, i, e.head = e.rows[:n], i-e.head, 0
	}
	n := len(e.rows)
	if n == cap(e.rows) {
		e.rows = append(e.rows, tickRow{})
	} else {
		e.rows = e.rows[:n+1]
	}
	r := e.rows[n]
	copy(e.rows[i+1:], e.rows[i:n])
	r.tick, r.bad = k, r.bad[:0]
	if r.n == nil {
		r.n = make([]int64, e.width)
	} else {
		clear(r.n)
	}
	e.rows[i] = r
	return i
}

// ObserveAdmission records an admitted arrival for class (index from
// Classify; -1 is counted as unmatched).
func (e *Engine) ObserveAdmission(class int, at simtime.Time) {
	c := e.class(class)
	if c == nil {
		e.pendUnmatched++
		return
	}
	c.pending.offered++
	c.pending.admitted++
	// A tick already evaluated never reads its good or bad counts again.
	if k := e.tickOf(at); len(c.avail) > 0 && k >= e.nextTick {
		r := e.row(k)
		for _, o := range c.avail {
			r.n[o.good]++
		}
	}
}

// ObserveRejection records an admission-control rejection: a bad
// availability event, unattributed to any array.
func (e *Engine) ObserveRejection(class int, at simtime.Time) {
	c := e.class(class)
	if c == nil {
		e.pendUnmatched++
		return
	}
	c.pending.offered++
	c.pending.rejected++
	if k := e.tickOf(at); len(c.avail) > 0 && k >= e.nextTick {
		r := e.row(k)
		for _, o := range c.avail {
			r.n[o.good+1]++
		}
	}
}

// ObserveCompletion records a finished request: the response time is
// judged against every latency objective of the class, and the serving
// array is charged for any bad outcome.  Bucketing is by finish time.
// A completion in a tick already evaluated still counts toward the
// fast windows that include that tick: the efficiency objectives'
// IOPS and the arrays an alert names.  Its good or bad count is never
// read again.
func (e *Engine) ObserveCompletion(class, array int, finish simtime.Time, response simtime.Duration) {
	c := e.class(class)
	if c == nil {
		e.pendUnmatched++
		return
	}
	c.pending.completed++
	if k := e.tickOf(finish); (c.completions >= 0 || len(c.lat) > 0) && k > e.nextTick-int64(e.fastTicks) {
		r := e.row(k)
		if c.completions >= 0 {
			r.n[c.completions]++
		}
		for _, o := range c.lat {
			if response <= o.spec.ThresholdNs {
				r.n[o.good]++
			} else {
				r.n[o.good+1]++
				r.charge(c.index, array)
			}
		}
	}
}

// publish folds the totals observed since the last call into the
// published ones.  Called under mu.
func (e *Engine) publish() {
	e.unmatched += e.pendUnmatched
	e.pendUnmatched = 0
	for _, c := range e.classes {
		c.total.offered += c.pending.offered
		c.total.admitted += c.pending.admitted
		c.total.rejected += c.pending.rejected
		c.total.completed += c.pending.completed
		c.pending = classCounts{}
	}
}

// Advance evaluates every eval-interval tick that closes at or before
// now.  Called at window barriers; now never goes backwards.
func (e *Engine) Advance(now simtime.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.publish()
	e.evalThrough(now)
}

// evalThrough evaluates every tick that closes at or before now: tick
// k closes at (k+1)*interval, so those before now/interval.
func (e *Engine) evalThrough(now simtime.Time) {
	for e.nextTick < e.tickOf(now) {
		e.evalTick(e.nextTick)
		e.nextTick++
	}
}

// Finish seals the stream at end: every tick closed by end is
// evaluated, and a trailing partial tick still holding events is
// evaluated too, so a run that ends mid-tick settles its alerts: every
// tick through the latest one holding a good or bad count.  The result
// depends only on end and the event stream, both of which are
// worker-count invariant.
func (e *Engine) Finish(end simtime.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.publish()
	e.evalThrough(end)
	last := int64(-1)
	for i := len(e.rows) - 1; i >= e.head && e.rows[i].tick >= e.nextTick; i-- {
		if slices.ContainsFunc(e.rows[i].n[:e.goodBad], func(n int64) bool { return n != 0 }) {
			last = e.rows[i].tick
			break
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

// window returns the live rows of the last n ticks ending at k.
func (e *Engine) window(k int64, n int) []tickRow {
	live := e.rows[e.head:]
	lo := sort.Search(len(live), func(i int) bool { return live[i].tick > k-int64(n) })
	hi := sort.Search(len(live), func(i int) bool { return live[i].tick > k })
	return live[lo:max(lo, hi)]
}

// windowBad sums a class's attributed badness per array over the last
// n ticks ending at k.
func (e *Engine) windowBad(c *classState, k int64, n int) map[int]int64 {
	out := make(map[int]int64)
	for _, r := range e.window(k, n) {
		for _, b := range r.bad {
			if b.class == c.index {
				out[b.array] += b.n
			}
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
	var r *tickRow
	if w := e.window(k, 1); len(w) > 0 {
		r = &w[0]
	}
	for _, c := range e.classes {
		for _, o := range c.objs {
			slot := int(k % int64(e.slowTicks))
			var g, b int64
			if r != nil {
				g, b = r.n[o.good], r.n[o.good+1]
			}
			o.ringGood[slot], o.ringBad[slot], o.ringTick[slot] = g, b, k
			o.cumGood += g
			o.cumBad += b

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
	}
	// A later evaluation reads no tick at or before k+1−fastTicks.
	for e.head < len(e.rows) && e.rows[e.head].tick <= k+1-int64(e.fastTicks) {
		e.head++
	}
	if e.head == len(e.rows) {
		e.rows, e.head = e.rows[:0], 0
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
	for _, r := range e.window(k, e.fastTicks) {
		done += r.n[c.completions]
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
	bad := e.windowBad(c, e.tickOf(at)-1, e.fastTicks)
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

// Alerts returns the alert stream as of the last Advance or Finish
// (shared slice; callers must not mutate).
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

// Snapshot renders the budget table as of the last Advance or Finish.
// Safe to call from other goroutines while the sim feeds the engine.
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
			Offered:   c.total.offered,
			Admitted:  c.total.admitted,
			Rejected:  c.total.rejected,
			Completed: c.total.completed,
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
