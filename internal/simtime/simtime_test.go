package simtime

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestZeroEngineUsable(t *testing.T) {
	var e Engine
	ran := false
	e.ScheduleEvent(5, handlerFunc(func(*Engine, EventArg) { ran = true }), EventArg{})
	e.Run()
	if !ran {
		t.Fatal("scheduled event did not run")
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %v, want 5", e.Now())
	}
}

func TestEventsRunInTimestampOrder(t *testing.T) {
	e := NewEngine()
	var order []Time
	times := []Time{50, 10, 30, 20, 40, 10}
	h := handlerFunc(func(_ *Engine, arg EventArg) { order = append(order, Time(arg.I64)) })
	for _, at := range times {
		e.ScheduleEvent(at, h, EventArg{I64: int64(at)})
	}
	e.Run()
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events ran out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Fatalf("ran %d events, want %d", len(order), len(times))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	for i := 0; i < 10; i++ {
		e.ScheduleEvent(100, r, EventArg{I64: int64(i)})
	}
	e.Run()
	for i, v := range r.args {
		if v != int64(i) {
			t.Fatalf("equal-timestamp events not FIFO: %v", r.args)
		}
	}
}

// recorder is a closure-free handler that logs (time, arg) pairs.
type recorder struct {
	times []Time
	args  []int64
}

func (r *recorder) OnEvent(e *Engine, arg EventArg) {
	r.times = append(r.times, e.Now())
	r.args = append(r.args, arg.I64)
}

func TestScheduleEventOrderAndArgs(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	for i, at := range []Time{50, 10, 30, 20, 40, 10} {
		e.ScheduleEvent(at, r, EventArg{I64: int64(i)})
	}
	e.Run()
	wantTimes := []Time{10, 10, 20, 30, 40, 50}
	wantArgs := []int64{1, 5, 3, 2, 4, 0}
	for i := range wantTimes {
		if r.times[i] != wantTimes[i] || r.args[i] != wantArgs[i] {
			t.Fatalf("dispatch %d = (%v, %d), want (%v, %d)", i, r.times[i], r.args[i], wantTimes[i], wantArgs[i])
		}
	}
}

func TestSchedulingFromWithinEvent(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	e.ScheduleEvent(10, handlerFunc(func(e *Engine, arg EventArg) {
		r.OnEvent(e, arg)
		e.AfterEvent(5, r, EventArg{})
	}), EventArg{})
	e.Run()
	want := []Time{10, 15}
	if got := r.times; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleEvent(10, nopHandler{}, EventArg{})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleEvent(5, nopHandler{}, EventArg{})
}

func TestNegativeAfterEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative AfterEvent did not panic")
		}
	}()
	e.AfterEvent(-1, &recorder{}, EventArg{})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	for _, at := range []Time{10, 20, 30, 40} {
		e.ScheduleEvent(at, r, EventArg{})
	}
	e.RunUntil(25)
	if ran := r.times; len(ran) != 2 {
		t.Fatalf("ran %d events by t=25, want 2 (%v)", len(ran), ran)
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if ran := r.times; len(ran) != 4 || e.Now() != 100 {
		t.Fatalf("after final RunUntil: ran=%v now=%v", ran, e.Now())
	}
}

func TestRunUntilDoesNotRewindClock(t *testing.T) {
	e := NewEngine()
	e.ScheduleEvent(50, nopHandler{}, EventArg{})
	e.Run()
	e.RunUntil(10) // deadline earlier than now: clock must not go back
	if e.Now() != 50 {
		t.Fatalf("clock rewound to %v", e.Now())
	}
}

// Regression: an event scheduled AT the deadline from inside another
// deadline-time event must still run before RunUntil pins the clock.
// A kernel that snapshots the <= deadline set before dispatching (or
// that checks the head only once per pass) would strand the re-entrant
// event for the next RunUntil call and desynchronise open-loop replay.
func TestRunUntilReentrantDeadlineScheduling(t *testing.T) {
	e := NewEngine()
	const deadline = Time(100)
	var ran []string
	e.ScheduleEvent(deadline, handlerFunc(func(e *Engine, _ EventArg) {
		ran = append(ran, "outer")
		e.ScheduleEvent(deadline, handlerFunc(func(e *Engine, _ EventArg) {
			ran = append(ran, "inner")
			e.ScheduleEvent(deadline, handlerFunc(func(*Engine, EventArg) { ran = append(ran, "innermost") }), EventArg{})
		}), EventArg{})
	}), EventArg{})
	e.RunUntil(deadline)
	want := []string{"outer", "inner", "innermost"}
	if len(ran) != len(want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("ran %v, want %v", ran, want)
		}
	}
	if e.Now() != deadline {
		t.Fatalf("Now = %v, want %v", e.Now(), deadline)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// handlerFunc adapts a test closure to Handler.
type handlerFunc func(*Engine, EventArg)

func (f handlerFunc) OnEvent(e *Engine, arg EventArg) { f(e, arg) }

// A series holds one heap slot however long it is, and Pending counts
// that one queued member until the last has fired.
func TestScheduleSeriesPendingCountsOneMember(t *testing.T) {
	e := NewEngine()
	const n = 5
	e.ScheduleSeries(n, func(i int) Time { return Time(10 * i) }, &recorder{})
	for i := 0; i < n; i++ {
		if got := e.Pending(); got != 1 {
			t.Fatalf("before member %d: Pending = %d, want 1", i, got)
		}
		e.Step()
	}
	if e.Pending() != 0 || e.Fired() != n || e.MaxHeapDepth() != 1 {
		t.Fatalf("after the series: pending=%d fired=%d maxheap=%d, want 0, %d, 1",
			e.Pending(), e.Fired(), e.MaxHeapDepth(), n)
	}
	e.ScheduleSeries(0, func(int) Time { panic("empty series read a time") }, &recorder{})
	if e.Pending() != 0 {
		t.Fatalf("empty series left %d pending", e.Pending())
	}
}

func TestScheduleSeriesDecreasingTimePanics(t *testing.T) {
	e := NewEngine()
	times := []Time{10, 20, 15}
	r := &recorder{}
	e.ScheduleSeries(len(times), func(i int) Time { return times[i] }, r)
	defer func() {
		if recover() == nil {
			t.Fatal("a decreasing series time did not panic")
		}
		if len(r.args) != 1 {
			t.Fatalf("ran %d members before the panic, want 1", len(r.args))
		}
	}()
	e.Run()
}

func TestScheduleSeriesInThePastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleEvent(10, nopHandler{}, EventArg{})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("a series starting before now did not panic")
		}
	}()
	e.ScheduleSeries(2, func(i int) Time { return Time(5 + i) }, &recorder{})
}

// Property: for any batch of events with random timestamps, execution
// order is a stable sort by timestamp and the clock never runs backwards.
func TestPropertyClockMonotone(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		e := NewEngine()
		r := &recorder{}
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			e.ScheduleEvent(Time(rng.Int64N(1000)), r, EventArg{})
		}
		e.Run()
		observed := r.times
		if len(observed) != count {
			return false
		}
		for i := 1; i < len(observed); i++ {
			if observed[i] < observed[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleavings of ScheduleEvent/AfterEvent/
// ScheduleSeries/Step drain in exact (at, seq) order, checked against a
// reference stable sort of everything scheduled.  A series enters the
// reference as that many ScheduleEvent calls made at the ScheduleSeries
// call, and some members schedule a same-time event from their own
// handler, so members tie with events scheduled before the series, after
// it and during it.  This pins the heap's tie-breaking, not just
// monotonicity.
func TestPropertyDrainsInAtSeqOrder(t *testing.T) {
	type stamped struct {
		at  Time
		seq int64
	}
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		e := NewEngine()
		r := &recorder{}
		var scheduled []stamped
		var seq int64
		// schedule records one ScheduleEvent in the reference, then makes it.
		schedule := func(at Time) {
			scheduled = append(scheduled, stamped{at: at, seq: seq})
			e.ScheduleEvent(at, r, EventArg{I64: seq})
			seq++
		}
		count := int(n) + 1
		for i := 0; i < count; i++ {
			// Bias toward scheduling; interleave Steps to exercise pops
			// against a part-drained heap.
			switch choice := rng.IntN(8); {
			case choice < 2 && e.Pending() > 0:
				e.Step()
			case choice == 2:
				m := 1 + rng.IntN(8)
				times := make([]Time, m)
				at := e.Now() + Time(rng.Int64N(100))
				for k := range times {
					times[k] = at
					at += Time(rng.IntN(3) * rng.IntN(20)) // ties are common
				}
				base := seq
				for _, at := range times {
					scheduled = append(scheduled, stamped{at: at, seq: seq})
					seq++
				}
				spawn := rng.IntN(2) == 0
				e.ScheduleSeries(m, func(k int) Time { return times[k] }, handlerFunc(func(e *Engine, arg EventArg) {
					r.OnEvent(e, EventArg{I64: base + arg.I64})
					if spawn && arg.I64%2 == 0 {
						schedule(e.Now())
					}
				}))
			default:
				at := e.Now() + Time(rng.Int64N(100))
				if rng.IntN(2) == 0 {
					schedule(at)
				} else {
					scheduled = append(scheduled, stamped{at: at, seq: seq})
					e.AfterEvent(at.Sub(e.Now()), r, EventArg{I64: seq})
					seq++
				}
			}
		}
		e.Run()
		// Reference order: stable sort by at; seq is the insertion order.
		sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].at < scheduled[j].at })
		if len(r.args) != len(scheduled) {
			return false
		}
		for i, want := range scheduled {
			if r.args[i] != want.seq || r.times[i] != want.at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fired is one dispatched event of a differential run: the node it ran
// and its time.
type fired struct {
	id int64
	at Time
}

// schedShape is one random schedule for the differential test.  It
// schedules its roots through sched and returns what an event does
// when it fires, which may schedule more events through sched; now
// reads the kernel's clock.
type schedShape func(sched func(at Time, id int64), now func() Time) (fire func(id int64))

// onEngine runs shape on the production engine through ScheduleEvent.
func onEngine(shape schedShape) ([]fired, Time) {
	e := NewEngine()
	var log []fired
	var fire func(int64)
	h := handlerFunc(func(e *Engine, arg EventArg) {
		log = append(log, fired{arg.I64, e.Now()})
		fire(arg.I64)
	})
	fire = shape(func(at Time, id int64) { e.ScheduleEvent(at, h, EventArg{I64: id}) }, e.Now)
	e.Run()
	return log, e.Now()
}

// onBaseline runs shape on the frozen container/heap kernel.
func onBaseline(shape schedShape) ([]fired, Time) {
	b := NewBaselineEngine()
	var log []fired
	var fire func(int64)
	fire = shape(func(at Time, id int64) {
		b.Schedule(at, func() {
			log = append(log, fired{id, b.Now()})
			fire(id)
		})
	}, b.Now)
	b.Run()
	return log, b.Now()
}

// reentrantChains schedules 500 random roots, each of which schedules a
// successor a random delay later, two levels deep; an event's id is its
// depth.
func reentrantChains(sched func(Time, int64), now func() Time) func(int64) {
	rng := rand.New(rand.NewPCG(11, 13))
	for i := 0; i < 500; i++ {
		sched(Time(rng.Int64N(10_000)), 0)
	}
	return func(depth int64) {
		if depth < 2 {
			sched(now()+Time(rng.Int64N(50)), depth+1)
		}
	}
}

// tieForest builds a seeded forest of n nodes, each firing its parent's
// time plus a delta and then scheduling its children.  Half the deltas
// fall on four hot values, so (at, seq) ties are common.
func tieForest(seed uint64, n int) schedShape {
	rng := rand.New(rand.NewPCG(seed, 0xd1ff))
	delta := make([]Duration, n)
	children := make([][]int64, n)
	var roots []int64
	for i := range delta {
		if rng.IntN(2) == 0 {
			delta[i] = Duration(rng.Int64N(4)) * Millisecond
		} else {
			delta[i] = Duration(rng.Int64N(int64(Second)))
		}
		if i == 0 || rng.IntN(3) == 0 {
			roots = append(roots, int64(i))
		} else {
			parent := rng.IntN(i)
			children[parent] = append(children[parent], int64(i))
		}
	}
	return func(sched func(Time, int64), now func() Time) func(int64) {
		for _, r := range roots {
			sched(Time(delta[r]), r)
		}
		return func(id int64) {
			for _, c := range children[id] {
				sched(now().Add(delta[c]), c)
			}
		}
	}
}

// Differential: the production kernel executes random schedules in
// exactly the order the frozen container/heap baseline does, including
// re-entrant scheduling from inside events and heavy same-time ties.
// This is the kernel-level form of the "experiment outputs are
// byte-identical" guarantee.
func TestEngineMatchesBaseline(t *testing.T) {
	type input struct {
		name   string
		shape  schedShape
		events int
	}
	inputs := []input{{"reentrant-chains", reentrantChains, 1500}}
	for seed := uint64(1); seed <= 12; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("tie-forest-seed-%d", seed), tieForest(seed, 400), 400})
	}
	for _, in := range inputs {
		got, gotEnd := onEngine(in.shape)
		want, wantEnd := onBaseline(in.shape)
		if len(got) != in.events || len(want) != in.events {
			t.Fatalf("%s: engine fired %d events, baseline %d, want %d", in.name, len(got), len(want), in.events)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: dispatch %d is node %d at %v, baseline node %d at %v",
					in.name, i, got[i].id, got[i].at, want[i].id, want[i].at)
			}
		}
		if gotEnd != wantEnd {
			t.Fatalf("%s: final clocks diverge: %v vs %v", in.name, gotEnd, wantEnd)
		}
	}
}

// ScheduleEvent must not allocate once the heap slice has grown to its
// working size.
func TestScheduleEventSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	arg := EventArg{I64: 1}
	// Warm up the heap slice and the recorder's slices.
	for i := 0; i < 1024; i++ {
		e.ScheduleEvent(Time(i), r, arg)
	}
	e.Run()
	r.times, r.args = r.times[:0], r.args[:0]
	at := e.Now()
	allocs := testing.AllocsPerRun(512, func() {
		at++
		e.ScheduleEvent(at, r, arg)
		e.Step()
		r.times, r.args = r.times[:0], r.args[:0]
	})
	if allocs != 0 {
		t.Fatalf("steady-state ScheduleEvent+Step allocates %v per op, want 0", allocs)
	}
}

// TestFiredAndMaxHeapDepth pins the kernel introspection counters the
// telemetry layer samples: Fired counts dispatched events, and
// MaxHeapDepth records the pending-heap high-water mark.
func TestFiredAndMaxHeapDepth(t *testing.T) {
	e := NewEngine()
	if e.Fired() != 0 || e.MaxHeapDepth() != 0 {
		t.Fatalf("fresh engine: fired=%d maxheap=%d", e.Fired(), e.MaxHeapDepth())
	}
	const n = 10
	for i := 0; i < n; i++ {
		e.ScheduleEvent(Time(i+1), nopHandler{}, EventArg{})
	}
	if got := e.MaxHeapDepth(); got != n {
		t.Fatalf("max heap depth = %d before running, want %d", got, n)
	}
	e.Run()
	if got := e.Fired(); got != n {
		t.Fatalf("fired = %d, want %d", got, n)
	}
	// The high-water mark survives the drain.
	if got := e.MaxHeapDepth(); got != n {
		t.Fatalf("max heap depth = %d after drain, want %d", got, n)
	}
	// One more event: fired keeps counting, the watermark holds.
	e.ScheduleEvent(Time(n+1), nopHandler{}, EventArg{})
	e.Run()
	if e.Fired() != n+1 || e.MaxHeapDepth() != n {
		t.Fatalf("fired=%d maxheap=%d after extra event", e.Fired(), e.MaxHeapDepth())
	}
}

func TestDurationConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatalf("Seconds() = %v", (2 * Second).Seconds())
	}
	if FromStd(3*time.Millisecond) != 3*Millisecond {
		t.Fatal("FromStd mismatch")
	}
	if (5 * Millisecond).Std() != 5*time.Millisecond {
		t.Fatal("Std mismatch")
	}
	if Time(1500000000).Seconds() != 1.5 {
		t.Fatal("Time.Seconds mismatch")
	}
	if Time(10).Add(5) != 15 || Time(10).Sub(4) != 6 {
		t.Fatal("Add/Sub mismatch")
	}
}

// nopHandler is a callback that does nothing.
type nopHandler struct{}

func (nopHandler) OnEvent(*Engine, EventArg) {}

// BenchmarkEngineScheduleRun schedules and drains 1000 randomly-timed
// events per iteration.  Sub-benchmarks compare the frozen
// container/heap baseline with the production kernel's handler path,
// which must report 0 allocs/op once the engine is reused across
// iterations.
func BenchmarkEngineScheduleRun(b *testing.B) {
	const events = 1000
	reportRate := func(b *testing.B) {
		b.ReportMetric(float64(events*b.N)/b.Elapsed().Seconds(), "events/sec")
	}

	b.Run("baseline-container-heap", func(b *testing.B) {
		rng := rand.New(rand.NewPCG(1, 2))
		e := NewBaselineEngine()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < events; j++ {
				e.Schedule(e.Now()+Time(rng.Int64N(1_000_000)), func() {})
			}
			e.Run()
		}
		reportRate(b)
	})

	b.Run("closure-free", func(b *testing.B) {
		rng := rand.New(rand.NewPCG(1, 2))
		e := NewEngine()
		var h nopHandler
		for j := 0; j < events; j++ { // grow the heap slice before timing
			e.ScheduleEvent(Time(j), h, EventArg{})
		}
		e.Run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < events; j++ {
				e.ScheduleEvent(e.Now()+Time(rng.Int64N(1_000_000)), h, EventArg{})
			}
			e.Run()
		}
		reportRate(b)
	})
}
