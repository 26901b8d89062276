// Package simtime provides a deterministic discrete-event simulation
// kernel used by the simulated storage substrate in this repository.
//
// The paper's TRACER replays traces against a physical disk array; this
// reproduction replays against simulated devices instead.  Every device
// model (HDD, SSD, RAID controller, power meter) advances on the virtual
// clock owned by an Engine.  The kernel is intentionally single-threaded:
// events execute in strict timestamp order (ties broken by scheduling
// order), which makes every experiment bit-for-bit reproducible.
//
// The event queue is a value-typed 4-ary min-heap stored in one flat
// slice: no per-event heap object, no container/heap interface boxing,
// and sift-up/sift-down specialised on the (at, seq) key.  Callbacks
// come in two forms:
//
//   - Schedule(at, func()) — the legacy closure form, kept as a thin
//     compatibility wrapper.  Each call typically allocates the closure.
//   - ScheduleEvent(at, Handler, EventArg) — the closure-free form hot
//     device models use.  The handler is a prebound object (usually the
//     device itself) and the argument is a small value struct, so
//     steady-state scheduling performs zero heap allocations.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Time is a point on the virtual clock, in nanoseconds since the start of
// the simulation.  It is deliberately an integer type so that event
// ordering is exact and runs are reproducible.
type Time int64

// Duration is a span of virtual time in nanoseconds.  It mirrors
// time.Duration so the two convert trivially.
type Duration int64

// Common durations, mirroring package time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Seconds reports the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Std converts a virtual duration to a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// FromSeconds converts a floating-point number of seconds to a Duration,
// rounding to the nearest nanosecond.
func FromSeconds(s float64) Duration { return Duration(math.Round(s * float64(Second))) }

// FromStd converts a time.Duration to a virtual Duration.
func FromStd(d time.Duration) Duration { return Duration(d) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

func (d Duration) String() string { return d.Std().String() }

// Handler is a prebound event callback.  Device models implement it on
// their pointer receiver and pass themselves to ScheduleEvent, so no
// closure is created per scheduled event.  OnEvent runs with the engine
// clock already advanced to the event's timestamp.
type Handler interface {
	OnEvent(e *Engine, arg EventArg)
}

// EventArg is the per-event payload of the closure-free scheduling path.
// It is a small value struct so it rides inside the heap slot:
//
//   - Kind discriminates event types when one handler serves several
//     (spin-up complete vs. service complete, say).
//   - I64 carries a scalar payload such as an index.
//   - Ptr carries a reference payload.  To keep the path allocation-free
//     it must hold a pointer-shaped value (*T, func, map, chan); boxing
//     a plain int or struct into it allocates.
type EventArg struct {
	Kind int32
	I64  int64
	Ptr  any
}

// event is one scheduled callback, stored by value in the heap slice.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	h   Handler
	arg EventArg
}

// eventLess orders events by (at, seq).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// funcEvent adapts the legacy closure API onto the handler path.  A
// func value is pointer-shaped, so storing it in EventArg.Ptr does not
// allocate beyond the closure the caller already created.
type funcEvent struct{}

func (funcEvent) OnEvent(_ *Engine, arg EventArg) { arg.Ptr.(func())() }

// Engine is a discrete-event simulation executive.  The zero value is
// ready to use; Schedule events and call Run.
type Engine struct {
	now     Time
	seq     uint64
	heap    []event // 4-ary min-heap on (at, seq)
	fired   uint64  // events executed so far
	maxHeap int     // heap-depth high water
}

// NewEngine returns an Engine with its clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events not yet executed.
func (e *Engine) Pending() int { return len(e.heap) }

// Fired reports the number of events executed since the engine was
// created — the kernel's basic progress metric for telemetry.
func (e *Engine) Fired() uint64 { return e.fired }

// MaxHeapDepth reports the high-water mark of pending events, the
// kernel-side signal of scheduling pressure.
func (e *Engine) MaxHeapDepth() int { return e.maxHeap }

// Grow reserves heap capacity for at least n additional pending events.
// Bulk schedulers (trace replay) call it once up front so the steady
// state never pays an append growth.
func (e *Engine) Grow(n int) {
	if n <= 0 {
		return
	}
	if free := cap(e.heap) - len(e.heap); free < n {
		grown := make([]event, len(e.heap), len(e.heap)+n)
		copy(grown, e.heap)
		e.heap = grown
	}
}

// ScheduleEvent registers h to run at virtual time at with the given
// argument.  This is the closure-free path: the event lives by value in
// the heap slice, so scheduling allocates nothing once the slice has
// warmed up.  Scheduling in the past (at < Now) panics: it indicates a
// bug in a device model, and a silently reordered event would corrupt
// every downstream measurement.
func (e *Engine) ScheduleEvent(at Time, h Handler, arg EventArg) {
	if at < e.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.heap = append(e.heap, event{at: at, seq: e.seq, h: h, arg: arg})
	if len(e.heap) > e.maxHeap {
		e.maxHeap = len(e.heap)
	}
	e.siftUp(len(e.heap) - 1)
}

// AfterEvent registers h to run d after the current virtual time.
func (e *Engine) AfterEvent(d Duration, h Handler, arg EventArg) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d))
	}
	e.ScheduleEvent(e.now.Add(d), h, arg)
}

// Schedule registers fn to run at virtual time at.  It is the legacy
// closure form, kept as a compatibility wrapper over ScheduleEvent; hot
// paths should prebind a Handler instead.
func (e *Engine) Schedule(at Time, fn func()) {
	e.ScheduleEvent(at, funcEvent{}, EventArg{Ptr: fn})
}

// After registers fn to run d after the current virtual time.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d))
	}
	e.Schedule(e.now.Add(d), fn)
}

// siftUp restores the heap invariant after appending at index i, moving
// the hole up instead of swapping.  An event scheduled for an already-
// pending timestamp carries the largest seq, so ties never move and
// FIFO order is preserved.
func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// siftDown restores the heap invariant from the root after a pop.
func (e *Engine) siftDown() {
	h := e.heap
	n := len(h)
	ev := h[0]
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for k := first + 1; k < last; k++ {
			if eventLess(&h[k], &h[min]) {
				min = k
			}
		}
		if !eventLess(&h[min], &ev) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ev
}

// pop removes and returns the earliest pending event.  The caller
// guarantees the heap is non-empty.
func (e *Engine) pop() event {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release Handler/Ptr references
	e.heap = h[:n]
	if n > 1 {
		e.siftDown()
	}
	return root
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp.  It reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.fired++
	ev.h.OnEvent(e, ev.arg)
	return true
}

// Run executes events in timestamp order until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline.  Events scheduled beyond the deadline remain
// pending.  The head of the queue is re-examined after every step, so an
// event that a deadline-time event schedules at the deadline still runs
// before the clock is pinned — re-entrant scheduling stays deterministic.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// DrainThrough executes events with timestamps <= limit, like RunUntil,
// but leaves the clock at the last fired event instead of pinning it to
// the limit.  That keeps ScheduleEvent legal for any time >= the last
// event fired, which the fleet's window barriers rely on: the
// coordinator may schedule admitted requests exactly at the window
// boundary after the drain.  Events an in-window event schedules inside
// the window still run, exactly as in RunUntil.
func (e *Engine) DrainThrough(limit Time) {
	for len(e.heap) > 0 && e.heap[0].at <= limit {
		e.Step()
	}
}
