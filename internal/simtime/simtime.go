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
// The event queue is a 4-ary min-heap of pointer-free 24-byte keys
// {at, seq, slot} in one flat slice, sifted on the (at, seq) pair.  A
// key's slot indexes a slab of 32-byte {Handler, EventArg} payloads
// that recycle through a LIFO free list, so sift moves copy no pointer
// and take no write barrier, and the collector never scans the heap.
// Callbacks are scheduled in three forms, none of which takes a
// closure:
//
//   - ScheduleEvent(at, Handler, EventArg) — one event; AfterEvent
//     takes a delay from Now instead.  The handler is a prebound object
//     (usually the device itself) and the argument is a small value
//     struct, so steady-state scheduling performs zero heap
//     allocations.
//   - ScheduleSeries(n, at, Handler) — n time-ordered events for one
//     handler (a trace's bunches) that occupy a single heap slot.
//   - NewTimer(Handler, EventArg) — a re-armable deadline (an idle
//     timeout every request pushes back).  A timer whose deadline only
//     moves later holds one heap slot, and its handler never runs for a
//     superseded deadline.
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

// Horizon is the latest time an input may place an arrival: 1<<62 ns,
// about 146 years.  It leaves as much again before MaxTime, far more
// than any device delay, so a completion scheduled from an arrival
// never wraps int64.  Replay and the fleet reject later arrivals.
const Horizon = Time(1 << 62)

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

// EventArg is the per-event payload, a 16-byte value with no pointers:
//
//   - Kind discriminates event types when one handler serves several
//     (spin-up complete vs. service complete, say).
//   - I64 carries a scalar payload such as an index.
//
// A reference payload rides as the handler instead: schedule the event
// on the referenced object (a *T implementing Handler), which converts
// to the interface without allocating.
type EventArg struct {
	Kind int32
	I64  int64
}

// key is one heap entry: an event's (at, seq) order and the slab slot
// of what it runs.  It holds no pointer, so moving keys during a sift
// takes no write barrier.
type key struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	slot uint32 // index into Engine.slab
}

// keyLess orders keys by (at, seq).
func keyLess(a, b *key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// payload is what one event runs.
type payload struct {
	h   Handler
	arg EventArg
}

// Engine is a discrete-event simulation executive.  The zero value is
// ready to use; schedule events and call Run.
type Engine struct {
	now     Time
	seq     uint64
	heap    []key     // 4-ary min-heap on (at, seq)
	slab    []payload // event payloads, indexed by key.slot
	free    []uint32  // LIFO list of idle slab slots
	fired   uint64    // events executed so far
	maxHeap int       // heap-depth high water
}

// NewEngine returns an Engine with its clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events in the heap.  A live series
// counts once, for its next member, and a timer once per slot it
// holds, so zero still means every scheduled event has fired.
func (e *Engine) Pending() int { return len(e.heap) }

// Fired reports the number of events executed since the engine was
// created — the kernel's basic progress metric for telemetry.  A timer
// slot that comes due counts once whether it runs the timer's handler
// or only moves to the live deadline.
func (e *Engine) Fired() uint64 { return e.fired }

// MaxHeapDepth reports the high-water mark of pending events, the
// kernel-side signal of scheduling pressure.
func (e *Engine) MaxHeapDepth() int { return e.maxHeap }

// ScheduleEvent registers h to run at virtual time at with the given
// argument.  The event's key lives by
// value in the heap slice and its payload in a recycled slab slot, so
// scheduling allocates nothing once both have warmed up.  Scheduling
// in the past (at < Now) panics: it indicates a bug in a device model,
// and a silently reordered event would corrupt every downstream
// measurement.
func (e *Engine) ScheduleEvent(at Time, h Handler, arg EventArg) {
	e.seq++
	e.push(at, e.seq, h, arg)
}

// ScheduleSeries registers n events for h: member i runs at virtual time
// at(i) with EventArg{I64: i}.  The series takes n consecutive sequence
// numbers at this call, so every member dispatches at exactly the
// (at, seq) key that n ScheduleEvent calls made here would have given
// it.  Only the next member waits in the heap; each member queues its
// successor as it fires, so a trace of any length costs one heap slot.
// Member times must not decrease: a member earlier than its predecessor
// panics when the predecessor fires, as scheduling in the past does.
func (e *Engine) ScheduleSeries(n int, at func(i int) Time, h Handler) {
	if n <= 0 {
		return
	}
	s := &series{at: at, h: h, n: n, seq: e.seq + 1}
	e.seq += uint64(n)
	s.queue(e, 0)
}

// series is the heap-resident handler of one ScheduleSeries call.
type series struct {
	at  func(i int) Time
	h   Handler
	n   int
	seq uint64 // seq of member 0
}

// queue pushes member i at its reserved key.
func (s *series) queue(e *Engine, i int) {
	e.push(s.at(i), s.seq+uint64(i), s, EventArg{I64: int64(i)})
}

// OnEvent queues the successor, then runs the member's handler.
func (s *series) OnEvent(e *Engine, arg EventArg) {
	if next := int(arg.I64) + 1; next < s.n {
		s.queue(e, next)
	}
	s.h.OnEvent(e, arg)
}

// Timer is a re-armable deadline for one handler, such as an idle
// timeout that every request pushes back.  Reset(at) arms it for at,
// taking exactly the seq a ScheduleEvent call would take at that
// moment, so the handler runs at the (at, seq) key a freshly scheduled
// event would have.  Stop disarms it.
//
// The timer queues at most one slot of its own at a time.  A Reset
// later than the queued slot leaves the slot where it is: when it
// comes due for the superseded key, it re-queues at the live key
// instead of running the handler.  A Reset earlier than the queued
// slot queues a new one and orphans the old, and an orphaned or
// stopped timer's slot is dropped when it comes due.  So a timer whose
// deadline only moves later holds one heap slot, and no handler runs
// for a stale deadline.
type Timer struct {
	e    *Engine
	h    Handler
	arg  EventArg
	at   Time   // live deadline
	seq  uint64 // live key's seq; 0 while stopped
	qat  Time   // key of the timer's own queued slot
	qseq uint64 // 0 when no slot is queued
}

// NewTimer returns a stopped timer that runs h with arg when a deadline
// set by Reset comes due.
func (e *Engine) NewTimer(h Handler, arg EventArg) *Timer {
	return &Timer{e: e, h: h, arg: arg}
}

// Reset arms the timer for at, superseding any deadline it held.  A
// deadline before Now panics, as scheduling in the past does.
func (t *Timer) Reset(at Time) {
	e := t.e
	if at < e.now {
		panicPast(at, e.now)
	}
	e.seq++
	t.at, t.seq = at, e.seq
	if t.qseq == 0 || at < t.qat {
		t.queue()
	}
}

// Stop disarms the timer.  A slot it has queued is dropped when it
// comes due, unless a Reset before then re-arms the timer.
func (t *Timer) Stop() { t.seq = 0 }

// queue pushes the timer's slot at the live key.  The slot's I64
// carries its seq, so a slot that an earlier Reset orphaned is told
// apart from the timer's own.
func (t *Timer) queue() {
	t.qat, t.qseq = t.at, t.seq
	t.e.push(t.at, t.seq, (*timerSlot)(t), EventArg{I64: int64(t.seq)})
}

// timerSlot is the heap-resident handler of a Timer's slots; a
// distinct type keeps OnEvent out of Timer's method set.
type timerSlot Timer

// OnEvent runs the handler when the slot holds the live key, moves the
// slot to the live key when a later Reset superseded it, and otherwise
// drops it.
func (s *timerSlot) OnEvent(e *Engine, arg EventArg) {
	t := (*Timer)(s)
	seq := uint64(arg.I64)
	if seq != t.qseq {
		return // orphaned by a Reset earlier than this slot
	}
	t.qseq = 0
	switch t.seq {
	case 0: // stopped
	case seq:
		t.seq = 0
		t.h.OnEvent(e, t.arg)
	default:
		t.queue()
	}
}

// push inserts an event into the heap and tracks the depth high-water
// mark.  An event before now panics.
func (e *Engine) push(at Time, seq uint64, h Handler, arg EventArg) {
	if at < e.now {
		panicPast(at, e.now)
	}
	var slot uint32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.slab[slot] = payload{h: h, arg: arg}
	} else {
		slot = uint32(len(e.slab))
		e.slab = append(e.slab, payload{h: h, arg: arg})
	}
	e.heap = append(e.heap, key{at: at, seq: seq, slot: slot})
	if len(e.heap) > e.maxHeap {
		e.maxHeap = len(e.heap)
	}
	e.siftUp(len(e.heap) - 1)
}

// panicPast reports an event scheduled before now, a device-model bug.
func panicPast(at, now Time) {
	panic(fmt.Sprintf("simtime: schedule at %v before now %v", at, now))
}

// AfterEvent registers h to run d after the current virtual time.
func (e *Engine) AfterEvent(d Duration, h Handler, arg EventArg) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d))
	}
	e.ScheduleEvent(e.now.Add(d), h, arg)
}

// siftUp restores the heap invariant after appending at index i, moving
// the hole up instead of swapping.  Ties compare on seq, so a series
// member, whose seq was reserved before later-scheduled events at its
// timestamp, still rises above them.
func (e *Engine) siftUp(i int) {
	h := e.heap
	k := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !keyLess(&k, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
}

// siftDown restores the heap invariant from the root after a pop.
func (e *Engine) siftDown() {
	h := e.heap
	n := len(h)
	k := h[0]
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
		for c := first + 1; c < last; c++ {
			if keyLess(&h[c], &h[min]) {
				min = c
			}
		}
		if !keyLess(&h[min], &k) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = k
}

// pop removes and returns the earliest pending key.  The caller
// guarantees the heap is non-empty.
func (e *Engine) pop() key {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 1 {
		e.siftDown()
	}
	return root
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp.  It reports false when no events remain.  The event's
// slab slot returns to the free list before its handler runs, so an
// event the handler schedules reuses it.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	k := e.pop()
	p := &e.slab[k.slot]
	h, arg := p.h, p.arg
	p.h = nil // release the handler until the slot is reused
	e.free = append(e.free, k.slot)
	e.now = k.at
	e.fired++
	h.OnEvent(e, arg)
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
