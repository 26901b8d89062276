package simtime

import (
	"container/heap"
	"fmt"
)

// This file freezes the pre-rewrite kernel — container/heap over
// heap-allocated *event nodes — as BaselineEngine.  It is test code:
// TestEngineMatchesBaseline replays random schedules through it and
// through Engine to pin the (at, seq) execution order, and
// BenchmarkEngineScheduleRun measures the 4-ary kernel against the
// exact implementation it replaced, on the machine at hand.

// baseEvent is a scheduled callback in the baseline kernel.
type baseEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// baseHeap orders events by (at, seq) through container/heap.
type baseHeap []*baseEvent

func (h baseHeap) Len() int { return len(h) }
func (h baseHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h baseHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *baseHeap) Push(x any)   { *h = append(*h, x.(*baseEvent)) }
func (h *baseHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return
}

// BaselineEngine is the frozen pre-rewrite simulation executive.
type BaselineEngine struct {
	now    Time
	seq    uint64
	events baseHeap
}

// NewBaselineEngine returns a BaselineEngine with its clock at zero.
func NewBaselineEngine() *BaselineEngine { return &BaselineEngine{} }

// Now reports the current virtual time.
func (e *BaselineEngine) Now() Time { return e.now }

// Schedule registers fn to run at virtual time at.
func (e *BaselineEngine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	heap.Push(&e.events, &baseEvent{at: at, seq: e.seq, fn: fn})
}

// Step executes the single earliest pending event, advancing the clock
// to its timestamp.  It reports false when no events remain.
func (e *BaselineEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*baseEvent)
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events in timestamp order until the queue is empty.
func (e *BaselineEngine) Run() {
	for e.Step() {
	}
}
