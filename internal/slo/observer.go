package slo

import (
	"repro/internal/blktrace"
	"repro/internal/simtime"
)

// TraceObserver adapts a replay run to the SLO engine: it implements
// replay.Observer, derives a client ID for each package from its
// sector region (ClientOfSector — the same 16 MiB convention
// fleet.TraceStream uses), classifies by arrival time and client, and
// feeds admissions/completions into the engine.  Completions in a
// single-device replay carry array index 0.
//
// Replay completion callbacks fire inside the simulation in finish
// order, so the observer advances the engine to just before each
// finish; the engine's Finish(end) seals the remaining ticks when the
// run drains.
type TraceObserver struct {
	engine *Engine
	trace  *blktrace.Trace
	// class[bunch] caches per-bunch classification of each package —
	// all packages of a bunch share one arrival time but not one
	// sector, so classes can differ within a bunch.
	classes map[int][]int
}

// NewTraceObserver wires an engine to a (filtered) trace.  The trace
// must be the one the replay run iterates — observer bunch/pkg indices
// refer to it.
func NewTraceObserver(e *Engine, trace *blktrace.Trace) *TraceObserver {
	return &TraceObserver{engine: e, trace: trace, classes: make(map[int][]int)}
}

func (o *TraceObserver) classOf(bunch, pkg int) int {
	cs, ok := o.classes[bunch]
	if !ok {
		b := o.trace.Bunches[bunch]
		cs = make([]int, len(b.Packages))
		at := simtime.Time(b.Time)
		for i, p := range b.Packages {
			cs[i] = o.engine.Classify(at, ClientOfSector(p.Sector))
		}
		o.classes[bunch] = cs
	}
	return cs[pkg]
}

// ObserveIssue implements replay.Observer: an issued package is an
// admitted arrival (open-loop replay never rejects).
func (o *TraceObserver) ObserveIssue(bunch, pkg int, at simtime.Time) {
	o.engine.ObserveAdmission(o.classOf(bunch, pkg), at)
}

// ObserveComplete implements replay.Observer.  Completions arrive in
// non-decreasing finish order, so every tick ending before this finish
// is closed and can be evaluated first.
func (o *TraceObserver) ObserveComplete(bunch, pkg int, issued, finished simtime.Time) {
	o.engine.Advance(finished)
	o.engine.ObserveCompletion(o.classOf(bunch, pkg), 0, finished, finished.Sub(issued))
}
