package main

import (
	"time"

	"repro/internal/blktrace"
	"repro/internal/disksim"
	"repro/internal/fleet"
	"repro/internal/powersim"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// site is one timed crossing of a public module boundary.  Submit-side
// sites are charged to the layer being called; completion-side sites
// to the layer whose callback runs.
type site int

const (
	siteReplayFilter site = iota
	siteReplayComplete
	siteCacheSubmit
	siteCacheComplete
	siteRaidSubmit
	siteRaidComplete
	siteDiskSubmit
	siteMeter
	siteFleetRoute
	siteFleetBarrier
	siteFleetFinish
	siteGridMap
	siteOptimizeCell
	numSites
)

var siteNames = [numSites]string{
	"replay.filter", "replay.complete", "cache.submit", "cache.complete",
	"raid.submit", "raid.complete", "disksim.submit", "powersim.measure",
	"fleet.route", "fleet.barrier", "fleet.finish",
	"parsweep.map", "optimize.evaluate",
}

// maxSpanIOs bounds spans.json to the first IOs of the traced run.
const maxSpanIOs = 10000

// span is one recorded boundary crossing, in microseconds since the
// tracer started.
type span struct {
	ID, Parent, IO int64
	Site           site
	Tid            int64
	Start, Dur     float64
}

type frame struct {
	site  site
	io    int64
	id    int64 // recorded span id, 0 when not recorded
	start time.Time
	child time.Duration // time covered by nested frames
}

// tracer times shim frames on one goroutine.  Frames nest like the call
// stack that crosses the boundaries, so a frame's self time is its
// duration minus its nested frames'.  A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	stack []frame
	incl  [numSites]time.Duration
	self  [numSites]time.Duration
	root  time.Duration // inclusive time of frames entered with an empty stack
	spans []span
	ids   int64
	ios   int64

	// Member-disk submits made from the controller's own command event
	// sit under no frame.  The controller delays every command by a
	// constant overhead, so commands fire in submission order: a FIFO
	// of IO ids, popped once per kernel event, attributes them.
	cmdIOs    []int64
	cmdHead   int
	lastFired uint64
	eventIO   int64

	queueSum, queueOps, queueMax int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanned reports whether a crossing for io is kept in spans.json: one
// of the first maxSpanIOs IOs, or a phase of no single IO (io < 0)
// while those IOs are still arriving.
func (t *tracer) spanned(io int64) bool {
	if io < 0 {
		return t.ios < maxSpanIOs
	}
	return io < maxSpanIOs
}

func (t *tracer) enter(s site, io int64) {
	if t == nil {
		return
	}
	f := frame{site: s, io: io, start: time.Now()}
	if t.spanned(io) {
		t.ids++
		f.id = t.ids
	}
	t.stack = append(t.stack, f)
}

func (t *tracer) exit() {
	if t == nil {
		return
	}
	end := time.Now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := end.Sub(f.start)
	t.incl[f.site] += d
	t.self[f.site] += d - f.child
	var parent int64
	if n > 0 {
		t.stack[n-1].child += d
		parent = t.stack[n-1].id
	} else {
		t.root += d
	}
	if f.id != 0 {
		t.record(f.id, parent, f.io, f.site, 1, f.start, end)
	}
}

// record appends a finished span.
func (t *tracer) record(id, parent, io int64, s site, tid int64, start, end time.Time) {
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, IO: io, Site: s, Tid: tid,
		Start: float64(start.Sub(t.epoch).Nanoseconds()) / 1e3,
		Dur:   float64(end.Sub(start).Nanoseconds()) / 1e3,
	})
}

// add charges a phase timed outside the frame stack (one that runs on
// other goroutines, or is delimited by callbacks rather than calls).
func (t *tracer) add(s site, io, tid int64, start, end time.Time) {
	if t == nil {
		return
	}
	d := end.Sub(start)
	t.incl[s] += d
	t.self[s] += d
	if t.spanned(io) {
		t.ids++
		t.record(t.ids, 0, io, s, tid, start, end)
	}
}

// newIO numbers an IO entering the stack from outside every frame.
func (t *tracer) newIO() int64 {
	io := t.ios
	t.ios++
	return io
}

// currentIO is the IO of the innermost frame, or a new one.
func (t *tracer) currentIO() int64 {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1].io
	}
	return t.newIO()
}

// resetCell forgets per-engine attribution state before a new engine.
func (t *tracer) resetCell() {
	if t == nil {
		return
	}
	t.cmdIOs, t.cmdHead, t.lastFired = t.cmdIOs[:0], 0, 0
}

// commandIO attributes a member-disk submit made outside every frame:
// the first such submit of a kernel event pops the next command's IO.
func (t *tracer) commandIO(fired uint64) int64 {
	if fired != t.lastFired {
		t.lastFired = fired
		t.eventIO = -1
		if t.cmdHead < len(t.cmdIOs) {
			t.eventIO = t.cmdIOs[t.cmdHead]
			t.cmdHead++
		}
	}
	if t.eventIO < 0 {
		return t.newIO()
	}
	return t.eventIO
}

// devShim forwards a storage.Device boundary: Submit is charged to the
// device's layer (sub), the completion callback to the caller's (done).
type devShim struct {
	inner     storage.Device
	t         *tracer
	sub, done site
}

func (s *devShim) Submit(req storage.Request, done func(simtime.Time)) {
	t := s.t
	io := t.currentIO()
	if s.sub == siteRaidSubmit {
		t.cmdIOs = append(t.cmdIOs, io)
	}
	t.enter(s.sub, io)
	s.inner.Submit(req, func(at simtime.Time) {
		t.enter(s.done, io)
		done(at)
		t.exit()
	})
	t.exit()
}

func (s *devShim) Capacity() int64 { return s.inner.Capacity() }

// diskShim forwards one RAID member (a raid.Disk, plus the self-check
// raid.Array.CheckInvariants delegates to).  Submit is charged to
// disksim and the completion callback to raid.
type diskShim struct {
	hdd *disksim.HDD
	eng *simtime.Engine
	t   *tracer
}

func (d *diskShim) Submit(req storage.Request, done func(simtime.Time)) {
	t := d.t
	var io int64
	if len(t.stack) > 0 {
		io = t.stack[len(t.stack)-1].io
	} else {
		io = t.commandIO(d.eng.Fired())
	}
	q := int64(d.hdd.QueueDepth())
	t.queueSum += q
	t.queueOps++
	if q > t.queueMax {
		t.queueMax = q
	}
	t.enter(siteDiskSubmit, io)
	d.hdd.Submit(req, func(at simtime.Time) {
		t.enter(siteRaidComplete, io)
		done(at)
		t.exit()
	})
	t.exit()
}

func (d *diskShim) Capacity() int64                        { return d.hdd.Capacity() }
func (d *diskShim) Timeline() *powersim.Timeline           { return d.hdd.Timeline() }
func (d *diskShim) CheckInvariants(now simtime.Time) error { return d.hdd.CheckInvariants(now) }

// filterShim times replay's load-control filter.
type filterShim struct {
	inner replay.Filter
	t     *tracer
}

func (f filterShim) Apply(tr *blktrace.Trace) *blktrace.Trace {
	f.t.enter(siteReplayFilter, -1)
	out := f.inner.Apply(tr)
	f.t.exit()
	return out
}

func (f filterShim) Name() string { return f.inner.Name() }

// policyShim times the fleet's placement policy.
type policyShim struct {
	inner fleet.Policy
	t     *fleetTrace
}

func (p policyShim) Name() string { return p.inner.Name() }

func (p policyShim) Pick(r fleet.ClientRequest, states []fleet.ArrayState) int {
	start := time.Now()
	i := p.inner.Pick(r, states)
	p.t.placed(start)
	return i
}

// fleetTrace splits the fleet coordinator's host time into windows from
// the policy shim and the OnBarrier hook.  A window runs from the
// previous hook's return to the next hook's call; its barrier phase
// (worker drains, state republish, SLO feed) starts when the window's
// last placement returns.
type fleetTrace struct {
	t         *tracer
	engines   []*simtime.Engine
	lastFired []uint64

	windowStart, lastShim time.Time
	windows               []time.Duration
	idle, slots           int64 // member-windows without a fired event, of all
}

func newFleetTrace(t *tracer, engines []*simtime.Engine) *fleetTrace {
	return &fleetTrace{t: t, engines: engines, lastFired: make([]uint64, len(engines))}
}

func (f *fleetTrace) begin() {
	f.windowStart = time.Now()
	f.lastShim = f.windowStart
}

// placed charges one placement and numbers the IO it placed.
func (f *fleetTrace) placed(start time.Time) {
	end := time.Now()
	f.t.add(siteFleetRoute, f.t.newIO(), 1, start, end)
	f.lastShim = end
}

// onBarrier is the fleet's OnBarrier hook.  It runs on the coordinator
// after the workers are drained, so reading member engines is ordered.
func (f *fleetTrace) onBarrier(simtime.Time) {
	now := time.Now()
	f.windows = append(f.windows, now.Sub(f.windowStart))
	f.t.add(siteFleetBarrier, -1, 1, f.lastShim, now)
	for i, e := range f.engines {
		fired := e.Fired()
		if fired == f.lastFired[i] {
			f.idle++
		}
		f.lastFired[i] = fired
	}
	f.slots += int64(len(f.engines))
	f.begin()
}

// finish charges the run's tail: the final unbounded drain, the
// fleet's own metering and result assembly.
func (f *fleetTrace) finish() { f.t.add(siteFleetFinish, -1, 1, f.windowStart, time.Now()) }
