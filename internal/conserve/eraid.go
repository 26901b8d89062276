package conserve

import (
	"fmt"

	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// ERAIDArray implements eRAID-style redundancy-based power saving (Li
// & Wang 2004, paper Table I): at low load one RAID-5 member is spun
// down and its reads are served by XOR reconstruction from the
// survivors; when load rises past a threshold the member is woken and
// restored.  Unlike MAID no extra cache hardware is needed — the
// array's own redundancy absorbs the sleeping disk.
type ERAIDArray struct {
	engine *simtime.Engine
	array  *raid.Array
	hdds   []*disksim.HDD

	// lowIOPS and highIOPS bound the hysteresis band, evaluated over
	// window-sized intervals.
	lowIOPS, highIOPS float64
	window            simtime.Duration

	offline     int // the one member resting (RAID-5's parity tolerance), or -1
	windowIOs   int64
	outstanding int
	armed       bool // whether a tick is scheduled
	// free is a LIFO list of idle in-flight records.
	free inflightList

	ctl *Control

	stats ERAIDStats
}

// ERAIDStats count policy transitions.
type ERAIDStats struct {
	// Offlines and Restores count member rest/wake cycles.
	Offlines, Restores int64
}

// NewERAIDArray assembles a RAID-5 array of Drives drives under spec's
// eRAID policy and starts the policy ticker.
func NewERAIDArray(engine *simtime.Engine, spec Spec) (*ERAIDArray, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.WithDefaults()
	hdds := make([]*disksim.HDD, Drives)
	members := make([]raid.Disk, Drives)
	for i := range hdds {
		hdds[i] = disksim.NewHDD(engine, drive(fmt.Sprintf("eraid-%d", i), i, 15485863))
		members[i] = hdds[i]
	}
	array, err := raid.New(engine, raid.DefaultParams(), members)
	if err != nil {
		return nil, err
	}
	e := &ERAIDArray{
		engine:   engine,
		array:    array,
		hdds:     hdds,
		lowIOPS:  spec.ERAIDLowIOPS,
		highIOPS: spec.ERAIDHighIOPS,
		window:   spec.ERAIDWindow,
		offline:  -1,
		ctl:      spec.Control,
	}
	e.armed = true
	e.tick()
	return e, nil
}

// tick evaluates the load once per window and adjusts the offline set.
func (e *ERAIDArray) tick() {
	iops := float64(e.windowIOs) / e.window.Seconds()
	e.windowIOs = 0
	now := e.engine.Now()
	switch {
	case e.offline < 0 && iops < e.lowIOPS && e.outstanding == 0:
		// Rest the last member: the rotating parity layout spreads its
		// load across the survivors evenly regardless of which we pick.
		victim := len(e.hdds) - 1
		if !e.ctl.propose(Decision{
			At:          int64(now),
			Kind:        DecisionOffline,
			Policy:      "eraid",
			Disk:        victim,
			QueueDepth:  e.hdds[victim].QueueDepth(),
			Outstanding: e.outstanding,
		}) {
			break // vetoed: stay fully redundant this window
		}
		if err := e.array.FailDisk(victim); err == nil {
			if e.hdds[victim].Standby() {
				e.offline = victim
				e.stats.Offlines++
			} else {
				e.array.RestoreDisk()
			}
		}
	case e.offline >= 0 && iops > e.highIOPS:
		if !e.ctl.propose(Decision{
			At:          int64(now),
			Kind:        DecisionRestore,
			Policy:      "eraid",
			Disk:        e.offline,
			QueueDepth:  e.hdds[e.offline].QueueDepth(),
			Outstanding: e.outstanding,
		}) {
			break // vetoed: serve degraded for another window
		}
		e.hdds[e.offline].Wake()
		e.array.RestoreDisk()
		e.offline = -1
		e.stats.Restores++
	}
	// Once the array is quiet there is nothing left to decide — either a
	// member already rests, or this tick just tried to rest one: stop
	// ticking so the simulation can drain.  The next Submit re-arms the
	// evaluator.  (Gating on offline >= 0 instead would tick forever
	// when resting is disabled or vetoed, marching the virtual clock to
	// overflow.)
	if iops == 0 && e.outstanding == 0 {
		e.armed = false
		return
	}
	e.armed = scheduleClamped(e.engine, now.Add(e.window), e)
}

// OnEvent implements simtime.Handler: the load-evaluation tick fired.
func (e *ERAIDArray) OnEvent(*simtime.Engine, simtime.EventArg) { e.tick() }

// Submit implements storage.Device.
func (e *ERAIDArray) Submit(req storage.Request, done func(simtime.Time)) {
	e.windowIOs++
	e.outstanding++
	if !e.armed {
		e.armed = scheduleClamped(e.engine, e.engine.Now().Add(e.window), e)
	}
	e.array.Submit(req, e.free.get(e, done).land)
}

// landed completes one request: the array's bookkeeping, then done.
func (e *ERAIDArray) landed(r *inflight, finish simtime.Time) {
	done := e.free.put(r, finish)
	e.outstanding--
	done(finish)
}

// Capacity implements storage.Device.
func (e *ERAIDArray) Capacity() int64 { return e.array.Capacity() }

// PowerSource exposes the array's wall power.
func (e *ERAIDArray) PowerSource() powersim.Source { return e.array.PowerSource() }

// Array exposes the wrapped controller (stats inspection).
func (e *ERAIDArray) Array() *raid.Array { return e.array }

// Offline reports the resting member, or -1.
func (e *ERAIDArray) Offline() int { return e.offline }

// HDDs exposes the member drives (wear accounting, invariant checks).
func (e *ERAIDArray) HDDs() []*disksim.HDD { return e.hdds }

// Stats returns policy counters.
func (e *ERAIDArray) Stats() ERAIDStats { return e.stats }

var _ storage.Device = (*ERAIDArray)(nil)
