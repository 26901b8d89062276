package conserve

import (
	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// DRPMDisk implements dynamic-RPM power management (DRPM, Gurumurthi
// et al., paper Table I): instead of stopping the spindle, the policy
// steps the rotation speed down through discrete levels as the disk
// idles and back up when load returns.  Requests are always served —
// just slower at low RPM — so DRPM avoids TPM's multi-second spin-up
// penalty at the cost of smaller savings per idle second.
type DRPMDisk struct {
	engine *simtime.Engine
	disk   *disksim.HDD
	// levels are the speed fractions, fastest first (e.g. 1.0, 0.8,
	// 0.65, 0.5).
	levels []float64
	// stepDown is the idle time before dropping one level.
	stepDown simtime.Duration

	level        int
	lastActivity simtime.Time
	outstanding  int
	// idle is the step-down check: construction, each completion that
	// drains the disk and each step reset it, and Submit stops it.
	idle *simtime.Timer

	ctl   *Control
	index int

	// free is a LIFO list of idle in-flight records.  Only the
	// goroutine driving the disk's engine touches it.
	free inflightList
}

// NewDRPMDisk wraps disk with a DRPM policy stepping through levels
// (fastest first) after each stepDown of idleness.
func NewDRPMDisk(engine *simtime.Engine, disk *disksim.HDD, levels []float64, stepDown simtime.Duration) *DRPMDisk {
	if len(levels) == 0 || stepDown <= 0 {
		panic("conserve: DRPM needs speed levels and a positive step-down window")
	}
	d := &DRPMDisk{engine: engine, disk: disk, levels: levels, stepDown: stepDown}
	d.idle = engine.NewTimer(d, simtime.EventArg{})
	d.armTimer()
	return d
}

// Level reports the current policy level index (0 = full speed).
func (d *DRPMDisk) Level() int { return d.level }

// AttachDecisions arms the policy's decision hooks: every RPM shift
// (down-steps and the full-speed restore) is sequenced through ctl
// under the "drpm" policy label and member index.
func (d *DRPMDisk) AttachDecisions(ctl *Control, disk int) {
	d.ctl = ctl
	d.index = disk
}

// armTimer sets the step-down check one step from now.
func (d *DRPMDisk) armTimer() {
	resetClamped(d.engine, d.idle, d.engine.Now().Add(d.stepDown))
}

// OnEvent implements simtime.Handler: the step-down check came due;
// the check deadline is the dispatch time.
func (d *DRPMDisk) OnEvent(e *simtime.Engine, _ simtime.EventArg) {
	d.check(e.Now())
}

// check steps the speed down one level after a full idle window.  As
// in ManagedDisk, the idle timer runs it only at the live deadline
// (set at construction, by the completion that drained the disk or by
// the previous step), with no request since.
func (d *DRPMDisk) check(deadline simtime.Time) {
	idle := deadline.Sub(d.lastActivity)
	// Propose only shifts the drive will accept (it refuses while a
	// previous shift settles), so the ledger records exactly the
	// transitions that happen.
	if d.level+1 < len(d.levels) && d.disk.CanSetRPM() {
		if !d.ctl.propose(Decision{
			At:          int64(deadline),
			Kind:        DecisionRPMShift,
			Policy:      "drpm",
			Disk:        d.index,
			FromLevel:   d.level,
			Level:       d.level + 1,
			IdleNs:      int64(idle),
			QueueDepth:  d.disk.QueueDepth(),
			Outstanding: d.outstanding,
		}) {
			// Vetoed (counterfactual): hold this speed until the next
			// activity cycle re-arms the step-down timer.
			return
		}
		if d.disk.SetRPMFraction(d.levels[d.level+1]) {
			d.level++
		}
	}
	if d.level+1 < len(d.levels) {
		d.armTimer()
	}
}

// Submit implements storage.Device.  Arrival at reduced speed requests
// a step back to full speed; the disk shifts as soon as it drains, and
// meanwhile the request is served at the current speed.
func (d *DRPMDisk) Submit(req storage.Request, done func(simtime.Time)) {
	d.idle.Stop()
	d.lastActivity = d.engine.Now()
	d.outstanding++
	d.disk.Submit(req, d.free.get(d, done).land)
}

// landed completes one request: the disk's bookkeeping and, when it
// drains the disk, the speed restore and step-down check run before
// done.
func (d *DRPMDisk) landed(r *inflight, finish simtime.Time) {
	done := d.free.put(r, finish)
	d.outstanding--
	d.lastActivity = finish
	if d.outstanding == 0 {
		// Load present: restore full speed for the next burst.
		if d.level != 0 && d.disk.CanSetRPM() && d.ctl.propose(Decision{
			At:          int64(finish),
			Kind:        DecisionRPMShift,
			Policy:      "drpm",
			Disk:        d.index,
			FromLevel:   d.level,
			Level:       0,
			QueueDepth:  d.disk.QueueDepth(),
			Outstanding: d.outstanding,
		}) && d.disk.SetRPMFraction(d.levels[0]) {
			d.level = 0
		}
		resetClamped(d.engine, d.idle, finish.Add(d.stepDown))
	}
	done(finish)
}

// Capacity implements storage.Device.
func (d *DRPMDisk) Capacity() int64 { return d.disk.Capacity() }

// Timeline exposes the drive's power timeline.
func (d *DRPMDisk) Timeline() *powersim.Timeline { return d.disk.Timeline() }

var _ Member = (*DRPMDisk)(nil)
