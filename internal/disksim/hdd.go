// Package disksim provides discrete-event models of the storage devices
// the paper evaluates: enterprise 7200 RPM hard disk drives (Seagate
// Barracuda 7200.12-class) and SLC solid-state disks (Memoright-class).
//
// Each model implements storage.Device: requests queue FIFO, a service
// time is computed from the device physics, and the device's power draw
// is recorded on a powersim.Timeline as it moves between idle, seek and
// transfer states.  The models are deliberately simple — TRACER studies
// how replayed load shapes energy efficiency, so what must be faithful
// is the *relationship* between workload characteristics (request size,
// random ratio, read ratio, intensity) and busy power, not absolute
// microsecond accuracy.
//
// Requests whose address range exceeds the device capacity are folded
// modulo the capacity: the paper replays traces collected on larger
// stores against smaller test devices, and folding preserves the
// sequential-vs-random structure of the stream.
package disksim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// HDDParams describe a hard disk drive model.
type HDDParams struct {
	// Name labels the drive in logs and repository entries.
	Name string
	// CapacityBytes is the addressable capacity.
	CapacityBytes int64
	// RPM is the spindle speed.
	RPM float64
	// Cylinders is the number of seek positions in the simplified
	// geometry; logical addresses map linearly onto cylinders.
	Cylinders int64
	// TrackToTrackSeek and FullStrokeSeek bound the seek-time curve.
	TrackToTrackSeek, FullStrokeSeek simtime.Duration
	// OuterMBps and InnerMBps bound the zoned media transfer rate;
	// low addresses live on fast outer tracks.
	OuterMBps, InnerMBps float64
	// CmdOverhead is fixed per-request controller/firmware latency.
	CmdOverhead simtime.Duration
	// IdleW, ActiveW, SeekW are the drive's power states: spinning
	// and ready, transferring, and moving the arm (voice-coil
	// actuators draw extra power during seeks — Section VI-D).
	IdleW, ActiveW, SeekW float64
	// StandbyW is the draw with the spindle stopped; SpinUp is the
	// time to return to speed and SpinUpW the draw while doing so.
	// Energy-conservation techniques (MAID, timeout spin-down) rely
	// on these states; see internal/conserve.
	StandbyW float64
	SpinUp   simtime.Duration
	SpinUpW  float64
	// Scheduler selects the queue-reordering policy (default FIFO).
	Scheduler Scheduler
	// MinRPMFraction bounds DRPM speed scaling (default 0.5: a 7200
	// RPM drive can slow to 3600); RPMShift is the time a speed change
	// takes, during which the drive cannot serve.
	MinRPMFraction float64
	RPMShift       simtime.Duration
	// Seed makes rotational-latency sampling reproducible.
	Seed uint64
}

// Seagate7200 returns parameters modelled on the 500 GB Seagate
// Barracuda 7200.12 drives in the paper's testbed (Table II).
func Seagate7200() HDDParams {
	return HDDParams{
		Name:             "seagate-7200.12-500g",
		CapacityBytes:    500 * 1000 * 1000 * 1000,
		RPM:              7200,
		Cylinders:        60000,
		TrackToTrackSeek: simtime.Millisecond,
		FullStrokeSeek:   17 * simtime.Millisecond,
		OuterMBps:        125,
		InnerMBps:        60,
		CmdOverhead:      100 * simtime.Microsecond,
		IdleW:            8.0,
		ActiveW:          11.5,
		SeekW:            13.5,
		StandbyW:         0.8,
		SpinUp:           6 * simtime.Second,
		SpinUpW:          20.0,
		MinRPMFraction:   0.5,
		RPMShift:         600 * simtime.Millisecond,
		Seed:             1,
	}
}

// HDDStats accumulate per-drive accounting for tests and reports.
type HDDStats struct {
	// Served counts completed requests.
	Served int64
	// Seeks counts requests that required arm movement.
	Seeks int64
	// BusyTime, SeekTime and TransferTime decompose service time.
	BusyTime, SeekTime, TransferTime simtime.Duration
	// BytesRead and BytesWritten count transferred payload.
	BytesRead, BytesWritten int64
	// SpinDowns and SpinUps count spindle power-state transitions
	// driven by energy-conservation policies.
	SpinDowns, SpinUps int64
	// RPMShifts counts DRPM speed changes.
	RPMShifts int64
}

// spinState tracks the spindle.
type spinState int

const (
	spinning spinState = iota
	standby
	spinningUp
)

type hddPending struct {
	req  storage.Request
	done func(simtime.Time)
}

// HDD is a hard-disk-drive model attached to a simulation engine.
type HDD struct {
	engine *simtime.Engine
	params HDDParams
	// The power timeline and the PCG state live in the drive, so a
	// service start or completion stays on the drive's own cache lines.
	power powersim.Timeline
	pcg   rand.PCG
	rng   rand.Rand // draws from &pcg

	queue    storage.FIFO[hddPending]
	inflight hddPending // the request being served (drive is strictly serial)
	busy     bool
	spin     spinState
	rpmFrac  float64 // DRPM speed fraction in [MinRPMFraction, 1]
	spinW    float64 // spindle draw at rpmFrac, set by setRPM
	sweepDir int     // LOOK sweep direction: +1 or -1
	headCyl  int64   // current arm position
	lastEnd  int64   // byte address following the last transfer (for sequential detection)

	stats HDDStats
	tel   *telemetry.DiskProbe
}

// Name reports the drive's configured label.
func (d *HDD) Name() string { return d.params.Name }

// AttachTelemetry arms the drive with a telemetry probe recording
// service starts (with the positioning/transfer split) and idle
// transitions.  A nil probe disables instrumentation at the cost of
// one pointer compare per service.
func (d *HDD) AttachTelemetry(p *telemetry.DiskProbe) { d.tel = p }

// Event kinds for the drive's closure-free kernel callbacks.
const (
	hddEvSpinUpDone int32 = iota
	hddEvShiftDone
	hddEvServiceDone
)

// OnEvent implements simtime.Handler: the drive is its own prebound
// callback, so scheduling spin-up, RPM-shift and service-completion
// events allocates nothing.
func (d *HDD) OnEvent(e *simtime.Engine, arg simtime.EventArg) {
	switch arg.Kind {
	case hddEvSpinUpDone:
		d.spin = spinning
		d.setPower(e.Now(), "idle")
		if d.queue.Len() > 0 && !d.busy {
			d.busy = true
			d.startNext()
		}
	case hddEvShiftDone:
		d.spin = spinning
		if d.queue.Len() > 0 && !d.busy {
			d.busy = true
			d.startNext()
		}
	case hddEvServiceDone:
		finish := e.Now()
		p := d.inflight
		d.inflight = hddPending{}
		d.stats.Served++
		switch p.req.Op {
		case storage.Read:
			d.stats.BytesRead += p.req.Size
		case storage.Write:
			d.stats.BytesWritten += p.req.Size
		}
		d.lastEnd = p.req.End()
		d.headCyl = d.cylinderOf(p.req.End() - 1)
		if d.queue.Len() > 0 {
			d.startNext()
		} else {
			d.busy = false
			d.setPower(finish, "idle")
			d.tel.OnIdle(finish)
		}
		p.done(finish)
	}
}

// setRPM sets the spindle speed fraction and caches the spindle draw
// at that speed: air drag scales roughly with the cube of RPM, on top
// of an electronics floor.  The draw changes only with the speed, so
// power steps read the cached value instead of calling math.Pow.
func (d *HDD) setRPM(frac float64) {
	d.rpmFrac = frac
	d.spinW = d.params.IdleW * (0.2 + 0.8*math.Pow(frac, 2.8))
}

// powerOf computes the draw for a named drive state at the current
// spindle speed; the arm and channel components ride on the spindle.
func (d *HDD) powerOf(state string) float64 {
	switch state {
	case "idle":
		return d.spinW
	case "active":
		return d.spinW + (d.params.ActiveW - d.params.IdleW)
	case "seek":
		return d.spinW + (d.params.SeekW - d.params.IdleW)
	case "standby":
		return d.params.StandbyW
	case "spinup":
		return d.params.SpinUpW
	default:
		panic("disksim: unknown power state " + state)
	}
}

// setPower stamps the timeline with the named state's draw at time t.
func (d *HDD) setPower(t simtime.Time, state string) {
	d.power.Set(t, d.powerOf(state))
}

// NewHDD creates a drive on the given engine.  The drive starts idle
// with its arm at cylinder zero.
func NewHDD(engine *simtime.Engine, params HDDParams) *HDD {
	if params.CapacityBytes <= 0 {
		panic("disksim: HDD capacity must be positive")
	}
	if params.Cylinders <= 0 {
		params.Cylinders = 1
	}
	if params.RPM <= 0 {
		panic("disksim: HDD RPM must be positive")
	}
	if params.MinRPMFraction <= 0 || params.MinRPMFraction > 1 {
		params.MinRPMFraction = 0.5
	}
	d := &HDD{
		engine:   engine,
		params:   params,
		power:    *powersim.NewTimeline(params.IdleW),
		pcg:      *rand.NewPCG(params.Seed, 0xd15c),
		lastEnd:  -1,
		sweepDir: 1,
	}
	d.rng = *rand.New(&d.pcg)
	d.setRPM(1)
	return d
}

// Capacity implements storage.Device.
func (d *HDD) Capacity() int64 { return d.params.CapacityBytes }

// Timeline exposes the drive's power timeline for metering.
func (d *HDD) Timeline() *powersim.Timeline { return &d.power }

// Stats returns a snapshot of the accounting counters.
func (d *HDD) Stats() HDDStats { return d.stats }

// QueueDepth reports queued-but-unstarted requests (tests use it).
func (d *HDD) QueueDepth() int { return d.queue.Len() }

// Standby stops the spindle to save power.  It reports false (and does
// nothing) when the drive is busy or already stopped; a policy should
// simply retry later.  The next Submit transparently spins the drive
// back up, delaying queued requests by the spin-up time.
func (d *HDD) Standby() bool {
	if d.busy || d.spin != spinning || d.queue.Len() > 0 {
		return false
	}
	d.spin = standby
	d.stats.SpinDowns++
	d.setPower(d.engine.Now(), "standby")
	return true
}

// InStandby reports whether the spindle is stopped.
func (d *HDD) InStandby() bool { return d.spin == standby }

// Wake restarts a standby spindle without waiting for a request, so a
// policy can hide the spin-up latency behind anticipated load.  It
// reports false when the drive is not in standby.
func (d *HDD) Wake() bool {
	if d.spin != standby {
		return false
	}
	d.spin = spinningUp
	d.stats.SpinUps++
	now := d.engine.Now()
	d.setPower(now, "spinup")
	d.engine.ScheduleEvent(now.Add(d.params.SpinUp), d, simtime.EventArg{Kind: hddEvSpinUpDone})
	return true
}

// RPMFraction reports the current spindle speed as a fraction of
// nominal.
func (d *HDD) RPMFraction() float64 { return d.rpmFrac }

// CanSetRPM reports whether a speed shift would be accepted right now:
// the drive must be idle, spinning at steady state, and have nothing
// queued.  Policies check it before proposing a shift so their decision
// ledgers record only shifts that actually happen.
func (d *HDD) CanSetRPM() bool {
	return !d.busy && d.spin == spinning && d.queue.Len() == 0
}

// SetRPMFraction changes the spindle speed (DRPM, Gurumurthi et al.):
// slower rotation draws roughly cubically less spindle power at the
// cost of longer rotational latency and a lower media rate.  The shift
// takes RPMShift, during which the drive cannot serve; it is only
// accepted while the drive is idle and spinning.  frac clamps to
// [MinRPMFraction, 1].
func (d *HDD) SetRPMFraction(frac float64) bool {
	if d.busy || d.spin != spinning || d.queue.Len() > 0 {
		return false
	}
	if frac > 1 {
		frac = 1
	}
	if frac < d.params.MinRPMFraction {
		frac = d.params.MinRPMFraction
	}
	if frac == d.rpmFrac {
		return true
	}
	d.setRPM(frac)
	d.stats.RPMShifts++
	d.spin = spinningUp // unavailable during the shift
	now := d.engine.Now()
	d.setPower(now, "idle") // draw settles to the new spin level
	d.engine.ScheduleEvent(now.Add(d.params.RPMShift), d, simtime.EventArg{Kind: hddEvShiftDone})
	return true
}

// CheckInvariants verifies the drive's internal accounting against the
// physics it models.  It is meaningful once the simulation has drained
// (no request in flight); call it after engine.Run returns.  now is the
// engine clock, bounding wall time since the drive was created at time
// zero.
func (d *HDD) CheckInvariants(now simtime.Time) error {
	if d.inflight.done != nil {
		return fmt.Errorf("disksim: %s: request still in flight at %v", d.params.Name, now)
	}
	s := d.stats
	if s.BusyTime < 0 || s.SeekTime < 0 || s.TransferTime < 0 {
		return fmt.Errorf("disksim: %s: negative time accounting %+v", d.params.Name, s)
	}
	if s.BusyTime > now.Sub(0) {
		return fmt.Errorf("disksim: %s: busy time %v exceeds wall time %v", d.params.Name, s.BusyTime, now)
	}
	want := s.SeekTime + s.TransferTime + simtime.Duration(s.Served)*d.params.CmdOverhead
	if s.BusyTime != want {
		return fmt.Errorf("disksim: %s: busy time %v != seek %v + transfer %v + %d cmd overheads (%v)",
			d.params.Name, s.BusyTime, s.SeekTime, s.TransferTime, s.Served, want)
	}
	if s.Seeks > s.Served {
		return fmt.Errorf("disksim: %s: %d seeks for %d served requests", d.params.Name, s.Seeks, s.Served)
	}
	if s.BytesRead < 0 || s.BytesWritten < 0 {
		return fmt.Errorf("disksim: %s: negative byte counters %+v", d.params.Name, s)
	}
	return d.power.CheckMonotone()
}

// ServedOps reports the number of member-disk requests completed; the
// conformance layer cross-checks it against the RAID controller's
// issued-operation counters.
func (d *HDD) ServedOps() int64 { return d.stats.Served }

// Submit implements storage.Device.
func (d *HDD) Submit(req storage.Request, done func(simtime.Time)) {
	if err := req.Validate(0); err != nil {
		panic(fmt.Sprintf("disksim: invalid request: %v", err))
	}
	req.Offset = foldOffset(req.Offset, req.Size, d.params.CapacityBytes)
	d.queue.Push(hddPending{req: req, done: done})
	switch d.spin {
	case standby:
		// Wake the spindle; service resumes once it is back to speed.
		d.spin = spinningUp
		d.stats.SpinUps++
		now := d.engine.Now()
		d.setPower(now, "spinup")
		d.engine.ScheduleEvent(now.Add(d.params.SpinUp), d, simtime.EventArg{Kind: hddEvSpinUpDone})
	case spinningUp:
		// Queued; the spin-up completion event starts service.
	case spinning:
		if !d.busy {
			d.busy = true
			d.startNext()
		}
	}
}

// startNext begins service of the request the scheduler picks at the
// current virtual time.  The caller guarantees the queue is non-empty.
func (d *HDD) startNext() {
	p := d.queue.Take(d.selectNext())
	now := d.engine.Now()

	seek, transfer := d.serviceTime(p.req)
	total := d.params.CmdOverhead + seek + transfer
	finish := now.Add(total)

	// Record the power trajectory for this service period up front; the
	// drive serves strictly serially so these timestamps are monotone.
	if seek > 0 {
		d.setPower(now, "seek")
		d.setPower(now.Add(d.params.CmdOverhead+seek), "active")
	} else {
		d.setPower(now, "active")
	}

	d.stats.BusyTime += total
	d.stats.SeekTime += seek
	d.stats.TransferTime += transfer
	if seek > 0 {
		d.stats.Seeks++
	}
	d.tel.OnService(p.req.Op == storage.Write, now, d.params.CmdOverhead+seek, transfer, total)

	d.inflight = p
	d.engine.ScheduleEvent(finish, d, simtime.EventArg{Kind: hddEvServiceDone})
}

// serviceTime computes positioning (seek + rotational latency) and media
// transfer time for req given the current head state.
func (d *HDD) serviceTime(req storage.Request) (positioning, transfer simtime.Duration) {
	sequential := req.Offset == d.lastEnd
	if !sequential {
		target := d.cylinderOf(req.Offset)
		dist := target - d.headCyl
		if dist < 0 {
			dist = -dist
		}
		positioning = d.seekTime(dist) + d.rotationalLatency()
	}
	transfer = d.transferTime(req.Offset, req.Size)
	return positioning, transfer
}

// seekTime maps a cylinder distance to arm travel time with the usual
// concave (square-root) short-seek region blending into the full-stroke
// bound.  Distance zero costs nothing (same-cylinder access still pays
// rotational latency, charged separately).
func (d *HDD) seekTime(cylinders int64) simtime.Duration {
	if cylinders <= 0 {
		return 0
	}
	frac := float64(cylinders) / float64(d.params.Cylinders)
	if frac > 1 {
		frac = 1
	}
	t2t := d.params.TrackToTrackSeek.Seconds()
	full := d.params.FullStrokeSeek.Seconds()
	secs := t2t + (full-t2t)*math.Sqrt(frac)
	return simtime.FromSeconds(secs)
}

// rotationalLatency samples a uniform fraction of one revolution.
func (d *HDD) rotationalLatency() simtime.Duration {
	revSecs := 60.0 / (d.params.RPM * d.rpmFrac)
	return simtime.FromSeconds(d.rng.Float64() * revSecs)
}

// transferTime divides the request size by the zoned media rate at its
// address: outer (low) addresses transfer faster than inner ones.
func (d *HDD) transferTime(offset, size int64) simtime.Duration {
	frac := float64(offset) / float64(d.params.CapacityBytes)
	if frac > 1 {
		frac = 1
	}
	mbps := (d.params.OuterMBps - (d.params.OuterMBps-d.params.InnerMBps)*frac) * d.rpmFrac
	bytesPerSec := mbps * 1e6
	return simtime.FromSeconds(float64(size) / bytesPerSec)
}

func (d *HDD) cylinderOf(offset int64) int64 {
	if offset < 0 {
		offset = 0
	}
	cyl := offset * d.params.Cylinders / d.params.CapacityBytes
	if cyl >= d.params.Cylinders {
		cyl = d.params.Cylinders - 1
	}
	return cyl
}

// foldOffset maps an out-of-range request onto the device by wrapping
// the start address modulo the capacity, keeping the transfer inside
// the device.  Alignment within the wrapped region is preserved.
func foldOffset(offset, size, capacity int64) int64 {
	if size >= capacity {
		return 0
	}
	if offset+size <= capacity {
		return offset
	}
	off := offset % capacity
	if off+size > capacity {
		off = capacity - size
	}
	return off
}

var _ storage.Device = (*HDD)(nil)
