package disksim

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// SSDParams describe an SLC solid-state disk model.
type SSDParams struct {
	// Name labels the device.
	Name string
	// CapacityBytes is the addressable capacity.
	CapacityBytes int64
	// Channels is the number of independent flash channels the
	// controller stripes requests across.
	Channels int
	// PageBytes is the flash page size.
	PageBytes int64
	// ReadPage and ProgramPage are per-page flash latencies.
	ReadPage, ProgramPage simtime.Duration
	// ChannelMBps bounds the per-channel bus transfer rate.
	ChannelMBps float64
	// CmdOverhead is fixed per-request controller latency.
	CmdOverhead simtime.Duration
	// RandomWriteAmp inflates program cost for non-sequential writes:
	// steady-state garbage collection relocates pages.  1.0 disables.
	RandomWriteAmp float64
	// SmallRandomPenalty is extra per-request latency for random
	// accesses smaller than a page (mapping lookups, partial-page
	// reads); keeps random small-IO throughput below sequential.
	SmallRandomPenalty simtime.Duration
	// IdleW, ReadW, WriteW are the power states.  The paper reports
	// 3.5 W idle per Memoright SLC SSD (Section VI-G).
	IdleW, ReadW, WriteW float64
	// Seed reserves a reproducible RNG stream (jitter, GC timing).
	Seed uint64
}

// MemorightSLC32 returns parameters modelled on the 32 GB Memoright SLC
// drives in the paper's testbed (Table II).
func MemorightSLC32() SSDParams {
	return SSDParams{
		Name:               "memoright-slc-32g",
		CapacityBytes:      32 * 1000 * 1000 * 1000,
		Channels:           4,
		PageBytes:          4096,
		ReadPage:           25 * simtime.Microsecond,
		ProgramPage:        220 * simtime.Microsecond,
		ChannelMBps:        80,
		CmdOverhead:        60 * simtime.Microsecond,
		RandomWriteAmp:     2.2,
		SmallRandomPenalty: 30 * simtime.Microsecond,
		IdleW:              3.5,
		ReadW:              6.0,
		WriteW:             8.5,
		Seed:               1,
	}
}

// Resized returns a copy of p renamed and with the given capacity: the
// service-time and power model of the base device applied to a
// different-sized part, e.g. a small cache-tier SSD cut from the
// Memoright model.
func (p SSDParams) Resized(name string, capacityBytes int64) SSDParams {
	p.Name = name
	p.CapacityBytes = capacityBytes
	return p
}

// SSDStats accumulate per-device accounting.
type SSDStats struct {
	// Served counts completed requests.
	Served int64
	// BusyTime is total service time.
	BusyTime simtime.Duration
	// BytesRead and BytesWritten count payload.
	BytesRead, BytesWritten int64
	// GCAmplifiedWrites counts writes that paid the random-write
	// amplification factor.
	GCAmplifiedWrites int64
}

type ssdPending struct {
	req  storage.Request
	done func(simtime.Time)
}

// SSD is a solid-state-disk model attached to a simulation engine.
// Requests queue FIFO; internal channel parallelism is folded into the
// service-time formula.
type SSD struct {
	engine *simtime.Engine
	params SSDParams
	power  *powersim.StateMachine
	rng    *rand.Rand

	queue    storage.FIFO[ssdPending]
	inflight ssdPending // the request being served (device is strictly serial)
	busy     bool
	lastEnd  int64

	stats SSDStats
	tel   *telemetry.DiskProbe
}

// Name reports the device's configured label.
func (d *SSD) Name() string { return d.params.Name }

// AttachTelemetry arms the device with a telemetry probe recording
// service starts and idle transitions.  A nil probe disables
// instrumentation at the cost of one pointer compare per service.
func (d *SSD) AttachTelemetry(p *telemetry.DiskProbe) { d.tel = p }

// OnEvent implements simtime.Handler: the device is its own prebound
// service-completion callback, so the hot completion path allocates
// nothing in the kernel.
func (d *SSD) OnEvent(e *simtime.Engine, _ simtime.EventArg) {
	finish := e.Now()
	p := d.inflight
	d.inflight = ssdPending{}
	d.stats.Served++
	switch p.req.Op {
	case storage.Read:
		d.stats.BytesRead += p.req.Size
	case storage.Write:
		d.stats.BytesWritten += p.req.Size
	}
	d.lastEnd = p.req.End()
	if d.queue.Len() > 0 {
		d.startNext()
	} else {
		d.busy = false
		d.power.Transition(finish, "idle")
		d.tel.OnIdle(finish)
	}
	p.done(finish)
}

// NewSSD creates a device on the given engine, starting idle.
func NewSSD(engine *simtime.Engine, params SSDParams) *SSD {
	if params.CapacityBytes <= 0 {
		panic("disksim: SSD capacity must be positive")
	}
	if params.Channels <= 0 {
		params.Channels = 1
	}
	if params.PageBytes <= 0 {
		params.PageBytes = 4096
	}
	if params.RandomWriteAmp < 1 {
		params.RandomWriteAmp = 1
	}
	sm := powersim.NewStateMachine(map[string]float64{
		"idle": params.IdleW, "read": params.ReadW, "write": params.WriteW,
	}, "idle")
	return &SSD{
		engine:  engine,
		params:  params,
		power:   sm,
		rng:     rand.New(rand.NewPCG(params.Seed, 0x55d)),
		lastEnd: -1,
	}
}

// Capacity implements storage.Device.
func (d *SSD) Capacity() int64 { return d.params.CapacityBytes }

// Timeline exposes the power timeline for metering.
func (d *SSD) Timeline() *powersim.Timeline { return d.power.Timeline() }

// Stats returns a snapshot of the accounting counters.
func (d *SSD) Stats() SSDStats { return d.stats }

// QueueDepth reports queued-but-unstarted requests.
func (d *SSD) QueueDepth() int { return d.queue.Len() }

// CheckInvariants verifies the device's internal accounting.  It is
// meaningful once the simulation has drained; call it after engine.Run
// returns.  now is the engine clock, bounding wall time since the
// device was created at time zero.
func (d *SSD) CheckInvariants(now simtime.Time) error {
	if d.inflight.done != nil {
		return fmt.Errorf("disksim: %s: request still in flight at %v", d.params.Name, now)
	}
	s := d.stats
	if s.BusyTime < 0 {
		return fmt.Errorf("disksim: %s: negative busy time %v", d.params.Name, s.BusyTime)
	}
	if s.BusyTime > now.Sub(0) {
		return fmt.Errorf("disksim: %s: busy time %v exceeds wall time %v", d.params.Name, s.BusyTime, now)
	}
	if min := simtime.Duration(s.Served) * d.params.CmdOverhead; s.BusyTime < min {
		return fmt.Errorf("disksim: %s: busy time %v below %d command overheads (%v)", d.params.Name, s.BusyTime, s.Served, min)
	}
	if s.GCAmplifiedWrites > s.Served {
		return fmt.Errorf("disksim: %s: %d GC-amplified writes for %d served requests", d.params.Name, s.GCAmplifiedWrites, s.Served)
	}
	if s.BytesRead < 0 || s.BytesWritten < 0 {
		return fmt.Errorf("disksim: %s: negative byte counters %+v", d.params.Name, s)
	}
	return d.power.Timeline().CheckMonotone()
}

// ServedOps reports the number of requests completed; the conformance
// layer cross-checks it against the RAID controller's issued-operation
// counters.
func (d *SSD) ServedOps() int64 { return d.stats.Served }

// Submit implements storage.Device.
func (d *SSD) Submit(req storage.Request, done func(simtime.Time)) {
	if err := req.Validate(0); err != nil {
		panic(fmt.Sprintf("disksim: invalid request: %v", err))
	}
	req.Offset = foldOffset(req.Offset, req.Size, d.params.CapacityBytes)
	d.queue.Push(ssdPending{req: req, done: done})
	if !d.busy {
		d.busy = true
		d.startNext()
	}
}

func (d *SSD) startNext() {
	p := d.queue.Take(0)
	now := d.engine.Now()

	st := d.params.CmdOverhead + d.serviceTime(p.req)
	finish := now.Add(st)

	state := "read"
	if p.req.Op == storage.Write {
		state = "write"
	}
	d.power.Transition(now, state)
	d.stats.BusyTime += st
	// No mechanical positioning on flash: the whole service period is
	// transfer from the probe's point of view.
	d.tel.OnService(p.req.Op == storage.Write, now, 0, st, st)

	d.inflight = p
	d.engine.ScheduleEvent(finish, d, simtime.EventArg{})
}

// serviceTime models the flash array: the request is split into pages,
// pages are striped over channels, and each channel pipeline pays flash
// latency plus bus transfer per page.  Random writes pay garbage-
// collection amplification; small random accesses pay a mapping
// penalty.  No mechanical positioning exists, so "random" costs far
// less than on an HDD — the paper's central SSD observation.
func (d *SSD) serviceTime(req storage.Request) simtime.Duration {
	pages := (req.Size + d.params.PageBytes - 1) / d.params.PageBytes
	perChannel := (pages + int64(d.params.Channels) - 1) / int64(d.params.Channels)

	var flashPer simtime.Duration
	sequential := req.Offset == d.lastEnd
	switch req.Op {
	case storage.Read:
		flashPer = d.params.ReadPage
	case storage.Write:
		flashPer = d.params.ProgramPage
		if !sequential && d.params.RandomWriteAmp > 1 {
			flashPer = simtime.FromSeconds(flashPer.Seconds() * d.params.RandomWriteAmp)
			d.stats.GCAmplifiedWrites++
		}
	}
	busPer := simtime.FromSeconds(float64(d.params.PageBytes) / (d.params.ChannelMBps * 1e6))

	st := simtime.Duration(perChannel) * (flashPer + busPer)
	if !sequential {
		st += d.params.SmallRandomPenalty
	}
	return st
}

var _ storage.Device = (*SSD)(nil)
