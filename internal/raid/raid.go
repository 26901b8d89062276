// Package raid models the disk-array controller the paper tests: a
// RAID-5 enterprise array with a 128 KB strip size and its controller
// cache disabled, plus a RAID-0 mode used by ablation experiments.
//
// The array implements storage.Device on top of per-disk models from
// internal/disksim.  Reads are striped across member disks.  RAID-5
// writes follow the classic two cases:
//
//   - full-stripe writes compute parity in the controller and write all
//     member strips concurrently;
//   - partial writes perform read-modify-write: old data and old parity
//     are read first, then new data and new parity are written.
//
// Power: member-disk timelines plus a constant chassis draw (controller,
// fans, backplane) feed a PSU model producing the 220 V AC wall power
// the paper's Hall-effect meter clamps.  Fig. 7's experiment — idle
// power versus populated disk count — falls straight out of this
// structure.
package raid

import (
	"fmt"

	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Level selects the array organisation.
type Level int

const (
	// RAID0 stripes without redundancy.
	RAID0 Level = iota
	// RAID5 stripes with rotating parity.
	RAID5
)

// String names the level.
func (l Level) String() string {
	switch l {
	case RAID0:
		return "RAID0"
	case RAID5:
		return "RAID5"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Disk is a member device: block service plus a power timeline.
// *disksim.HDD and *disksim.SSD both satisfy it.
type Disk interface {
	storage.Device
	Timeline() *powersim.Timeline
}

// ChassisParams model the non-disk components of the enclosure:
// controller, fans, motherboard (paper Section VI-A) and the power
// supply converting to wall power.
type ChassisParams struct {
	// BaseW is the constant DC draw of the non-disk components.
	BaseW float64
	// PSUEfficiency converts DC load to AC wall power.
	PSUEfficiency float64
	// PSUStandbyW is constant AC-side loss.
	PSUStandbyW float64
}

// Params configure an array.
type Params struct {
	// Level is RAID0 or RAID5.
	Level Level
	// StripBytes is the per-disk strip size (paper: 128 KB).
	StripBytes int64
	// CmdOverhead is controller latency added to each array request.
	CmdOverhead simtime.Duration
	// Chassis models the enclosure's non-disk power.
	Chassis ChassisParams
}

// HDDChassis returns chassis parameters calibrated so the reproduction
// of Fig. 7 keeps the paper's shape: the empty enclosure draws ~23 W at
// the wall and member-disk power dominates beyond three disks.
func HDDChassis() ChassisParams {
	return ChassisParams{BaseW: 18, PSUEfficiency: 0.85, PSUStandbyW: 2}
}

// SSDChassis returns chassis parameters calibrated to the paper's
// measured 195.8 W idle for the 4-SSD array (Section VI-G): the SSD
// enclosure is a full SAN controller whose base draw dwarfs its drives.
func SSDChassis() ChassisParams {
	return ChassisParams{BaseW: 150.7, PSUEfficiency: 0.85, PSUStandbyW: 2}
}

// DefaultParams returns the paper's RAID-5 configuration: 128 KB strip,
// cache disabled (no cache model exists at all), HDD chassis.
func DefaultParams() Params {
	return Params{
		Level:       RAID5,
		StripBytes:  128 * 1024,
		CmdOverhead: 50 * simtime.Microsecond,
		Chassis:     HDDChassis(),
	}
}

// Stats count controller-level operations.
type Stats struct {
	// Reads and Writes count array-level requests served.
	Reads, Writes int64
	// DiskReads and DiskWrites count member-disk operations issued,
	// including parity traffic.
	DiskReads, DiskWrites int64
	// ParityReads and ParityWrites count the parity-disk portion.
	ParityReads, ParityWrites int64
	// FullStripeWrites and RMWStripes classify write stripes.
	FullStripeWrites, RMWStripes int64
	// ReconstructReads counts reads served by XOR-reconstruction from
	// the surviving members (degraded mode).
	ReconstructReads int64
	// DegradedStripes counts write stripes planned in degraded mode.
	DegradedStripes int64
	// RebuildReads and RebuildWrites count background-rebuild member
	// operations (survivor reads, replacement writes).  They ride
	// separate counters from DiskReads/DiskWrites so the foreground
	// write-path algebra stays exactly checkable.
	RebuildReads, RebuildWrites int64
	// RebuildBytes counts bytes written to the replacement member.
	RebuildBytes int64
	// RebuildsStarted and RebuildsCompleted count rebuild operations.
	RebuildsStarted, RebuildsCompleted int64
}

// Array is a simulated disk array.
type Array struct {
	engine *simtime.Engine
	params Params
	disks  []Disk
	// diskCap is the smallest member capacity.  The members never
	// change, so New computes it once for Capacity and Submit.
	diskCap int64

	chassis *powersim.Timeline
	failed  int // index of the failed member, or -1 when healthy
	stats   Stats
	tel     *telemetry.RAIDProbe
	// landed counts foreground member-op completions; once drained it
	// must equal DiskReads+DiskWrites.
	landed int64

	rebuild *rebuildRun // in-flight background rebuild, or nil

	// Planning scratch reused by every request.  A request is planned
	// in full before any of its member ops completes, so one set per
	// array is enough.
	segs          []segment
	plans         []stripePlan
	reads, writes []plannedOp
	// free is a LIFO list of idle commands.  Only the goroutine driving
	// the array's engine touches it.
	free []*pendingCmd
}

// diskAttacher is satisfied by disk models that accept a telemetry
// probe (HDD and SSD both do).
type diskAttacher interface {
	AttachTelemetry(*telemetry.DiskProbe)
}

// named is satisfied by disk models that expose their configured name.
type named interface {
	Name() string
}

// AttachTelemetry wires the array and its member disks into s: stripe
// path and parity counters on the controller, a per-disk queue-depth
// probe gauge, and a DiskProbe handed to each member that accepts one.
// A nil Set detaches nothing and costs nothing — probe methods on nil
// receivers are no-ops.
func (a *Array) AttachTelemetry(s *telemetry.Set) {
	if s == nil {
		return
	}
	a.tel = telemetry.NewRAIDProbe(s)
	reg := s.Registry()
	for i, d := range a.disks {
		label := fmt.Sprintf("%d", i)
		if n, ok := d.(named); ok && n.Name() != "" {
			label = n.Name()
		}
		if qd, ok := d.(interface{ QueueDepth() int }); ok {
			reg.ProbeGauge(fmt.Sprintf("raid.disk.%s.qdepth", label), func() float64 {
				return float64(qd.QueueDepth())
			})
		}
		if at, ok := d.(diskAttacher); ok {
			at.AttachTelemetry(telemetry.NewDiskProbe(s, label, i))
		}
	}
}

// FailDisk marks member i failed (RAID5 only): subsequent reads that
// touch it are served by reconstruction from the survivors, and writes
// follow the degraded paths.  A second failure is rejected — RAID5
// tolerates exactly one.
func (a *Array) FailDisk(i int) error {
	if a.params.Level != RAID5 {
		return fmt.Errorf("raid: %v has no redundancy to run degraded", a.params.Level)
	}
	if i < 0 || i >= len(a.disks) {
		return fmt.Errorf("raid: no member %d", i)
	}
	if a.failed >= 0 {
		return fmt.Errorf("raid: member %d already failed; RAID5 tolerates one failure", a.failed)
	}
	a.failed = i
	return nil
}

// RestoreDisk brings the offline member back into the array.  Energy
// studies use FailDisk/RestoreDisk as a reversible logical spin-down
// (eRAID-style): while one member rests, its reads are served by
// reconstruction.  A production array would resynchronise stale strips
// on restore; the performance model treats restoration as immediate
// and leaves data consistency out of scope (no payload is stored).
func (a *Array) RestoreDisk() {
	a.failed = -1
}

// Healthy reports whether all members are online.
func (a *Array) Healthy() bool { return a.failed < 0 }

// New assembles an array over the given member disks.  RAID5 requires
// at least three members; RAID0 at least one.  All members should have
// equal capacity; the smallest bounds the geometry.
func New(engine *simtime.Engine, params Params, disks []Disk) (*Array, error) {
	if params.StripBytes <= 0 {
		return nil, fmt.Errorf("raid: strip size must be positive, got %d", params.StripBytes)
	}
	min := 1
	if params.Level == RAID5 {
		min = 3
	}
	if len(disks) < min {
		return nil, fmt.Errorf("raid: %v needs >= %d disks, got %d", params.Level, min, len(disks))
	}
	if params.Level != RAID0 && params.Level != RAID5 {
		return nil, fmt.Errorf("raid: unsupported level %v", params.Level)
	}
	diskCap := disks[0].Capacity()
	for _, d := range disks[1:] {
		if c := d.Capacity(); c < diskCap {
			diskCap = c
		}
	}
	return &Array{
		engine:  engine,
		params:  params,
		disks:   disks,
		diskCap: diskCap,
		chassis: powersim.NewTimeline(params.Chassis.BaseW),
		failed:  -1,
	}, nil
}

// NewHDDArray builds a RAID array of n identical HDDs, seeding each
// drive's RNG distinctly so rotational latencies decorrelate.
// Member i is seeded drive.Seed + i*1000003 and named "<drive.Name>-i".
func NewHDDArray(engine *simtime.Engine, params Params, n int, drive disksim.HDDParams) (*Array, error) {
	disks := make([]Disk, n)
	for i := range disks {
		p := drive
		p.Seed = drive.Seed + uint64(i)*1000003
		p.Name = fmt.Sprintf("%s-%d", drive.Name, i)
		disks[i] = disksim.NewHDD(engine, p)
	}
	return New(engine, params, disks)
}

// NewSSDArray builds a RAID array of n identical SSDs, seeded and named
// like NewHDDArray's members.
func NewSSDArray(engine *simtime.Engine, params Params, n int, drive disksim.SSDParams) (*Array, error) {
	disks := make([]Disk, n)
	for i := range disks {
		p := drive
		p.Seed = drive.Seed + uint64(i)*1000003
		p.Name = fmt.Sprintf("%s-%d", drive.Name, i)
		disks[i] = disksim.NewSSD(engine, p)
	}
	return New(engine, params, disks)
}

// Capacity implements storage.Device: usable data capacity.
func (a *Array) Capacity() int64 {
	switch a.params.Level {
	case RAID5:
		return a.diskCap * int64(len(a.disks)-1)
	default:
		return a.diskCap * int64(len(a.disks))
	}
}

// Disks exposes the member devices (experiments inspect per-disk stats).
func (a *Array) Disks() []Disk { return a.disks }

// Stats returns a snapshot of controller counters.
func (a *Array) Stats() Stats { return a.stats }

// FrontServed reports the total array-level requests served (reads plus
// writes).  Tiered front ends (the cache layer) cross-check this
// against their own issued-operation counters: after a drained run,
// every miss fill, bypass and writeback must have reached the array.
func (a *Array) FrontServed() int64 { return a.stats.Reads + a.stats.Writes }

// PowerSource returns the wall-power source for this array: disks plus
// chassis behind the PSU.  Feed it to a powersim.Meter.
func (a *Array) PowerSource() powersim.Source {
	sum := powersim.Sum{a.chassis}
	for _, d := range a.disks {
		sum = append(sum, d.Timeline())
	}
	eff := a.params.Chassis.PSUEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	return powersim.PSU{Source: sum, Efficiency: eff, StandbyW: a.params.Chassis.PSUStandbyW}
}

// memberChecker is satisfied by disk models that can self-verify their
// accounting (disksim.HDD and disksim.SSD); CheckInvariants delegates
// to it without coupling raid to the concrete model types.  An
// implementer's check ends with the CheckMonotone of the timeline its
// Timeline method returns, so the array checks that timeline itself
// only for members without one.
type memberChecker interface {
	CheckInvariants(now simtime.Time) error
}

// CheckInvariants verifies the controller's bookkeeping against the
// RAID-5 write-path algebra and delegates to each member disk's own
// self-check.  Call it after the simulation has drained: every member
// op the controller issued must have completed exactly once.
//
// For a healthy RAID-5 run the read-modify-write accounting is exact:
// every full-stripe write and every RMW stripe writes parity once, and
// only RMW stripes pre-read parity.  Once the array has run degraded
// (a failed member absorbed stripes or reconstruct-reads), parity
// traffic may legitimately be skipped, so the equalities relax to
// upper bounds.
func (a *Array) CheckInvariants() error {
	s := a.stats
	degradedRan := s.DegradedStripes > 0 || s.ReconstructReads > 0 || a.failed >= 0
	switch a.params.Level {
	case RAID5:
		if !degradedRan {
			if s.ParityWrites != s.FullStripeWrites+s.RMWStripes {
				return fmt.Errorf("raid: parity writes %d != full-stripe %d + RMW %d",
					s.ParityWrites, s.FullStripeWrites, s.RMWStripes)
			}
			if s.ParityReads != s.RMWStripes {
				return fmt.Errorf("raid: parity reads %d != RMW stripes %d", s.ParityReads, s.RMWStripes)
			}
		} else {
			if s.ParityWrites > s.FullStripeWrites+s.RMWStripes {
				return fmt.Errorf("raid: degraded parity writes %d exceed full-stripe %d + RMW %d",
					s.ParityWrites, s.FullStripeWrites, s.RMWStripes)
			}
			if s.ParityReads > s.RMWStripes {
				return fmt.Errorf("raid: degraded parity reads %d exceed RMW stripes %d", s.ParityReads, s.RMWStripes)
			}
		}
	default:
		if s.ParityReads != 0 || s.ParityWrites != 0 || s.FullStripeWrites != 0 || s.RMWStripes != 0 {
			return fmt.Errorf("raid: %v recorded parity traffic %+v", a.params.Level, s)
		}
	}
	// Rebuild accounting: every chunk reads from all survivors then
	// writes the replacement once, so after a completed rebuild the
	// reads are exactly (n-1) per write; a rebuild caught mid-chunk by
	// the end of the run may hold one chunk's reads with no write yet.
	if s.RebuildWrites > 0 || s.RebuildReads > 0 {
		survivors := int64(len(a.disks) - 1)
		lo, hi := survivors*s.RebuildWrites, survivors*(s.RebuildWrites+1)
		if a.rebuild == nil {
			hi = lo
		}
		if s.RebuildReads < lo || s.RebuildReads > hi {
			return fmt.Errorf("raid: rebuild reads %d outside [%d,%d] for %d writes over %d survivors",
				s.RebuildReads, lo, hi, s.RebuildWrites, survivors)
		}
	}
	if s.DiskWrites < s.ParityWrites {
		return fmt.Errorf("raid: disk writes %d below parity writes %d", s.DiskWrites, s.ParityWrites)
	}
	if s.DiskReads < s.ParityReads {
		return fmt.Errorf("raid: disk reads %d below parity reads %d", s.DiskReads, s.ParityReads)
	}
	if issued := s.DiskReads + s.DiskWrites; a.landed != issued {
		return fmt.Errorf("raid: %d member op completions landed for %d issued (a member dropped or repeated a completion)",
			a.landed, issued)
	}
	if err := a.chassis.CheckMonotone(); err != nil {
		return err
	}
	now := a.engine.Now()
	for i, d := range a.disks {
		var err error
		if mc, ok := d.(memberChecker); ok {
			err = mc.CheckInvariants(now)
		} else {
			err = d.Timeline().CheckMonotone()
		}
		if err != nil {
			return fmt.Errorf("raid: member %d: %w", i, err)
		}
	}
	return nil
}

// segment is one strip-aligned fragment of an array request mapped to a
// member disk.
type segment struct {
	disk       int
	diskOffset int64
	size       int64
	stripe     int64 // RAID5 stripe index (RAID0: row index)
	parityDisk int   // RAID5 only
}

// mapRange splits [off, off+size) into per-disk segments in address
// order.  The result lives in the array's scratch until the next call.
func (a *Array) mapRange(off, size int64) []segment {
	s := a.params.StripBytes
	n := int64(len(a.disks))
	segs := a.segs[:0]
	for size > 0 {
		strip := off / s
		within := off % s
		take := s - within
		if take > size {
			take = size
		}
		var seg segment
		switch a.params.Level {
		case RAID0:
			seg = segment{
				disk:       int(strip % n),
				diskOffset: (strip/n)*s + within,
				size:       take,
				stripe:     strip / n,
				parityDisk: -1,
			}
		case RAID5:
			dataPer := n - 1
			stripe := strip / dataPer
			k := strip % dataPer
			parity := int(stripe % n)
			disk := (parity + 1 + int(k)) % int(n)
			seg = segment{
				disk:       disk,
				diskOffset: stripe*s + within,
				size:       take,
				stripe:     stripe,
				parityDisk: parity,
			}
		}
		segs = append(segs, seg)
		off += take
		size -= take
	}
	a.segs = segs
	return segs
}

// pendingCmd carries one array request across the controller
// command-overhead delay, then serves as the join that completes it.
// A join counts the parts still outstanding in its current phase —
// member ops, or a RAID-5 write's stripe joins — and keeps the latest
// completion time.  A read-modify-write stripe's join also holds its
// write phase and issues it when the pre-reads land.  Commands recycle
// through the array's free list and bind their landing callback once,
// when first created, so a warm request path allocates nothing.
type pendingCmd struct {
	a    *Array
	req  storage.Request
	done func(simtime.Time)
	// parent is the request's command when this is a stripe join; the
	// stripe reports to it instead of calling done.
	parent  *pendingCmd
	waiting int
	latest  simtime.Time
	// writes is the write phase of a read-modify-write stripe.
	writes []plannedOp
	// land is onLand bound once: the callback member ops complete to.
	land func(simtime.Time)
}

// getCmd takes an idle command off the array's free list.
func (a *Array) getCmd() *pendingCmd {
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free = a.free[:n-1]
		return p
	}
	p := &pendingCmd{a: a}
	p.land = p.onLand
	return p
}

// putCmd returns a finished command to the free list.
func (a *Array) putCmd(p *pendingCmd) {
	p.req, p.done, p.parent, p.latest = storage.Request{}, nil, nil, 0
	a.free = append(a.free, p)
}

// OnEvent implements simtime.Handler: the command overhead has elapsed,
// plan and issue the member-disk operations.
func (p *pendingCmd) OnEvent(*simtime.Engine, simtime.EventArg) {
	a := p.a
	switch p.req.Op {
	case storage.Read:
		a.stats.Reads++
		a.issue(p, a.planRead(p.req))
	case storage.Write:
		a.stats.Writes++
		a.submitWrite(p)
	}
}

// onLand records one member op's completion.  A join waiting for
// nothing cannot be owed one: a member completed an op twice, and the
// join may already belong to a later request.
func (p *pendingCmd) onLand(t simtime.Time) {
	if p.waiting <= 0 {
		panic(fmt.Sprintf("raid: member op completion at %v landed on an idle join (a member completed an op twice)", t))
	}
	p.a.landed++
	p.arrive(t)
}

// arrive records one finished part of the join's current phase.  When
// the last part lands, a read-modify-write stripe issues its write
// phase; any other join recycles itself and passes its latest
// completion to its parent or, at the top, to done.
func (p *pendingCmd) arrive(t simtime.Time) {
	if t > p.latest {
		p.latest = t
	}
	if p.waiting--; p.waiting > 0 {
		return
	}
	a := p.a
	if len(p.writes) > 0 {
		writes := p.writes
		p.writes = p.writes[:0]
		a.issue(p, writes)
		return
	}
	parent, done, latest := p.parent, p.done, p.latest
	a.putCmd(p)
	if parent != nil {
		parent.arrive(latest)
		return
	}
	done(latest)
}

// Submit implements storage.Device.
func (a *Array) Submit(req storage.Request, done func(simtime.Time)) {
	if err := req.Validate(0); err != nil {
		panic(fmt.Sprintf("raid: invalid request: %v", err))
	}
	req.Offset = foldOffset(req.Offset, req.Size, a.Capacity())
	// Controller command overhead before member-disk issue.
	p := a.getCmd()
	p.req, p.done = req, done
	a.engine.AfterEvent(a.params.CmdOverhead, p, simtime.EventArg{})
}

// plannedOp is one member-disk operation planned by the controller.
type plannedOp struct {
	// Disk is the member index the operation targets.
	Disk int
	// Req is the member-disk request (offsets already in disk space).
	Req storage.Request
}

// plannedGroup is one dependency unit of an array request: all Reads
// complete first (phase 1), then all Writes issue concurrently (phase
// 2).  A group with no Reads issues its Writes immediately.  A RAID-5
// write yields one group per touched stripe (full-stripe groups carry
// only Writes, read-modify-write groups carry both phases).
type plannedGroup struct {
	Reads  []plannedOp
	Writes []plannedOp
}

// issue submits one phase of member ops against join j, which lands
// when the slowest of them completes.  Every phase holds at least one
// op: requests are non-empty, and a stripe always writes something.
func (a *Array) issue(j *pendingCmd, ops []plannedOp) {
	j.waiting, j.latest = len(ops), 0
	start := a.engine.Now()
	for _, op := range ops {
		switch op.Req.Op {
		case storage.Read:
			a.stats.DiskReads++
		case storage.Write:
			a.stats.DiskWrites++
		}
		if a.tel == nil {
			a.disks[op.Disk].Submit(op.Req, j.land)
			continue
		}
		// The span closure captures the op's identity; it exists only on
		// the instrumented path so disabled telemetry allocates nothing.
		disk, write, size := op.Disk, op.Req.Op == storage.Write, op.Req.Size
		a.disks[op.Disk].Submit(op.Req, func(t simtime.Time) {
			a.tel.OnDiskOp(disk, write, start, t, size)
			j.land(t)
		})
	}
}

// planRead maps a read onto member ops.  Segments on a failed member
// are reconstructed by reading the same byte range from every survivor
// of the stripe and XOR-ing in controller memory.
func (a *Array) planRead(req storage.Request) []plannedOp {
	ops := a.reads[:0]
	for _, seg := range a.mapRange(req.Offset, req.Size) {
		if seg.disk == a.failed {
			a.stats.ReconstructReads++
			a.tel.OnReconstructRead()
			for j := range a.disks {
				if j == a.failed {
					continue
				}
				ops = append(ops, plannedOp{Disk: j, Req: storage.Request{Op: storage.Read, Offset: seg.diskOffset, Size: seg.size}})
			}
			continue
		}
		ops = append(ops, plannedOp{Disk: seg.disk, Req: storage.Request{Op: storage.Read, Offset: seg.diskOffset, Size: seg.size}})
	}
	a.reads = ops
	return ops
}

// stripePlan groups a write's segments that fall in one RAID-5 stripe.
type stripePlan struct {
	stripe     int64
	parityDisk int
	segs       []segment
	fullStripe bool
	// parityOffset/paritySize is the union byte range the parity strip
	// must be updated over.
	parityOffset, paritySize int64
}

// submitWrite executes the RAID-0 or RAID-5 write path for command p.
// A RAID-5 write gives each touched stripe its own join, and p waits
// for the stripes.
func (a *Array) submitWrite(p *pendingCmd) {
	segs := a.mapRange(p.req.Offset, p.req.Size)
	if a.params.Level == RAID0 {
		a.issue(p, a.planWriteRAID0(segs))
		return
	}
	plans := a.planStripes(segs)
	p.waiting = len(plans)
	for _, sp := range plans {
		g := a.planStripeWrite(sp)
		j := a.getCmd()
		j.parent = p
		if len(g.Reads) == 0 {
			a.issue(j, g.Writes)
			continue
		}
		j.writes = append(j.writes, g.Writes...)
		a.issue(j, g.Reads)
	}
}

// planWriteRAID0 maps write segments straight onto member strips.
func (a *Array) planWriteRAID0(segs []segment) []plannedOp {
	ops := a.writes[:0]
	for _, seg := range segs {
		ops = append(ops, plannedOp{Disk: seg.disk, Req: storage.Request{Op: storage.Write, Offset: seg.diskOffset, Size: seg.size}})
	}
	a.writes = ops
	return ops
}

// planStripes groups a write's segments by stripe and classifies each
// stripe as a full-stripe write or a read-modify-write.  Segments come
// in address order, so each stripe's segments are adjacent.
func (a *Array) planStripes(segs []segment) []stripePlan {
	strip := a.params.StripBytes
	dataWidth := int64(len(a.disks) - 1)
	plans := a.plans[:0]
	for i := 0; i < len(segs); {
		first := segs[i]
		j := i + 1
		for j < len(segs) && segs[j].stripe == first.stripe {
			j++
		}
		p := stripePlan{stripe: first.stripe, parityDisk: first.parityDisk, segs: segs[i:j]}
		// The parity strip is updated over the union of the segments'
		// byte ranges.
		lo, hi := first.diskOffset, first.diskOffset+first.size
		var covered int64
		full := true
		for _, seg := range p.segs {
			lo, hi = min(lo, seg.diskOffset), max(hi, seg.diskOffset+seg.size)
			covered += seg.size
			if seg.size != strip || seg.diskOffset != p.stripe*strip {
				full = false
			}
		}
		p.parityOffset, p.paritySize = lo, hi-lo
		p.fullStripe = full && covered == dataWidth*strip
		plans = append(plans, p)
		i = j
	}
	a.plans = plans
	return plans
}

// planStripeWrite plans either a full-stripe write (write all data
// strips plus parity) or read-modify-write (read old data and old
// parity, then write new data and new parity).  In degraded mode the
// plan adapts: a failed parity disk drops all parity traffic; a failed
// data disk forces reconstruct-write — read the union range from every
// surviving data disk to recompute parity, skip the lost data write.
func (a *Array) planStripeWrite(p stripePlan) plannedGroup {
	degraded := a.failed >= 0 && a.stripeTouchesFailed(p)
	if degraded {
		a.stats.DegradedStripes++
	}
	parityAlive := p.parityDisk != a.failed

	writes := a.writes[:0]
	for _, seg := range p.segs {
		if seg.disk == a.failed {
			continue // the lost member absorbs no writes; parity covers it
		}
		writes = append(writes, plannedOp{Disk: seg.disk, Req: storage.Request{Op: storage.Write, Offset: seg.diskOffset, Size: seg.size}})
	}
	if parityAlive {
		a.stats.ParityWrites++
		a.tel.OnParity(false)
		writes = append(writes, plannedOp{Disk: p.parityDisk, Req: storage.Request{Op: storage.Write, Offset: p.parityOffset, Size: p.paritySize}})
	}
	a.writes = writes

	if p.fullStripe {
		a.stats.FullStripeWrites++
		a.tel.OnStripeWrite(true, degraded)
		// Parity is computed from the new data in controller memory —
		// no pre-reads needed.
		return plannedGroup{Writes: writes}
	}

	a.stats.RMWStripes++
	a.tel.OnStripeWrite(false, degraded)
	reads := a.reads[:0]
	switch {
	case !degraded:
		// Classic RMW: old data under each segment plus old parity.
		for _, seg := range p.segs {
			reads = append(reads, plannedOp{Disk: seg.disk, Req: storage.Request{Op: storage.Read, Offset: seg.diskOffset, Size: seg.size}})
		}
		a.stats.ParityReads++
		a.tel.OnParity(true)
		reads = append(reads, plannedOp{Disk: p.parityDisk, Req: storage.Request{Op: storage.Read, Offset: p.parityOffset, Size: p.paritySize}})
	case !parityAlive:
		// Parity lost: data writes need no pre-reads at all.
	default:
		// A data member lost: reconstruct-write.  Read the union range
		// from every surviving data disk so parity can be recomputed
		// from scratch.
		for j := range a.disks {
			if j == a.failed || j == p.parityDisk {
				continue
			}
			reads = append(reads, plannedOp{Disk: j, Req: storage.Request{Op: storage.Read, Offset: p.parityOffset, Size: p.paritySize}})
		}
	}
	a.reads = reads
	return plannedGroup{Reads: reads, Writes: writes}
}

// stripeTouchesFailed reports whether the plan involves the failed
// member (as a data target or as the parity disk).
func (a *Array) stripeTouchesFailed(p stripePlan) bool {
	if p.parityDisk == a.failed {
		return true
	}
	for _, seg := range p.segs {
		if seg.disk == a.failed {
			return true
		}
	}
	return false
}

// foldOffset wraps an out-of-range request into the array's data space,
// mirroring disksim's behaviour so traces from larger stores replay.
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

var _ storage.Device = (*Array)(nil)
