// Package cache implements a sim-time writeback cache tier that sits
// between replay admission and a backing storage device (typically a
// raid.Array), running on the shared simtime.Engine so it composes
// with every existing experiment driver.
//
// The model is a set-associative cache over fixed-size extents with
// pluggable admission (always, prefix zone, bypass-large-sequential),
// eviction (LRU, segmented-LRU/2Q, CLOCK) and dirty-writeback policies
// (high-water threshold, periodic flush, idle drain).  Two tier
// variants are supported: a DRAM tier whose service time is a fixed
// access latency plus transfer at a configured bandwidth and whose
// energy is a static per-GB power coefficient, and an SSD tier backed
// by the disksim flash service-time model so cache device time and
// energy are simulated rather than assumed.
//
// Writebacks are the interesting energy coupling: a cache that absorbs
// writes and drains them lazily reshapes the idle-interval distribution
// the conserve spin-down policies feed on.  The dirty bookkeeping is
// therefore exact — integer byte counts with a conservation invariant
// (BytesDirtied == WritebackBytes + DirtyBytes at every event boundary)
// enforced by CheckInvariants and the internal/check harness.
//
// A zero-capacity (or Tier "none") cache is a strict pass-through: it
// forwards Submit to the backing device without scheduling any event
// and reports the backing power source unchanged, so cached and
// uncached systems are byte-identical in that configuration.
package cache

import (
	"fmt"

	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// DefaultExtentBytes is the cache line granularity; 64 KiB matches the
// conserve JBOD chunk size so a cached extent maps onto one chunk.
const DefaultExtentBytes = 64 << 10

// The DRAM tier's model: a static power coefficient (a DDR4 DIMM
// background figure), a fixed per-access latency covering the full
// software path, and a transfer bandwidth.
const (
	dramWattsPerGB    = 0.375
	dramAccess        = 20 * simtime.Microsecond
	dramBandwidthMBps = 12800
)

// Tier names accepted by Params.Tier.
const (
	TierNone = "none"
	TierDRAM = "dram"
	TierSSD  = "ssd"
)

// Params configure a cache tier.  Zero values take the documented
// defaults; Tier "none" or CapacityBytes 0 yields a pass-through.
type Params struct {
	// Tier selects the cache device model: "none", "dram" or "ssd".
	Tier string
	// CapacityBytes is the cache size.  0 disables the cache.
	CapacityBytes int64
	// ExtentBytes is the line granularity (default 64 KiB).
	ExtentBytes int64
	// Ways is the set associativity (default 8).
	Ways int
	// Admission picks the install policy for missed extents:
	// "always" (default), "zone" (admit only the leading
	// AdmitZoneBytes of the backing address space) or "bypass-seq"
	// (bypass large or sequentially-continued requests).
	Admission string
	// AdmitZoneBytes bounds the "zone" policy; 0 means a quarter of
	// the backing capacity.
	AdmitZoneBytes int64
	// BypassBytes is the "bypass-seq" size/run threshold (default 1 MiB).
	BypassBytes int64
	// Eviction picks the victim policy: "lru" (default), "2q"
	// (segmented LRU) or "clock".
	Eviction string
	// DirtyHighRatio is the dirty-line high-water mark as a fraction
	// of capacity; crossing it drains the oldest dirty lines
	// synchronously (default 0.5; negative disables).
	DirtyHighRatio float64
	// FlushInterval is the periodic writeback cadence (default 1s;
	// negative disables).  The timer is armed only while dirty lines
	// exist so a drained cache schedules nothing.
	FlushInterval simtime.Duration
	// IdleDrain flushes all dirty lines after the front has been idle
	// this long (default 500ms; negative disables).  This is the knob
	// that interacts with conserve spin-down timeouts: a drain that
	// fires just before a disk's timeout keeps it awake.
	IdleDrain simtime.Duration
	// SSD parameterizes the SSD tier; a zero value takes
	// disksim.MemorightSLC32 resized to CapacityBytes.
	SSD disksim.SSDParams
}

func (p Params) withDefaults(backingCapacity int64) Params {
	if p.Tier == "" {
		p.Tier = TierNone
	}
	if p.ExtentBytes == 0 {
		p.ExtentBytes = DefaultExtentBytes
	}
	if p.Ways == 0 {
		p.Ways = 8
	}
	if p.Admission == "" {
		p.Admission = "always"
	}
	if p.AdmitZoneBytes == 0 && backingCapacity > 0 {
		p.AdmitZoneBytes = backingCapacity / 4
	}
	if p.BypassBytes == 0 {
		p.BypassBytes = 1 << 20
	}
	if p.Eviction == "" {
		p.Eviction = "lru"
	}
	if p.DirtyHighRatio == 0 {
		p.DirtyHighRatio = 0.5
	}
	if p.FlushInterval == 0 {
		p.FlushInterval = simtime.Second
	}
	if p.IdleDrain == 0 {
		p.IdleDrain = simtime.Second / 2
	}
	return p
}

// Stats accumulate cache accounting.  All fields are exact integers so
// results are byte-identical across worker counts.
type Stats struct {
	// Requests counts front-end Submits.
	Requests int64
	// Hits and Misses count extent-granularity accesses; a request
	// spanning two extents contributes two.
	Hits, Misses int64
	// Bypassed counts missed extents served directly from the backing
	// device without installation.
	Bypassed int64
	// Installs counts lines brought into the cache.
	Installs int64
	// Evictions counts lines displaced to make room; DirtyEvictions
	// is the subset that required a writeback first.
	Evictions, DirtyEvictions int64
	// Writebacks counts writeback IOs issued to the backing device;
	// WritebackBytes is their payload.
	WritebackBytes int64
	Writebacks     int64
	// BytesDirtied is the total growth of dirty unions; DirtyBytes is
	// what currently remains dirty.  The conservation invariant is
	// BytesDirtied == WritebackBytes + DirtyBytes.
	BytesDirtied int64
	DirtyBytes   int64
	// ThresholdDrains, FlushCycles and IdleDrains count writeback
	// policy activations.
	ThresholdDrains, FlushCycles, IdleDrains int64
	// BackingReads and BackingWrites count every operation the cache
	// submits to the backing device (miss fills, bypasses, writebacks,
	// pass-through).  After a drained run they must equal the backing
	// array's own front-served counters — the cross-check the check
	// layer runs.
	BackingReads, BackingWrites int64
	// Occupancy is the current number of valid lines; MaxOccupancy
	// its high-water mark.
	Occupancy, MaxOccupancy int
}

// HitRate reports hits over extent accesses (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// line is one cache slot.  A line is dirty when dirtyHi > dirtyLo; the
// dirty range is the union of all write fragments since the last
// writeback, so one writeback IO covers everything outstanding.
type line struct {
	extent           int64
	dirtyLo, dirtyHi int64
	dirtySeq         uint64
	lastUse          uint64
	ref              bool // CLOCK reference bit
	hot              bool // 2Q protected segment
	valid            bool
}

func (ln *line) dirty() bool { return ln.dirtyHi > ln.dirtyLo }

// dirtyRef is a dirty-FIFO entry; it matches its line only while the
// line's dirtySeq is unchanged, so entries staled by writebacks or
// evictions are skipped rather than re-flushing fresh data.
type dirtyRef struct {
	slot int
	seq  uint64
}

// frontOp tracks one front-end request split across tier accesses and
// backing reads; the last completion fires done.  Front ops recycle
// through the cache's free list and bind their landing callback once,
// when first created, so a warm request path allocates nothing.
type frontOp struct {
	c       *Cache
	pending int
	hit     bool
	start   simtime.Time
	done    func(simtime.Time)
	// land is onLand bound once: the callback SSD tier accesses and
	// bypass writes complete to.
	land func(simtime.Time)
}

func (fo *frontOp) onLand(t simtime.Time) { fo.c.opDone(fo, t) }

// OnEvent implements simtime.Handler: a DRAM tier access is scheduled
// on the front op it serves.
func (fo *frontOp) OnEvent(e *simtime.Engine, _ simtime.EventArg) { fo.c.opDone(fo, e.Now()) }

// fill is one backing read of a run of missed extents.  It installs
// the admitted extents when the read lands, then retires its part of
// the front op.  Fills recycle like front ops.
type fill struct {
	c       *Cache
	fo      *frontOp
	extents []int64 // admitted extents to install on landing
	land    func(simtime.Time)
}

func (f *fill) onLand(t simtime.Time) {
	c, fo := f.c, f.fo
	if fo == nil {
		panic(fmt.Sprintf("cache: backing read completion at %v landed on an idle fill (the backing device completed a read twice)", t))
	}
	for _, e := range f.extents {
		if _, ok := c.lookup(e); ok {
			continue // a concurrent miss already filled it
		}
		c.install(e, t)
	}
	f.fo, f.extents = nil, f.extents[:0]
	c.freeFills = append(c.freeFills, f)
	c.opDone(fo, t)
}

// Event kinds for the cache's simtime.Handler.
const (
	kindFlush = iota // periodic flush timer
	kindIdle         // idle-drain timer
)

// Cache is a writeback cache tier implementing storage.Device in front
// of a backing device.  Not safe for concurrent use; like every other
// device model it belongs to exactly one engine.
type Cache struct {
	engine     *simtime.Engine
	backing    storage.Device
	backingSrc powersim.Source
	params     Params

	passthrough   bool
	numSets, ways int
	capacityLines int
	dirtyHigh     int // dirty-line count above which the threshold drains
	lines         []line
	hands         []int // per-set CLOCK hands

	dram        *powersim.Timeline
	dramStaticW float64
	ssd         *disksim.SSD

	dirtyQueue storage.FIFO[dirtyRef]
	dirtyLines int
	dirtySeq   uint64
	useTick    uint64

	inflight      int
	outstandingWB int
	flushArmed    bool
	idle          *simtime.Timer // idle drain: Submit stops it, going quiet resets it

	lastEnd  int64 // sequential-run detection for bypass-seq
	runBytes int64

	// Request records and planning scratch.  A request is planned in
	// full before any of its sub-operations completes, so one
	// fragment buffer per cache is enough.  Only the goroutine driving
	// the cache's engine touches them.
	frags     []fragment
	freeOps   []*frontOp
	freeFills []*fill
	wbDone    func(simtime.Time) // writebackDone bound once

	stats Stats
	tel   *telemetry.CacheProbe
}

// Validate reports whether New accepts p in front of a device large
// enough to hold it: known tier, admission and eviction names, and a
// real tier's capacity of at least one extent.
func (p Params) Validate() error {
	p = p.withDefaults(0)
	switch p.Tier {
	case TierNone, TierDRAM, TierSSD:
	default:
		return fmt.Errorf("cache: unknown tier %q (want none, dram or ssd)", p.Tier)
	}
	switch p.Admission {
	case "always", "zone", "bypass-seq":
	default:
		return fmt.Errorf("cache: unknown admission policy %q (want always, zone or bypass-seq)", p.Admission)
	}
	switch p.Eviction {
	case "lru", "2q", "clock":
	default:
		return fmt.Errorf("cache: unknown eviction policy %q (want lru, 2q or clock)", p.Eviction)
	}
	if p.CapacityBytes < 0 {
		return fmt.Errorf("cache: negative capacity %d", p.CapacityBytes)
	}
	if p.ExtentBytes < 0 {
		return fmt.Errorf("cache: negative extent size %d", p.ExtentBytes)
	}
	if p.Tier != TierNone && p.CapacityBytes > 0 && p.CapacityBytes < p.ExtentBytes {
		return fmt.Errorf("cache: capacity %d below one %d-byte extent", p.CapacityBytes, p.ExtentBytes)
	}
	return nil
}

// New builds a cache tier in front of backing on engine.  backingSrc
// is the backing system's power source; PowerSource sums it with the
// tier's own draw (and returns it unchanged for a pass-through).  A
// real tier may hold at most the backing device's capacity.
func New(engine *simtime.Engine, backing storage.Device, backingSrc powersim.Source, p Params) (*Cache, error) {
	p = p.withDefaults(backing.Capacity())
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{engine: engine, backing: backing, backingSrc: backingSrc, params: p}
	c.wbDone = c.writebackDone
	if p.Tier == TierNone || p.CapacityBytes == 0 {
		c.passthrough = true
		return c, nil
	}
	if p.CapacityBytes > backing.Capacity() {
		return nil, fmt.Errorf("cache: capacity %d bytes exceeds the %d-byte backing device", p.CapacityBytes, backing.Capacity())
	}
	c.capacityLines = int(p.CapacityBytes / p.ExtentBytes)
	c.ways = p.Ways
	if c.ways > c.capacityLines {
		c.ways = c.capacityLines
	}
	c.numSets = c.capacityLines / c.ways
	c.capacityLines = c.numSets * c.ways
	c.lines = make([]line, c.capacityLines)
	c.idle = engine.NewTimer(c, simtime.EventArg{Kind: kindIdle})
	c.hands = make([]int, c.numSets)
	if p.DirtyHighRatio >= 0 {
		c.dirtyHigh = int(p.DirtyHighRatio * float64(c.capacityLines))
	} else {
		c.dirtyHigh = c.capacityLines + 1 // disabled
	}
	switch p.Tier {
	case TierDRAM:
		c.dramStaticW = float64(p.CapacityBytes) / float64(1<<30) * dramWattsPerGB
		c.dram = powersim.NewTimeline(c.dramStaticW)
	case TierSSD:
		sp := p.SSD
		if sp.CapacityBytes == 0 {
			sp = disksim.MemorightSLC32().Resized("cache-ssd", p.CapacityBytes)
		}
		if sp.CapacityBytes < p.CapacityBytes {
			return nil, fmt.Errorf("cache: SSD capacity %d below cache capacity %d", sp.CapacityBytes, p.CapacityBytes)
		}
		c.ssd = disksim.NewSSD(engine, sp)
	}
	return c, nil
}

// Passthrough reports whether the cache is a strict pass-through.
func (c *Cache) Passthrough() bool { return c.passthrough }

// Backing returns the device behind the cache.
func (c *Cache) Backing() storage.Device { return c.backing }

// SSD returns the SSD tier device, nil for DRAM or pass-through.
func (c *Cache) SSD() *disksim.SSD { return c.ssd }

// Stats returns a copy of the cache accounting.
func (c *Cache) Stats() Stats { return c.stats }

// Capacity implements storage.Device: the cache is address-transparent,
// so it reports the backing capacity.
func (c *Cache) Capacity() int64 { return c.backing.Capacity() }

// PowerSource reports wall power: the backing source plus the tier's
// own draw.  A pass-through returns the backing source unchanged so
// metering is byte-identical with the uncached system.
func (c *Cache) PowerSource() powersim.Source {
	if c.passthrough {
		return c.backingSrc
	}
	return powersim.Sum{c.backingSrc, c.TierSource()}
}

// TierSource reports the cache tier's own power draw; nil for a
// pass-through.
func (c *Cache) TierSource() powersim.Source {
	switch {
	case c.ssd != nil:
		return c.ssd.Timeline()
	case c.dram != nil:
		return c.dram
	default:
		return nil
	}
}

// AttachTelemetry registers the cache instruments on s (nil s is a
// no-op, matching the repo-wide nil-guarded probe convention).
func (c *Cache) AttachTelemetry(s *telemetry.Set) {
	if s == nil || c.passthrough {
		return
	}
	c.tel = telemetry.NewCacheProbe(s, c.params.Tier)
	s.Registry().ProbeGauge("cache."+c.params.Tier+".dirty_ratio", func() float64 {
		if c.capacityLines == 0 {
			return 0
		}
		return float64(c.dirtyLines) / float64(c.capacityLines)
	})
	s.Registry().ProbeGauge("cache."+c.params.Tier+".occupancy", func() float64 {
		return float64(c.stats.Occupancy)
	})
}

// submitBacking forwards one request to the backing device, counting it
// for the backing-op conservation cross-check in the check layer.
func (c *Cache) submitBacking(req storage.Request, done func(simtime.Time)) {
	if req.Op == storage.Write {
		c.stats.BackingWrites++
	} else {
		c.stats.BackingReads++
	}
	c.backing.Submit(req, done)
}

// Submit implements storage.Device.
func (c *Cache) Submit(req storage.Request, done func(simtime.Time)) {
	if c.passthrough {
		c.submitBacking(req, done)
		return
	}
	now := c.engine.Now()
	req.Offset = foldOffset(req.Offset, req.Size, c.backing.Capacity())
	c.stats.Requests++
	c.idle.Stop()
	c.inflight++

	// Sequential-run detection feeds the bypass-seq admission policy.
	if req.Offset == c.lastEnd {
		c.runBytes += req.Size
	} else {
		c.runBytes = req.Size
	}
	c.lastEnd = req.End()

	fo := c.getOp()
	fo.done, fo.hit, fo.start = done, true, now
	if req.Op == storage.Read {
		c.submitRead(fo, req)
	} else {
		c.submitWrite(fo, req, now)
	}
	if fo.pending == 0 {
		// Cannot happen (size > 0 yields at least one fragment), but
		// guarantee the done-exactly-once contract regardless.
		panic("cache: request produced no work")
	}
	if c.tel != nil {
		c.tel.OnSubmit(fo.hit)
	}
}

// fragment is the intersection of a request with one extent.
type fragment struct {
	extent  int64
	lo, hi  int64 // byte range within the extent
	install bool
}

// getOp takes an idle front op off the cache's free list.
func (c *Cache) getOp() *frontOp {
	if n := len(c.freeOps); n > 0 {
		fo := c.freeOps[n-1]
		c.freeOps = c.freeOps[:n-1]
		return fo
	}
	fo := &frontOp{c: c}
	fo.land = fo.onLand
	return fo
}

// getFill takes an idle fill off the cache's free list.
func (c *Cache) getFill() *fill {
	if n := len(c.freeFills); n > 0 {
		f := c.freeFills[n-1]
		c.freeFills = c.freeFills[:n-1]
		return f
	}
	f := &fill{c: c}
	f.land = f.onLand
	return f
}

// fragments splits [off, off+size) into per-extent pieces.  The result
// lives in the cache's scratch until the next call.
func (c *Cache) fragments(off, size int64) []fragment {
	eb := c.params.ExtentBytes
	end := off + size
	frags := c.frags[:0]
	for e := off / eb; e*eb < end; e++ {
		lo, hi := e*eb, (e+1)*eb
		if off > lo {
			lo = off
		}
		if end < hi {
			hi = end
		}
		frags = append(frags, fragment{extent: e, lo: lo - e*eb, hi: hi - e*eb})
	}
	c.frags = frags
	return frags
}

func (c *Cache) submitRead(fo *frontOp, req storage.Request) {
	frags := c.fragments(req.Offset, req.Size)
	// Hits are served from the tier; contiguous misses coalesce into
	// one backing read each and install on completion (hit-under-miss
	// never completes before the fill that would have provided data).
	run := 0 // frags[run:i] are misses not yet read
	for i := range frags {
		f := &frags[i]
		if slot, ok := c.lookup(f.extent); ok {
			c.issueFill(fo, frags[run:i])
			run = i + 1
			c.stats.Hits++
			c.touch(slot)
			c.tierAccess(fo, false, slot, f.lo, f.hi)
			continue
		}
		fo.hit = false
		c.stats.Misses++
		f.install = c.admit(req, f.extent)
		if !f.install {
			c.stats.Bypassed++
		}
	}
	c.issueFill(fo, frags[run:])
}

// issueFill reads a contiguous run of missed extents, if any, from the
// backing device and installs the admitted ones when the read lands.
func (c *Cache) issueFill(fo *frontOp, run []fragment) {
	if len(run) == 0 {
		return
	}
	eb := c.params.ExtentBytes
	first, last := run[0], run[len(run)-1]
	req := storage.Request{
		Op:     storage.Read,
		Offset: first.extent*eb + first.lo,
		Size:   last.extent*eb + last.hi - (first.extent*eb + first.lo),
	}
	fo.pending++
	f := c.getFill()
	f.fo = fo
	for _, fr := range run {
		if fr.install {
			f.extents = append(f.extents, fr.extent)
		}
	}
	c.submitBacking(req, f.land)
}

func (c *Cache) submitWrite(fo *frontOp, req storage.Request, now simtime.Time) {
	frags := c.fragments(req.Offset, req.Size)
	// Write-back, write-allocate: admitted fragments dirty the line
	// without touching the backing device (the dirty union tracks
	// exactly what must be written back, so no fill read is needed);
	// bypassed fragments coalesce into direct backing writes.
	run := 0 // frags[run:i] are bypassed fragments not yet written
	for i := range frags {
		f := &frags[i]
		if slot, ok := c.lookup(f.extent); ok {
			c.issueBypassWrite(fo, frags[run:i])
			run = i + 1
			c.stats.Hits++
			c.touch(slot)
			c.markDirty(slot, f.lo, f.hi, now)
			c.tierAccess(fo, true, slot, f.lo, f.hi)
			continue
		}
		fo.hit = false
		c.stats.Misses++
		if c.admit(req, f.extent) {
			c.issueBypassWrite(fo, frags[run:i])
			run = i + 1
			slot := c.install(f.extent, now)
			c.markDirty(slot, f.lo, f.hi, now)
			c.tierAccess(fo, true, slot, f.lo, f.hi)
			continue
		}
		c.stats.Bypassed++
	}
	c.issueBypassWrite(fo, frags[run:])
}

// issueBypassWrite sends a contiguous run of non-admitted write
// fragments, if any, straight to the backing device.
func (c *Cache) issueBypassWrite(fo *frontOp, run []fragment) {
	if len(run) == 0 {
		return
	}
	eb := c.params.ExtentBytes
	first, last := run[0], run[len(run)-1]
	req := storage.Request{
		Op:     storage.Write,
		Offset: first.extent*eb + first.lo,
		Size:   last.extent*eb + last.hi - (first.extent*eb + first.lo),
	}
	fo.pending++
	c.submitBacking(req, fo.land)
}

// tierAccess models the cache device time for one fragment: DRAM is
// fixed latency plus transfer, SSD goes through the flash model.  The
// slot index is the tier-device address, so a line keeps a stable SSD
// location for its lifetime.
func (c *Cache) tierAccess(fo *frontOp, write bool, slot int, lo, hi int64) {
	fo.pending++
	n := hi - lo
	if c.ssd != nil {
		op := storage.Read
		if write {
			op = storage.Write
		}
		req := storage.Request{Op: op, Offset: int64(slot)*c.params.ExtentBytes + lo, Size: n}
		c.ssd.Submit(req, fo.land)
		return
	}
	d := dramAccess + simtime.Duration(float64(n)/(dramBandwidthMBps*1e6)*float64(simtime.Second))
	c.engine.AfterEvent(d, fo, simtime.EventArg{})
}

// opDone retires one sub-operation; the last one completes the front
// request and recycles the front op.  Events fire in time order, so the
// final callback carries the max finish time.  An idle front op cannot
// be owed a completion: a device completed a request twice, and the op
// may already carry a later request.
func (c *Cache) opDone(fo *frontOp, t simtime.Time) {
	if fo.pending--; fo.pending > 0 {
		return
	}
	if fo.pending < 0 {
		panic(fmt.Sprintf("cache: sub-operation completion at %v landed on an idle front op (a device completed a request twice)", t))
	}
	c.inflight--
	done, hit, start := fo.done, fo.hit, fo.start
	fo.done = nil
	c.freeOps = append(c.freeOps, fo)
	if c.tel != nil {
		c.tel.OnComplete(hit, start, t)
	}
	done(t)
	if c.inflight == 0 {
		c.armIdle()
	}
}

// OnEvent implements simtime.Handler for the writeback timers.
func (c *Cache) OnEvent(e *simtime.Engine, arg simtime.EventArg) {
	switch arg.Kind {
	case kindFlush:
		c.flushArmed = false
		if c.dirtyLines > 0 {
			c.stats.FlushCycles++
			c.flushAll(e.Now())
		}
		// Re-arms only if something is dirty again (flushAll cleans
		// everything, so this keeps the engine drainable).
		c.armFlush()
	case kindIdle:
		// The timer runs only at the live deadline: any Submit since
		// armIdle stopped it, so the front is still quiet.
		if c.dirtyLines > 0 {
			c.stats.IdleDrains++
			c.flushAll(e.Now())
		}
	}
}

// CheckInvariants verifies the cache bookkeeping; the internal/check
// harness calls it after the engine drains.
func (c *Cache) CheckInvariants(now simtime.Time) error {
	if c.passthrough {
		return nil
	}
	if got := c.stats.WritebackBytes + c.stats.DirtyBytes; got != c.stats.BytesDirtied {
		return fmt.Errorf("cache: write conservation violated: dirtied %d != written back %d + still dirty %d",
			c.stats.BytesDirtied, c.stats.WritebackBytes, c.stats.DirtyBytes)
	}
	var valid, dirty int
	var dirtyBytes int64
	for s := 0; s < c.numSets; s++ {
		setValid := 0
		for w := 0; w < c.ways; w++ {
			ln := &c.lines[s*c.ways+w]
			if !ln.valid {
				continue
			}
			valid++
			setValid++
			if want := int(ln.extent % int64(c.numSets)); want != s {
				return fmt.Errorf("cache: extent %d resident in set %d, want %d", ln.extent, s, want)
			}
			if ln.dirtyLo < 0 || ln.dirtyHi > c.params.ExtentBytes || ln.dirtyHi < ln.dirtyLo {
				return fmt.Errorf("cache: line for extent %d has bad dirty range [%d,%d)", ln.extent, ln.dirtyLo, ln.dirtyHi)
			}
			if ln.dirty() {
				dirty++
				dirtyBytes += ln.dirtyHi - ln.dirtyLo
			}
		}
		if setValid > c.ways {
			return fmt.Errorf("cache: set %d holds %d lines, associativity %d", s, setValid, c.ways)
		}
	}
	if valid > c.capacityLines {
		return fmt.Errorf("cache: %d resident lines exceed capacity %d", valid, c.capacityLines)
	}
	if valid != c.stats.Occupancy {
		return fmt.Errorf("cache: occupancy stat %d != %d resident lines", c.stats.Occupancy, valid)
	}
	if dirty != c.dirtyLines {
		return fmt.Errorf("cache: dirty-line count %d != %d dirty lines resident", c.dirtyLines, dirty)
	}
	if dirtyBytes != c.stats.DirtyBytes {
		return fmt.Errorf("cache: dirty-byte stat %d != %d dirty bytes resident", c.stats.DirtyBytes, dirtyBytes)
	}
	if c.outstandingWB < 0 || c.inflight < 0 {
		return fmt.Errorf("cache: negative inflight accounting (front %d, writeback %d)", c.inflight, c.outstandingWB)
	}
	// After a full drain every dirty extent must have reached the
	// backing device ("no dirty extent lost"): the idle-drain timer
	// fires once the front goes quiet, so a drained engine implies a
	// clean cache.
	if c.engine.Pending() == 0 {
		if c.outstandingWB != 0 {
			return fmt.Errorf("cache: engine drained with %d writebacks outstanding", c.outstandingWB)
		}
		if c.inflight != 0 {
			return fmt.Errorf("cache: engine drained with %d front requests inflight", c.inflight)
		}
		if c.params.IdleDrain > 0 && c.dirtyLines > 0 {
			return fmt.Errorf("cache: engine drained with %d dirty lines unwritten", c.dirtyLines)
		}
	}
	if c.ssd != nil {
		if err := c.ssd.CheckInvariants(now); err != nil {
			return fmt.Errorf("cache ssd tier: %w", err)
		}
	}
	return nil
}

// foldOffset maps an out-of-range request onto the backing device by
// wrapping the start address modulo the capacity (same convention as
// the disksim and raid models, so cached and pass-through systems
// address identical blocks).
func foldOffset(offset, size, capacity int64) int64 {
	if capacity <= 0 || size >= capacity {
		if capacity > 0 {
			return 0
		}
		return offset
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

var _ storage.Device = (*Cache)(nil)
var _ simtime.Handler = (*Cache)(nil)
