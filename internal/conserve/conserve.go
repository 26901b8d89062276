// Package conserve implements the mainstream energy-conservation
// techniques TRACER exists to evaluate (paper Table I and Section VII:
// "We will leverage TRACER to make further measurements on mainstream
// energy-conservation techniques").
//
// Five techniques are provided, plus the always-on baseline:
//
//   - TPM (traditional power management, ManagedDisk): spin a disk
//     down after a fixed idle timeout; the next request pays the
//     spin-up latency.
//
//   - DRPM (dynamic RPM, Gurumurthi et al. 2003, DRPMDisk): step the
//     spindle speed down through discrete levels as the disk idles and
//     back to full speed when load returns.
//
//   - eRAID (Li & Wang 2004, ERAIDArray): at low load rest one RAID-5
//     member and serve its reads by parity reconstruction.
//
//   - PDC (popular data concentration, Pinheiro & Bianchini 2004):
//     migrate hot chunks onto the first disks so the last ones idle
//     long enough to spin down under TPM.
//
//   - MAID (massive array of idle disks, Colarelli & Grunwald 2002): a
//     small set of always-on cache disks absorbs the hot working set
//     while the bulk data disks spin down under TPM; reads that hit
//     cache never wake a data disk, writes are absorbed by the cache
//     and destaged on eviction.
//
// All are storage.Device implementations, so TRACER's load-controlled
// replay and power metering evaluate them exactly as they evaluate a
// plain array — the uniform way of comparing energy-saving techniques
// the paper calls for.
//
// One Spec configures every technique: NewERAIDArray, NewPDC and
// NewMAID take it, and Spec.WithDefaults resolves each knob left at
// zero to the value the energy studies run.  What no study varies (the
// drive model and count, the chunk size, PDC's migration budget and
// decay, MAID's cache directory size) is a package constant.
package conserve

import (
	"fmt"

	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// SpinDowner is a disk whose spindle a policy may stop.
// *disksim.HDD implements it.
type SpinDowner interface {
	storage.Device
	Timeline() *powersim.Timeline
	Standby() bool
	InStandby() bool
}

// ManagedDisk wraps a disk with TPM: after Timeout with no activity it
// puts the spindle into standby.  It satisfies raid.Disk, so whole
// managed arrays compose from managed members.
type ManagedDisk struct {
	engine *simtime.Engine
	disk   SpinDowner
	// Timeout is the idle threshold before spin-down.
	timeout simtime.Duration

	lastActivity simtime.Time
	outstanding  int
	// idle is the idle check: construction and each completion that
	// drains the disk reset it a timeout out, and Submit stops it.
	idle *simtime.Timer

	ctl    *Control
	policy string
	index  int

	// free is a LIFO list of idle in-flight records.  Only the
	// goroutine driving the disk's engine touches it.
	free inflightList
}

// NewManagedDisk wraps disk with a timeout spin-down policy.  A zero
// timeout spins the disk down the moment it goes idle; a timeout so
// large that now+timeout overflows the integer clock simply never
// fires.
func NewManagedDisk(engine *simtime.Engine, disk SpinDowner, timeout simtime.Duration) *ManagedDisk {
	if timeout < 0 {
		panic("conserve: timeout must be non-negative")
	}
	m := &ManagedDisk{engine: engine, disk: disk, timeout: timeout, policy: "tpm"}
	m.idle = engine.NewTimer(m, simtime.EventArg{})
	resetClamped(engine, m.idle, engine.Now().Add(timeout))
	return m
}

// AttachDecisions arms the disk's decision hooks: every spin-down
// proposal and demand spin-up is sequenced through ctl under the given
// policy label and member index.  A nil ctl detaches.
func (m *ManagedDisk) AttachDecisions(ctl *Control, policy string, disk int) {
	m.ctl = ctl
	if policy != "" {
		m.policy = policy
	}
	m.index = disk
}

// scheduleClamped schedules h at `at`, dropping deadlines that
// overflowed past the integer clock horizon: an effectively infinite
// timeout must never wrap into the past and busy-loop the kernel.  It
// reports whether the event was scheduled.
func scheduleClamped(e *simtime.Engine, at simtime.Time, h simtime.Handler) bool {
	if at < e.Now() {
		return false
	}
	e.ScheduleEvent(at, h, simtime.EventArg{})
	return true
}

// resetClamped moves t's deadline to at under scheduleClamped's rule:
// a deadline that overflowed past the integer clock is dropped.
func resetClamped(e *simtime.Engine, t *simtime.Timer, at simtime.Time) {
	if at >= e.Now() {
		t.Reset(at)
	}
}

// queueDepthOf snapshots a device's queued-but-unstarted requests when
// it exposes them (both disk models do).
func queueDepthOf(dev any) int {
	if q, ok := dev.(interface{ QueueDepth() int }); ok {
		return q.QueueDepth()
	}
	return 0
}

// OnEvent implements simtime.Handler: the idle check came due.  The
// policy is its own prebound callback, so the check allocates nothing;
// the check deadline is simply the dispatch time.
func (m *ManagedDisk) OnEvent(e *simtime.Engine, _ simtime.EventArg) {
	m.check(e.Now())
}

// check spins the disk down: the idle timer runs it only at the live
// deadline, a full timeout after the last activity with no request
// since.  A disk already in standby stays as it is.
func (m *ManagedDisk) check(deadline simtime.Time) {
	if m.disk.InStandby() {
		return
	}
	idle := deadline.Sub(m.lastActivity)
	if !m.ctl.propose(Decision{
		At:          int64(deadline),
		Kind:        DecisionSpinDown,
		Policy:      m.policy,
		Disk:        m.index,
		IdleNs:      int64(idle),
		QueueDepth:  queueDepthOf(m.disk),
		Outstanding: m.outstanding,
	}) {
		// Vetoed (counterfactual): the disk stays up until the next
		// activity cycle re-arms the idle timer, i.e. "what if it had
		// not spun down here".
		return
	}
	m.disk.Standby()
}

// Submit implements storage.Device.
func (m *ManagedDisk) Submit(req storage.Request, done func(simtime.Time)) {
	if m.ctl != nil && m.disk.InStandby() {
		// Demand wake: the wrapped disk will transparently spin up to
		// serve this request.  Forced — there is no alternative.
		m.ctl.propose(Decision{
			At:          int64(m.engine.Now()),
			Kind:        DecisionSpinUp,
			Policy:      m.policy,
			Disk:        m.index,
			IdleNs:      int64(m.engine.Now().Sub(m.lastActivity)),
			QueueDepth:  queueDepthOf(m.disk),
			Outstanding: m.outstanding,
			Forced:      true,
		})
	}
	m.idle.Stop()
	m.lastActivity = m.engine.Now()
	m.outstanding++
	m.disk.Submit(req, m.free.get(m, done).land)
}

// landed completes one request: the disk's bookkeeping and, when it
// drains the disk, the idle check run before done.
func (m *ManagedDisk) landed(r *inflight, finish simtime.Time) {
	done := m.free.put(r, finish)
	m.outstanding--
	m.lastActivity = finish
	if m.outstanding == 0 {
		resetClamped(m.engine, m.idle, finish.Add(m.timeout))
	}
	done(finish)
}

// inflight is one request in flight through a ManagedDisk or DRPMDisk.
// Records recycle through their disk's free list and bind their landing
// callback once, when first created, so a warm request path allocates
// nothing.
type inflight struct {
	disk lander
	done func(simtime.Time)
	land func(simtime.Time) // onLand, bound once
}

// lander is the disk half of a completion: the policy's bookkeeping
// for one landed request.
type lander interface {
	landed(r *inflight, finish simtime.Time)
}

func (r *inflight) onLand(finish simtime.Time) { r.disk.landed(r, finish) }

// inflightList is a LIFO free list of idle in-flight records.  Each
// list belongs to one disk, and only the goroutine driving that disk's
// engine touches it.
type inflightList []*inflight

// get takes an idle record for disk, or makes one, and loads done.
func (l *inflightList) get(disk lander, done func(simtime.Time)) *inflight {
	var r *inflight
	if n := len(*l); n > 0 {
		r = (*l)[n-1]
		*l = (*l)[:n-1]
	} else {
		r = &inflight{disk: disk}
		r.land = r.onLand
	}
	r.done = done
	return r
}

// put recycles a landed record and returns the done it carried.  A
// record carrying none is not in flight: the wrapped disk completed a
// request twice, and the record may already serve a later one.
func (l *inflightList) put(r *inflight, finish simtime.Time) func(simtime.Time) {
	done := r.done
	if done == nil {
		panic(fmt.Sprintf("conserve: request completion at %v landed on an idle record (the wrapped disk completed a request twice)", finish))
	}
	r.done = nil
	*l = append(*l, r)
	return done
}

// Capacity implements storage.Device.
func (m *ManagedDisk) Capacity() int64 { return m.disk.Capacity() }

// Timeline exposes the wrapped disk's power timeline.
func (m *ManagedDisk) Timeline() *powersim.Timeline { return m.disk.Timeline() }

// Disk exposes the wrapped disk (stats inspection).
func (m *ManagedDisk) Disk() SpinDowner { return m.disk }

// MAIDStats count cache behaviour.
type MAIDStats struct {
	ReadHits, ReadMisses int64
	Writes               int64
	Destages             int64
}

// chunkState is a cache directory entry.
type chunkState struct {
	chunk int64
	dirty bool
	// LRU links.
	prev, next *chunkState
}

// MAID is the massive-array-of-idle-disks device.
type MAID struct {
	engine *simtime.Engine

	cache []*disksim.HDD
	data  []*ManagedDisk

	dir     map[int64]*chunkState
	lruHead *chunkState // most recent
	lruTail *chunkState // least recent

	stats MAIDStats
}

// NewMAID assembles spec's MAIDCacheDisks always-on cache disks in
// front of MAIDDataDisks data disks that spin down under TPM.
func NewMAID(engine *simtime.Engine, spec Spec) *MAID {
	spec = spec.WithDefaults()
	m := &MAID{engine: engine, dir: make(map[int64]*chunkState)}
	for i := 0; i < spec.MAIDCacheDisks; i++ {
		m.cache = append(m.cache, disksim.NewHDD(engine, drive(fmt.Sprintf("maid-cache-%d", i), i, 7919)))
	}
	for i := 0; i < MAIDDataDisks; i++ {
		hdd := disksim.NewHDD(engine, drive(fmt.Sprintf("maid-data-%d", i), spec.MAIDCacheDisks+i, 7919))
		d := NewManagedDisk(engine, hdd, spec.SpinDownTimeout)
		d.AttachDecisions(spec.Control, "maid", i)
		m.data = append(m.data, d)
	}
	return m
}

// Capacity implements storage.Device: the concatenated data disks.
func (m *MAID) Capacity() int64 {
	return int64(len(m.data)) * m.data[0].Capacity()
}

// Stats returns cache counters.
func (m *MAID) Stats() MAIDStats { return m.stats }

// DataDisks exposes the managed data disks (stats inspection).
func (m *MAID) DataDisks() []*ManagedDisk { return m.data }

// MemberHDDs lists every member drive (cache first, then data) for
// wear accounting and invariant checks.
func (m *MAID) MemberHDDs() []*disksim.HDD {
	hdds := make([]*disksim.HDD, 0, len(m.cache)+len(m.data))
	hdds = append(hdds, m.cache...)
	for _, d := range m.data {
		if h, ok := d.Disk().(*disksim.HDD); ok {
			hdds = append(hdds, h)
		}
	}
	return hdds
}

// PowerSource aggregates all member timelines (no chassis model here;
// compose with raid.ChassisParams externally when comparing arrays).
func (m *MAID) PowerSource() powersim.Source {
	var sum powersim.Sum
	for _, c := range m.cache {
		sum = append(sum, c.Timeline())
	}
	for _, d := range m.data {
		sum = append(sum, d.Timeline())
	}
	return sum
}

// dataDiskFor maps a chunk to its data disk and on-disk offset.
// Chunks stripe round-robin across the data disks, matching JBOD's
// layout so technique comparisons hold placement constant.
func (m *MAID) dataDiskFor(chunk int64) (idx int, offset int64) {
	n := int64(len(m.data))
	return int(chunk % n), (chunk / n) * chunkBytes
}

// cacheDiskFor spreads chunks across cache disks.
func (m *MAID) cacheDiskFor(chunk int64) (idx int, offset int64) {
	per := m.cache[0].Capacity() / chunkBytes
	return int(chunk % int64(len(m.cache))), (chunk % per) * chunkBytes
}

// touch moves (or inserts) a directory entry to the LRU head and
// returns it, evicting the tail beyond capacity.  Evicting a dirty
// chunk destages it to the data disk.
func (m *MAID) touch(chunk int64) *chunkState {
	cs, ok := m.dir[chunk]
	if ok {
		m.unlink(cs)
	} else {
		cs = &chunkState{chunk: chunk}
		m.dir[chunk] = cs
	}
	// push front
	cs.prev = nil
	cs.next = m.lruHead
	if m.lruHead != nil {
		m.lruHead.prev = cs
	}
	m.lruHead = cs
	if m.lruTail == nil {
		m.lruTail = cs
	}
	if len(m.dir) > maidCacheChunks {
		tail := m.lruTail
		m.unlink(tail)
		delete(m.dir, tail.chunk)
		if tail.dirty {
			m.destage(tail.chunk)
		}
	}
	return cs
}

func (m *MAID) unlink(cs *chunkState) {
	if cs.prev != nil {
		cs.prev.next = cs.next
	} else if m.lruHead == cs {
		m.lruHead = cs.next
	}
	if cs.next != nil {
		cs.next.prev = cs.prev
	} else if m.lruTail == cs {
		m.lruTail = cs.prev
	}
	cs.prev, cs.next = nil, nil
}

// destage writes an evicted dirty chunk back to its data disk.
func (m *MAID) destage(chunk int64) {
	m.stats.Destages++
	disk, off := m.dataDiskFor(chunk)
	m.data[disk].Submit(storage.Request{Op: storage.Write, Offset: off, Size: chunkBytes}, func(simtime.Time) {})
}

// Submit implements storage.Device.  Requests are split on chunk
// boundaries; the request completes when its slowest fragment does.
func (m *MAID) Submit(req storage.Request, done func(simtime.Time)) {
	if err := req.Validate(0); err != nil {
		panic(fmt.Sprintf("conserve: invalid request: %v", err))
	}
	type frag struct {
		chunk int64
		off   int64 // offset within chunk
		size  int64
	}
	var frags []frag
	off, remaining := req.Offset%m.Capacity(), req.Size
	for remaining > 0 {
		chunk := off / chunkBytes
		within := off % chunkBytes
		take := chunkBytes - within
		if take > remaining {
			take = remaining
		}
		frags = append(frags, frag{chunk: chunk, off: within, size: take})
		off += take
		remaining -= take
	}
	outstanding := len(frags)
	var latest simtime.Time
	complete := func(t simtime.Time) {
		if t > latest {
			latest = t
		}
		outstanding--
		if outstanding == 0 {
			done(latest)
		}
	}
	for _, f := range frags {
		switch req.Op {
		case storage.Write:
			// Absorb in cache; destage on eviction.
			m.stats.Writes++
			cs := m.touch(f.chunk)
			cs.dirty = true
			disk, base := m.cacheDiskFor(f.chunk)
			m.cache[disk].Submit(storage.Request{Op: storage.Write, Offset: base + f.off, Size: f.size}, complete)
		case storage.Read:
			if _, ok := m.dir[f.chunk]; ok {
				m.stats.ReadHits++
				m.touch(f.chunk)
				disk, base := m.cacheDiskFor(f.chunk)
				m.cache[disk].Submit(storage.Request{Op: storage.Read, Offset: base + f.off, Size: f.size}, complete)
				continue
			}
			// Miss: read from the data disk (waking it if needed) and
			// populate the cache copy in the background.
			m.stats.ReadMisses++
			dDisk, dOff := m.dataDiskFor(f.chunk)
			chunk := f.chunk
			m.data[dDisk].Submit(storage.Request{Op: storage.Read, Offset: dOff + f.off, Size: f.size}, func(t simtime.Time) {
				cs := m.touch(chunk)
				cs.dirty = false
				cDisk, cBase := m.cacheDiskFor(chunk)
				m.cache[cDisk].Submit(storage.Request{Op: storage.Write, Offset: cBase, Size: chunkBytes}, func(simtime.Time) {})
				complete(t)
			})
		}
	}
}

var (
	_ storage.Device = (*MAID)(nil)
	_ storage.Device = (*ManagedDisk)(nil)
)
