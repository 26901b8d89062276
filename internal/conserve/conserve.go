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
//
// Once warm, every technique serves a request without allocating, as
// a bare replay does, except that MAID allocates an entry when a chunk
// enters its cache directory.  JBOD, PDC and MAID split a request on chunk
// boundaries and complete it through a recycled join; TPM, DRPM and
// eRAID requests, MAID's cache fill after a miss and PDC's migration
// write after its read complete through recycled in-flight records.
// Both bind their landing callback once, and a repeated completion
// panics with a labelled message rather than complete a later request.
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

// inflight is one request in flight through a conservation device that
// completes it in one piece: a ManagedDisk's, DRPMDisk's or
// ERAIDArray's request, MAID's data-disk read on a cache miss, or PDC's
// migration read.  chunk and to carry what a chained follow-up needs:
// the chunk MAID fills into cache, and the chunk PDC writes to member
// to.  Records recycle through their device's free list and bind their
// landing callback once, when first created, so a warm request path
// allocates nothing.
type inflight struct {
	dev   lander
	done  func(simtime.Time)
	chunk int64
	to    int
	land  func(simtime.Time) // onLand, bound once
}

// lander is the device half of a completion: the device's bookkeeping,
// or its follow-up, for one landed request.
type lander interface {
	landed(r *inflight, finish simtime.Time)
}

func (r *inflight) onLand(finish simtime.Time) { r.dev.landed(r, finish) }

// inflightList is a LIFO free list of idle in-flight records.  Each
// list belongs to one device, and only the goroutine driving that
// device's engine touches it.
type inflightList []*inflight

// get takes an idle record for dev, or makes one, and loads done.
func (l *inflightList) get(dev lander, done func(simtime.Time)) *inflight {
	var r *inflight
	if n := len(*l); n > 0 {
		r = (*l)[n-1]
		*l = (*l)[:n-1]
	} else {
		r = &inflight{dev: dev}
		r.land = r.onLand
	}
	r.done = done
	return r
}

// put recycles a landed record and returns the done it carried.  A
// record carrying none is not in flight: the wrapped device completed a
// request twice, and the record may already serve a later one.
func (l *inflightList) put(r *inflight, finish simtime.Time) func(simtime.Time) {
	done := r.done
	if done == nil {
		panic(fmt.Sprintf("conserve: request completion at %v landed on an idle record (the wrapped device completed a request twice)", finish))
	}
	r.done = nil
	*l = append(*l, r)
	return done
}

// discard completes a request nobody waits for: a destage, a cache
// fill or a migration's write.
func discard(simtime.Time) {}

// chunksSpanned counts the chunks [off, off+size) touches: the
// fragments a chunked device splits a request of positive size into.
func chunksSpanned(off, size int64) int {
	return int((off+size-1)/chunkBytes - off/chunkBytes + 1)
}

// join completes one request a device split into fragments when its
// slowest fragment lands.  Joins recycle through their device's
// joinList and bind their landing callback once, when first created, so
// a warm request path allocates nothing.
type join struct {
	list    *joinList
	done    func(simtime.Time)
	waiting int
	latest  simtime.Time
	land    func(simtime.Time) // onLand, bound once
}

// joinList is a LIFO free list of idle joins for one chunked device
// (JBOD, PDC or MAID).  Only the goroutine driving the device's engine
// touches it.
type joinList struct {
	// device names the device in the panic of a repeated completion.
	device string
	// settle, when not nil, is the device's bookkeeping as a request
	// completes; it runs before the request's done.
	settle func()
	free   []*join
}

// get takes an idle join, or makes one, armed to complete done when
// waiting fragments have landed.  Arming it with every fragment before
// issuing any means none can complete it early.
func (l *joinList) get(done func(simtime.Time), waiting int) *join {
	var jn *join
	if n := len(l.free); n > 0 {
		jn = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		jn = &join{list: l}
		jn.land = jn.onLand
	}
	jn.done, jn.waiting = done, waiting
	return jn
}

// onLand records one fragment's completion; the last one recycles the
// join, settles the device and completes the request.  A join waiting
// for nothing cannot be owed one: a member completed a fragment twice,
// and the join may already belong to a later request.
func (jn *join) onLand(t simtime.Time) {
	if jn.waiting <= 0 {
		panic(fmt.Sprintf("conserve: %s fragment completion at %v landed on an idle join (a member completed a fragment twice)", jn.list.device, t))
	}
	if t > jn.latest {
		jn.latest = t
	}
	if jn.waiting--; jn.waiting > 0 {
		return
	}
	l, done, latest := jn.list, jn.done, jn.latest
	jn.done, jn.latest = nil, 0
	l.free = append(l.free, jn)
	if l.settle != nil {
		l.settle()
	}
	done(latest)
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

	// joins complete requests; misses carry a read miss from its
	// data-disk read to its cache fill.
	joins  joinList
	misses inflightList

	stats MAIDStats
}

// NewMAID assembles spec's MAIDCacheDisks always-on cache disks in
// front of MAIDDataDisks data disks that spin down under TPM.
func NewMAID(engine *simtime.Engine, spec Spec) *MAID {
	spec = spec.WithDefaults()
	m := &MAID{engine: engine, dir: make(map[int64]*chunkState), joins: joinList{device: "MAID"}}
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
	m.data[disk].Submit(storage.Request{Op: storage.Write, Offset: off, Size: chunkBytes}, discard)
}

// Submit implements storage.Device.  Requests are split on chunk
// boundaries; the request completes when its slowest fragment does.
func (m *MAID) Submit(req storage.Request, done func(simtime.Time)) {
	if err := req.Validate(0); err != nil {
		panic(fmt.Sprintf("conserve: invalid request: %v", err))
	}
	off := req.Offset % m.Capacity()
	jn := m.joins.get(done, chunksSpanned(off, req.Size))
	for remaining := req.Size; remaining > 0; {
		chunk := off / chunkBytes
		within := off % chunkBytes
		take := min(chunkBytes-within, remaining)
		m.submitFragment(req.Op, chunk, within, take, jn.land)
		off += take
		remaining -= take
	}
}

// submitFragment serves the part of a request inside one chunk, from
// within bytes into it, and completes it to land.
func (m *MAID) submitFragment(op storage.Op, chunk, within, size int64, land func(simtime.Time)) {
	switch op {
	case storage.Write:
		// Absorb in cache; destage on eviction.
		m.stats.Writes++
		cs := m.touch(chunk)
		cs.dirty = true
		disk, base := m.cacheDiskFor(chunk)
		m.cache[disk].Submit(storage.Request{Op: storage.Write, Offset: base + within, Size: size}, land)
	case storage.Read:
		if _, ok := m.dir[chunk]; ok {
			m.stats.ReadHits++
			m.touch(chunk)
			disk, base := m.cacheDiskFor(chunk)
			m.cache[disk].Submit(storage.Request{Op: storage.Read, Offset: base + within, Size: size}, land)
			return
		}
		// Miss: read from the data disk (waking it if needed); landed
		// fills the cache copy in the background.
		m.stats.ReadMisses++
		disk, off := m.dataDiskFor(chunk)
		r := m.misses.get(m, land)
		r.chunk = chunk
		m.data[disk].Submit(storage.Request{Op: storage.Read, Offset: off + within, Size: size}, r.land)
	}
}

// landed completes a read miss once its data-disk read lands: the chunk
// enters the cache clean, its fill is issued, and then the fragment
// completes.
func (m *MAID) landed(r *inflight, finish simtime.Time) {
	chunk := r.chunk
	land := m.misses.put(r, finish)
	cs := m.touch(chunk)
	cs.dirty = false
	disk, base := m.cacheDiskFor(chunk)
	m.cache[disk].Submit(storage.Request{Op: storage.Write, Offset: base, Size: chunkBytes}, discard)
	land(finish)
}

var (
	_ storage.Device = (*MAID)(nil)
	_ storage.Device = (*ManagedDisk)(nil)
)
