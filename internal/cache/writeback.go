package cache

import (
	"repro/internal/simtime"
	"repro/internal/storage"
)

// Dirty-data management.  Dirty lines sit in a FIFO ordered by the
// time they first became dirty; three policies drain it:
//
//   - threshold: crossing the DirtyHighRatio high-water mark drains
//     the oldest dirty lines synchronously at submit time,
//   - periodic: a FlushInterval timer flushes everything dirty — armed
//     only while dirty lines exist so an idle cache schedules nothing
//     and the engine can drain,
//   - idle: once the front has been quiet for IdleDrain, all dirty
//     lines flush.  This is the policy that couples with conserve
//     spin-down timers: a drain shorter than the disk timeout keeps
//     the array awake; a longer one lets disks spin down and then
//     wakes them for the deferred writes.
//
// FIFO entries are (slot, seq) pairs; a writeback or eviction bumps
// the line's dirtySeq, so stale entries are skipped on pop rather than
// flushing data that was re-dirtied later (which has its own entry).

// markDirty grows slot's dirty union by [lo, hi) and runs the
// threshold policy.  BytesDirtied counts union growth — including gap
// bytes bridged between disjoint fragments, since the writeback IO
// covers the whole union — keeping the conservation invariant exact.
func (c *Cache) markDirty(slot int, lo, hi int64, now simtime.Time) {
	ln := &c.lines[slot]
	var growth int64
	if !ln.dirty() {
		ln.dirtyLo, ln.dirtyHi = lo, hi
		growth = hi - lo
		c.dirtySeq++
		ln.dirtySeq = c.dirtySeq
		c.dirtyQueue.Push(dirtyRef{slot: slot, seq: ln.dirtySeq})
		c.dirtyLines++
	} else {
		old := ln.dirtyHi - ln.dirtyLo
		if lo < ln.dirtyLo {
			ln.dirtyLo = lo
		}
		if hi > ln.dirtyHi {
			ln.dirtyHi = hi
		}
		growth = (ln.dirtyHi - ln.dirtyLo) - old
	}
	c.stats.BytesDirtied += growth
	c.stats.DirtyBytes += growth
	if c.tel != nil {
		c.tel.OnDirty(growth)
	}
	c.armFlush()
	for c.dirtyLines > c.dirtyHigh {
		s := c.popDirty()
		if s < 0 {
			break
		}
		c.stats.ThresholdDrains++
		c.issueWriteback(s, now)
	}
}

// popDirty returns the oldest still-dirty slot, skipping entries
// staled by earlier writebacks, or -1 when the queue is empty.
func (c *Cache) popDirty() int {
	for c.dirtyQueue.Len() > 0 {
		ref := c.dirtyQueue.Take(0)
		if ln := &c.lines[ref.slot]; ln.valid && ln.dirty() && ln.dirtySeq == ref.seq {
			return ref.slot
		}
	}
	return -1
}

// issueWriteback writes slot's dirty union to the backing device and
// marks the line clean.  The line stays resident; only evictions drop
// it.
func (c *Cache) issueWriteback(slot int, now simtime.Time) {
	ln := &c.lines[slot]
	if !ln.dirty() {
		return
	}
	n := ln.dirtyHi - ln.dirtyLo
	req := storage.Request{
		Op:     storage.Write,
		Offset: ln.extent*c.params.ExtentBytes + ln.dirtyLo,
		Size:   n,
	}
	ln.dirtyLo, ln.dirtyHi = 0, 0
	ln.dirtySeq = 0
	c.dirtyLines--
	c.stats.DirtyBytes -= n
	c.stats.Writebacks++
	c.stats.WritebackBytes += n
	c.outstandingWB++
	if c.tel != nil {
		c.tel.OnWriteback(n)
	}
	c.submitBacking(req, c.wbDone)
}

// writebackDone retires one writeback IO.
func (c *Cache) writebackDone(simtime.Time) { c.outstandingWB-- }

// flushAll writes back every dirty line, oldest first.
func (c *Cache) flushAll(now simtime.Time) {
	for {
		s := c.popDirty()
		if s < 0 {
			return
		}
		c.issueWriteback(s, now)
	}
}

// armFlush schedules the periodic flush if dirty data exists and no
// timer is pending.
func (c *Cache) armFlush() {
	if c.flushArmed || c.params.FlushInterval <= 0 || c.dirtyLines == 0 {
		return
	}
	c.flushArmed = true
	c.engine.AfterEvent(c.params.FlushInterval, c, simtime.EventArg{Kind: kindFlush})
}

// armIdle sets the idle drain one IdleDrain from now; the next Submit
// stops it.  The timer's deadline only moves later, so however often
// the front goes quiet it holds one heap slot.
func (c *Cache) armIdle() {
	if c.params.IdleDrain <= 0 || c.dirtyLines == 0 {
		return
	}
	c.idle.Reset(c.engine.Now().Add(c.params.IdleDrain))
}
