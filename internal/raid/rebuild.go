package raid

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/storage"
)

// Background rebuild: after a member failure, a production array
// reconstructs the lost disk onto a replacement by streaming every
// stripe — read the chunk from all survivors, XOR in the controller,
// write the result to the replacement.  The model replays exactly that
// traffic pattern through the member-disk models, so the rebuild
// competes with foreground load for the same spindles; that contention
// is the "rebuild storm" the SLO engine watches.
//
// Rebuild spans are configurable and default small (an allocated-
// region rebuild, as a thin-provisioned array would do) so scenarios
// complete within seconds of simulated time; the traffic shape per
// chunk is what matters, not the terabytes.

// Default rebuild geometry.
const (
	// DefaultRebuildSpan is the region reconstructed (per member disk).
	DefaultRebuildSpan int64 = 32 << 20
	// DefaultRebuildChunk is the per-step transfer unit.
	DefaultRebuildChunk int64 = 1 << 20
)

// rebuildRun is one in-flight background rebuild.
type rebuildRun struct {
	a      *Array
	target int // failed member being rebuilt
	span   int64
	chunk  int64
	off    int64
	start  simtime.Time
	done   func(simtime.Time)
}

// Rebuilding reports whether a background rebuild is in flight.
func (a *Array) Rebuilding() bool { return a.rebuild != nil }

// StartRebuild begins reconstructing the failed member onto its
// replacement: span bytes are streamed in chunk-sized steps, each step
// reading the chunk from every survivor and then writing it to the
// replacement slot.  When the last chunk lands the member is restored
// (RestoreDisk) and done, if non-nil, fires with the completion time.
// Non-positive span/chunk take the defaults; the span is clamped to
// the smallest member capacity.  The array must be RAID5, degraded,
// and not already rebuilding.  All member traffic is issued from
// completion callbacks on the array's engine.
func (a *Array) StartRebuild(span, chunk int64, done func(simtime.Time)) error {
	if a.params.Level != RAID5 {
		return fmt.Errorf("raid: %v cannot rebuild", a.params.Level)
	}
	if a.failed < 0 {
		return fmt.Errorf("raid: no failed member to rebuild")
	}
	if a.rebuild != nil {
		return fmt.Errorf("raid: rebuild of member %d already in flight", a.rebuild.target)
	}
	if span <= 0 {
		span = DefaultRebuildSpan
	}
	if chunk <= 0 {
		chunk = DefaultRebuildChunk
	}
	if cap := a.minDiskCapacity(); span > cap {
		span = cap
	}
	if chunk > span {
		chunk = span
	}
	r := &rebuildRun{a: a, target: a.failed, span: span, chunk: chunk, start: a.engine.Now(), done: done}
	a.rebuild = r
	a.stats.RebuildsStarted++
	r.step()
	return nil
}

// step reads the next chunk from every survivor, then writes it to the
// replacement, then recurses until the span is covered.
func (r *rebuildRun) step() {
	a := r.a
	if r.off >= r.span {
		r.finish(a.engine.Now())
		return
	}
	sz := r.chunk
	if r.off+sz > r.span {
		sz = r.span - r.off
	}
	req := storage.Request{Op: storage.Read, Offset: r.off, Size: sz}
	outstanding := len(a.disks) - 1
	var latest simtime.Time
	onRead := func(t simtime.Time) {
		if t > latest {
			latest = t
		}
		outstanding--
		if outstanding > 0 {
			return
		}
		// All survivors read; write the reconstructed chunk to the
		// replacement in the failed slot.
		a.stats.RebuildWrites++
		a.stats.RebuildBytes += sz
		a.tel.OnRebuildOp(true, sz)
		wr := storage.Request{Op: storage.Write, Offset: r.off, Size: sz}
		a.disks[r.target].Submit(wr, func(t simtime.Time) {
			r.off += sz
			r.step()
		})
	}
	for i, d := range a.disks {
		if i == r.target {
			continue
		}
		a.stats.RebuildReads++
		a.tel.OnRebuildOp(false, sz)
		d.Submit(req, onRead)
	}
}

// finish restores the member and reports completion.
func (r *rebuildRun) finish(t simtime.Time) {
	a := r.a
	a.rebuild = nil
	// The rebuild may have been racing a manual RestoreDisk; only
	// restore if our target is still the failed member.
	if a.failed == r.target {
		a.RestoreDisk()
	}
	a.stats.RebuildsCompleted++
	a.tel.OnRebuildDone(r.start, t, r.span)
	if r.done != nil {
		r.done(t)
	}
}
