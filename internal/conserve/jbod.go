package conserve

import (
	"fmt"

	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// JBOD concatenates member disks with the same chunk layout MAID uses
// for its data disks, so the three configurations an energy study
// compares — always-on JBOD, TPM-managed JBOD, MAID — place blocks
// identically and differ only in their power policy.
type JBOD struct {
	disks     []storage.Device
	timelines []*powersim.Timeline
	perDisk   int64
	// free is a LIFO list of idle joins.  Only the goroutine driving
	// the members' engine touches it.
	free []*jbodJoin
}

// Member is the JBOD member contract: service plus a power timeline.
// *disksim.HDD, *disksim.SSD, *ManagedDisk and *DRPMDisk all satisfy it.
type Member interface {
	storage.Device
	Timeline() *powersim.Timeline
}

// NewJBOD concatenates the given disks in 64 KiB chunks.
func NewJBOD(disks []Member) (*JBOD, error) {
	if len(disks) == 0 {
		return nil, fmt.Errorf("conserve: JBOD needs at least one disk")
	}
	j := &JBOD{perDisk: disks[0].Capacity() / chunkBytes}
	for _, d := range disks {
		j.disks = append(j.disks, d)
		j.timelines = append(j.timelines, d.Timeline())
	}
	return j, nil
}

// Capacity implements storage.Device.
func (j *JBOD) Capacity() int64 {
	return int64(len(j.disks)) * j.perDisk * chunkBytes
}

// PowerSource aggregates member power.
func (j *JBOD) PowerSource() powersim.Source {
	var sum powersim.Sum
	for _, tl := range j.timelines {
		sum = append(sum, tl)
	}
	return sum
}

// Submit implements storage.Device, splitting on chunk boundaries and
// completing with the slowest fragment.
func (j *JBOD) Submit(req storage.Request, done func(simtime.Time)) {
	if err := req.Validate(0); err != nil {
		panic(fmt.Sprintf("conserve: invalid request: %v", err))
	}
	off := req.Offset % j.Capacity()
	jn := j.getJoin()
	// Arm the join with every fragment before issuing any, so none can
	// complete it early.
	jn.done = done
	jn.waiting = int((off+req.Size-1)/chunkBytes - off/chunkBytes + 1)
	n := int64(len(j.disks))
	for remaining := req.Size; remaining > 0; {
		chunk := off / chunkBytes
		within := off % chunkBytes
		take := min(chunkBytes-within, remaining)
		// Round-robin chunk striping, matching MAID's data layout.
		j.disks[chunk%n].Submit(storage.Request{Op: req.Op, Offset: (chunk/n)*chunkBytes + within, Size: take}, jn.land)
		off += take
		remaining -= take
	}
}

// jbodJoin completes one JBOD request when its slowest fragment lands.
// Joins recycle through the JBOD's free list and bind their landing
// callback once, when first created, so a warm request path allocates
// nothing.
type jbodJoin struct {
	j       *JBOD
	done    func(simtime.Time)
	waiting int
	latest  simtime.Time
	land    func(simtime.Time) // onLand, bound once
}

// getJoin takes an idle join off the free list, or makes one.
func (j *JBOD) getJoin() *jbodJoin {
	if n := len(j.free); n > 0 {
		jn := j.free[n-1]
		j.free = j.free[:n-1]
		return jn
	}
	jn := &jbodJoin{j: j}
	jn.land = jn.onLand
	return jn
}

// onLand records one fragment's completion; the last one recycles the
// join and completes the request.  A join waiting for nothing cannot be
// owed one: a member completed a fragment twice, and the join may
// already belong to a later request.
func (jn *jbodJoin) onLand(t simtime.Time) {
	if jn.waiting <= 0 {
		panic(fmt.Sprintf("conserve: JBOD fragment completion at %v landed on an idle join (a member completed a fragment twice)", t))
	}
	if t > jn.latest {
		jn.latest = t
	}
	if jn.waiting--; jn.waiting > 0 {
		return
	}
	done, latest := jn.done, jn.latest
	jn.done, jn.latest = nil, 0
	jn.j.free = append(jn.j.free, jn)
	done(latest)
}

var _ storage.Device = (*JBOD)(nil)
