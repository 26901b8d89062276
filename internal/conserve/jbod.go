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
	joins     joinList
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
	j := &JBOD{perDisk: disks[0].Capacity() / chunkBytes, joins: joinList{device: "JBOD"}}
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
	jn := j.joins.get(done, chunksSpanned(off, req.Size))
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

var _ storage.Device = (*JBOD)(nil)
