package conserve

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// PDC implements Popular Data Concentration (Pinheiro & Bianchini,
// paper Table I): instead of caching hot data on dedicated disks the
// way MAID does, PDC *migrates* data across the existing disks so that
// popularity decreases with disk number — the first disks absorb the
// hot set and stay busy while the last disks hold cold data and spin
// down under a timeout policy.
//
// The model tracks per-chunk access counts (with exponential decay),
// periodically recomputes the popularity ranking, and migrates chunks
// whose placement changed, paying real read+write I/O on the member
// disks for every moved chunk.  While every counted chunk fits on the
// first disk, only the chunks elsewhere are ranked: they are the only
// ones that can move, in the order the full ranking gives them.
type PDC struct {
	engine *simtime.Engine
	// reorgEvery is how often popularity is re-evaluated.
	reorgEvery simtime.Duration

	disks []*ManagedDisk
	hdds  []*disksim.HDD

	// placement maps chunk -> member disk; chunks absent from the map
	// sit at their home (round-robin) position.
	placement map[int64]int
	counts    map[int64]float64
	perDisk   int64 // chunk slots per disk

	outstanding int
	armed       bool
	windowIOs   int64

	// joins complete requests and moves carry a migration from its
	// source read to its destination write; rank is reorg's scratch.
	joins joinList
	moves inflightList
	rank  []ranked

	ctl *Control

	stats PDCStats
}

// PDCStats count policy work.
type PDCStats struct {
	// Reorgs and Migrations count ranking passes and chunk moves.
	Reorgs, Migrations int64
}

// NewPDC assembles Drives TPM-managed drives under spec's PDC policy.
func NewPDC(engine *simtime.Engine, spec Spec) *PDC {
	spec = spec.WithDefaults()
	d := &PDC{
		engine:     engine,
		reorgEvery: spec.PDCReorgInterval,
		placement:  map[int64]int{},
		counts:     map[int64]float64{},
		ctl:        spec.Control,
	}
	d.joins = joinList{device: "PDC", settle: d.settle}
	for i := 0; i < Drives; i++ {
		hdd := disksim.NewHDD(engine, drive(fmt.Sprintf("pdc-%d", i), i, 32452843))
		m := NewManagedDisk(engine, hdd, spec.SpinDownTimeout)
		m.AttachDecisions(spec.Control, "pdc", i)
		d.hdds = append(d.hdds, hdd)
		d.disks = append(d.disks, m)
	}
	d.perDisk = d.hdds[0].Capacity() / chunkBytes
	return d
}

// Capacity implements storage.Device.
func (d *PDC) Capacity() int64 {
	return int64(len(d.disks)) * d.perDisk * chunkBytes
}

// Stats returns policy counters.
func (d *PDC) Stats() PDCStats { return d.stats }

// Disks exposes the managed members.
func (d *PDC) Disks() []*ManagedDisk { return d.disks }

// HDDs exposes the member drives (wear accounting, invariant checks).
func (d *PDC) HDDs() []*disksim.HDD { return d.hdds }

// DiskOf resolves the current placement of a chunk (invariant checks).
func (d *PDC) DiskOf(chunk int64) int { return d.diskOf(chunk) }

// PowerSource aggregates member power.
func (d *PDC) PowerSource() powersim.Source {
	var sum powersim.Sum
	for _, m := range d.disks {
		sum = append(sum, m.Timeline())
	}
	return sum
}

// homeDisk is the unmigrated round-robin placement.
func (d *PDC) homeDisk(chunk int64) int { return int(chunk % int64(len(d.disks))) }

// diskOf resolves the current placement of a chunk.
func (d *PDC) diskOf(chunk int64) int {
	if disk, ok := d.placement[chunk]; ok {
		return disk
	}
	return d.homeDisk(chunk)
}

// offsetOn maps a chunk to its byte offset on whichever disk holds it.
// Offsets use the chunk's home slot, which stays free when the chunk
// migrates — the model tracks placement, not block-accurate allocation.
func (d *PDC) offsetOn(chunk int64) int64 {
	return (chunk / int64(len(d.disks)) % d.perDisk) * chunkBytes
}

// OnEvent implements simtime.Handler: the reorganisation tick fired.
func (d *PDC) OnEvent(*simtime.Engine, simtime.EventArg) { d.reorg() }

// Submit implements storage.Device.
func (d *PDC) Submit(req storage.Request, done func(simtime.Time)) {
	if err := req.Validate(0); err != nil {
		panic(fmt.Sprintf("conserve: invalid request: %v", err))
	}
	if !d.armed {
		d.armed = scheduleClamped(d.engine, d.engine.Now().Add(d.reorgEvery), d)
	}
	d.windowIOs++
	d.outstanding++
	off := req.Offset % d.Capacity()
	jn := d.joins.get(done, chunksSpanned(off, req.Size))
	for remaining := req.Size; remaining > 0; {
		chunk := off / chunkBytes
		within := off % chunkBytes
		take := min(chunkBytes-within, remaining)
		d.counts[chunk]++
		d.disks[d.diskOf(chunk)].Submit(storage.Request{Op: req.Op, Offset: d.offsetOn(chunk) + within, Size: take}, jn.land)
		off += take
		remaining -= take
	}
}

// settle is the PDC's bookkeeping as a request completes.
func (d *PDC) settle() { d.outstanding-- }

// ranked is a chunk and its access count as reorg ranks them.
type ranked struct {
	chunk int64
	count float64
}

// byPopularity orders chunks hottest first, then by chunk number.
func byPopularity(a, b ranked) int {
	return cmp.Or(cmp.Compare(b.count, a.count), cmp.Compare(a.chunk, b.chunk))
}

// reorg recomputes the popularity ranking and migrates chunks whose
// placement changed, hottest chunks first onto the lowest-numbered
// disks.
func (d *PDC) reorg() {
	d.stats.Reorgs++
	// While every counted chunk fits on disk 0, every rank targets it:
	// only the chunks elsewhere can move, and they move in their order
	// among themselves.  So only they are ranked, unless the counts
	// outgrow one disk.  The same pass ages the counts, so the ranking
	// tracks shifting popularity; the ranking uses the counts before
	// aging.
	all := int64(len(d.counts)) > d.perDisk
	rank := d.rank[:0]
	for c, n := range d.counts {
		if all || d.diskOf(c) != 0 {
			rank = append(rank, ranked{chunk: c, count: n})
		}
		if n *= pdcDecay; n < 0.01 {
			delete(d.counts, c)
		} else {
			d.counts[c] = n
		}
	}
	slices.SortFunc(rank, byPopularity)
	d.rank = rank
	// Concentrate: hottest chunks fill disk 0, then disk 1, ...
	migrated := 0
	for i, r := range rank {
		target := 0
		if all {
			target = i / int(d.perDisk)
		}
		if target >= len(d.disks) || migrated == pdcMaxMigrations {
			break
		}
		cur := d.diskOf(r.chunk)
		if cur == target {
			continue
		}
		if !d.ctl.propose(Decision{
			At:          int64(d.engine.Now()),
			Kind:        DecisionMigrate,
			Policy:      "pdc",
			Disk:        cur,
			Chunk:       r.chunk,
			FromDisk:    cur,
			ToDisk:      target,
			Outstanding: d.outstanding,
		}) {
			continue // vetoed: the chunk stays where it is
		}
		d.migrate(r.chunk, cur, target)
		migrated++
	}
	// Keep reorganising while load is present; go quiet with the
	// workload (the next Submit re-arms).
	if d.windowIOs == 0 && d.outstanding == 0 {
		d.armed = false
		return
	}
	d.windowIOs = 0
	d.armed = scheduleClamped(d.engine, d.engine.Now().Add(d.reorgEvery), d)
}

// migrate moves one chunk: read from the source member, write to the
// destination, and flip the placement immediately (requests during the
// copy are served from the destination — the model carries no payload,
// so ordering hazards are out of scope).
func (d *PDC) migrate(chunk int64, from, to int) {
	d.stats.Migrations++
	if to == d.homeDisk(chunk) {
		delete(d.placement, chunk)
	} else {
		d.placement[chunk] = to
	}
	r := d.moves.get(d, discard)
	r.chunk, r.to = chunk, to
	d.disks[from].Submit(storage.Request{Op: storage.Read, Offset: d.offsetOn(chunk), Size: chunkBytes}, r.land)
}

// landed issues a migration's destination write once its source read
// lands.
func (d *PDC) landed(r *inflight, finish simtime.Time) {
	chunk, to := r.chunk, r.to
	d.moves.put(r, finish)
	d.disks[to].Submit(storage.Request{Op: storage.Write, Offset: d.offsetOn(chunk), Size: chunkBytes}, discard)
}

var _ storage.Device = (*PDC)(nil)
