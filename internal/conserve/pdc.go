package conserve

import (
	"fmt"
	"sort"

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
// disks for every moved chunk.
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
	off, remaining := req.Offset%d.Capacity(), req.Size
	type frag struct {
		disk   int
		offset int64
		size   int64
	}
	var frags []frag
	for remaining > 0 {
		chunk := off / chunkBytes
		within := off % chunkBytes
		take := chunkBytes - within
		if take > remaining {
			take = remaining
		}
		d.counts[chunk]++
		frags = append(frags, frag{disk: d.diskOf(chunk), offset: d.offsetOn(chunk) + within, size: take})
		off += take
		remaining -= take
	}
	outstanding := len(frags)
	var latest simtime.Time
	for _, f := range frags {
		d.disks[f.disk].Submit(storage.Request{Op: req.Op, Offset: f.offset, Size: f.size}, func(t simtime.Time) {
			if t > latest {
				latest = t
			}
			outstanding--
			if outstanding == 0 {
				d.outstanding--
				done(latest)
			}
		})
	}
}

// reorg recomputes the popularity ranking and migrates chunks whose
// placement changed, hottest chunks first onto the lowest-numbered
// disks.
func (d *PDC) reorg() {
	d.stats.Reorgs++
	type ranked struct {
		chunk int64
		count float64
	}
	chunks := make([]ranked, 0, len(d.counts))
	for c, n := range d.counts {
		chunks = append(chunks, ranked{chunk: c, count: n})
	}
	sort.Slice(chunks, func(i, j int) bool {
		if chunks[i].count != chunks[j].count {
			return chunks[i].count > chunks[j].count
		}
		return chunks[i].chunk < chunks[j].chunk
	})
	// Concentrate: hottest chunks fill disk 0, then disk 1, ...
	migrated := 0
	for i, r := range chunks {
		target := i / int(d.perDisk)
		if target >= len(d.disks) {
			break
		}
		if cur := d.diskOf(r.chunk); cur != target && migrated < pdcMaxMigrations {
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
	}
	// Age history so the ranking tracks shifting popularity.
	for c := range d.counts {
		d.counts[c] *= pdcDecay
		if d.counts[c] < 0.01 {
			delete(d.counts, c)
		}
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
	off := d.offsetOn(chunk)
	size := int64(chunkBytes)
	d.disks[from].Submit(storage.Request{Op: storage.Read, Offset: off, Size: size}, func(simtime.Time) {
		d.disks[to].Submit(storage.Request{Op: storage.Write, Offset: off, Size: size}, func(simtime.Time) {})
	})
}

var _ storage.Device = (*PDC)(nil)
