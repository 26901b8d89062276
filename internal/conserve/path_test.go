package conserve

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"repro/internal/disksim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// TestTechniqueRequestPathsAllocateNothing: once warm, PDC, MAID and
// eRAID serve a request, its completion and the policy's timers
// without allocating: joins and in-flight records come off the
// device's free lists, and PDC ranks into kept scratch.  Power-timeline
// growth is amortised, not per request.
func TestTechniqueRequestPathsAllocateNothing(t *testing.T) {
	small := storage.Request{Op: storage.Read, Offset: 3 << 20, Size: 4096}
	// 256 KiB from 32 KiB into a chunk spans five 64 KiB chunks.
	large := storage.Request{Op: storage.Read, Offset: 7<<20 + 32<<10, Size: 256 << 10}
	write := func(r storage.Request) storage.Request { r.Op = storage.Write; return r }
	build := map[string]func(*simtime.Engine) storage.Device{
		"pdc":  func(e *simtime.Engine) storage.Device { return NewPDC(e, Spec{Technique: "pdc"}) },
		"maid": func(e *simtime.Engine) storage.Device { return NewMAID(e, Spec{Technique: "maid"}) },
		"eraid": func(e *simtime.Engine) storage.Device {
			d, err := NewERAIDArray(e, Spec{Technique: "eraid"})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	cases := []struct {
		technique string
		name      string
		req       storage.Request
	}{
		{"pdc", "4 KiB read", small},
		{"pdc", "256 KiB read", large},
		{"pdc", "256 KiB write", write(large)},
		// MAID's warm-up reads fill the cache, so these reads hit and
		// these writes land on resident chunks.
		{"maid", "4 KiB read hit", small},
		{"maid", "256 KiB read hit", large},
		{"maid", "4 KiB write to a resident chunk", write(small)},
		{"maid", "256 KiB write to resident chunks", write(large)},
		// eRAID rests a member at its first tick, so reads of the rested
		// member's strips reconstruct from the survivors.
		{"eraid", "4 KiB read", small},
		{"eraid", "256 KiB read", large},
		{"eraid", "4 KiB write", write(small)},
	}
	for _, c := range cases {
		e := simtime.NewEngine()
		dev := build[c.technique](e)
		done := func(simtime.Time) {}
		for i := 0; i < 100; i++ {
			dev.Submit(small, done)
			dev.Submit(large, done)
			dev.Submit(c.req, done)
			e.Run()
		}
		allocs := testing.AllocsPerRun(100, func() {
			dev.Submit(c.req, done)
			e.Run()
		})
		if allocs != 0 {
			t.Errorf("%s: %s: %v allocations per request, want 0", c.technique, c.name, allocs)
		}
	}
}

// TestMAIDReadMissAllocatesOnlyItsDirectoryEntry: a read miss enters
// its chunk in the cache directory, which takes one allocation (the
// entry) and, now and then, the directory map's growth; everything
// else on the miss path (the join, the miss record, the data-disk read
// and the cache fill) is recycled.
func TestMAIDReadMissAllocatesOnlyItsDirectoryEntry(t *testing.T) {
	e := simtime.NewEngine()
	m := NewMAID(e, Spec{Technique: "maid"})
	done := func(simtime.Time) {}
	next := int64(0)
	miss := func() {
		m.Submit(storage.Request{Op: storage.Read, Offset: next * chunkBytes, Size: 4096}, done)
		next++
		e.Run()
	}
	for i := 0; i < 100; i++ {
		miss()
	}
	misses := m.Stats().ReadMisses
	allocs := testing.AllocsPerRun(100, miss)
	if got := m.Stats().ReadMisses - misses; got != 101 {
		t.Fatalf("%d read misses, want 101 (one per request)", got)
	}
	if allocs > 1 {
		t.Errorf("%v allocations per read miss, want at most 1 (the directory entry)", allocs)
	}
}

// twiceDisk is a member drive that completes every request twice.
type twiceDisk struct{ *disksim.HDD }

func (d twiceDisk) Submit(req storage.Request, done func(simtime.Time)) {
	d.HDD.Submit(req, func(t simtime.Time) { done(t); done(t) })
}

// recoverPanic runs f and returns the string it panicked with.
func recoverPanic(f func()) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	f()
	return ""
}

// TestCompletingTwicePanics: a repeated completion lands on a record
// that has already recycled, which must stop the run loudly rather
// than complete whichever request holds the record next.  A JBOD member
// that completes a fragment twice hits the JBOD's join; a PDC member or
// a MAID data disk doing so hits its TPM record first, so the PDC and
// MAID joins and eRAID's record (below a raid.Array, which checks its
// own members) are landed twice directly.
func TestCompletingTwicePanics(t *testing.T) {
	const (
		idleJoin   = "fragment completion at %s landed on an idle join (a member completed a fragment twice)"
		idleRecord = "conserve: request completion at %s landed on an idle record (the wrapped device completed a request twice)"
	)
	read := storage.Request{Op: storage.Read, Offset: 0, Size: 4096}
	cases := []struct {
		name, want string
		run        func(*simtime.Engine, func(simtime.Time))
	}{
		{"JBOD member", "conserve: JBOD " + idleJoin, func(e *simtime.Engine, done func(simtime.Time)) {
			j, err := NewJBOD([]Member{twiceDisk{newHDD(e)}, newHDD(e)})
			if err != nil {
				t.Fatal(err)
			}
			j.Submit(read, done)
			e.Run()
		}},
		{"PDC member", idleRecord, func(e *simtime.Engine, done func(simtime.Time)) {
			d := NewPDC(e, Spec{Technique: "pdc"})
			d.disks[0] = NewManagedDisk(e, twiceDisk{d.hdds[0]}, simtime.Second)
			d.Submit(read, done)
			e.Run()
		}},
		{"MAID data disk", idleRecord, func(e *simtime.Engine, done func(simtime.Time)) {
			m := NewMAID(e, Spec{Technique: "maid"})
			m.data[0] = NewManagedDisk(e, twiceDisk{newHDD(e)}, simtime.Second)
			m.Submit(read, done)
			e.Run()
		}},
		{"PDC join", "conserve: PDC " + idleJoin, func(e *simtime.Engine, done func(simtime.Time)) {
			jn := NewPDC(e, Spec{Technique: "pdc"}).joins.get(done, 1)
			jn.land(5)
			jn.land(5)
		}},
		{"MAID join", "conserve: MAID " + idleJoin, func(e *simtime.Engine, done func(simtime.Time)) {
			jn := NewMAID(e, Spec{Technique: "maid"}).joins.get(done, 1)
			jn.land(5)
			jn.land(5)
		}},
		{"eRAID record", idleRecord, func(e *simtime.Engine, done func(simtime.Time)) {
			a, err := NewERAIDArray(e, Spec{Technique: "eraid"})
			if err != nil {
				t.Fatal(err)
			}
			r := a.free.get(a, done)
			r.land(5)
			r.land(5)
		}},
	}
	for _, c := range cases {
		completions := 0
		var last simtime.Time
		msg := recoverPanic(func() {
			c.run(simtime.NewEngine(), func(t simtime.Time) { completions, last = completions+1, t })
		})
		// The repeated completion lands when the first did.
		if want := fmt.Sprintf(c.want, last); msg != want {
			t.Errorf("%s: recovered %q, want %q", c.name, msg, want)
		}
		if completions != 1 {
			t.Errorf("%s: request completed %d times before the panic, want 1", c.name, completions)
		}
	}
}

// refReorg is PDC.reorg as it was before it ranked only the chunks that
// can move: it ranks every counted chunk with sort.Slice, then ages the
// counts in a walk of their own.
func refReorg(d *PDC) {
	d.stats.Reorgs++
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
				continue
			}
			d.migrate(r.chunk, cur, target)
			migrated++
		}
	}
	for c := range d.counts {
		d.counts[c] *= pdcDecay
		if d.counts[c] < 0.01 {
			delete(d.counts, c)
		}
	}
	if d.windowIOs == 0 && d.outstanding == 0 {
		d.armed = false
		return
	}
	d.windowIOs = 0
	d.armed = scheduleClamped(d.engine, d.engine.Now().Add(d.reorgEvery), d)
}

// vetoEveryFifth vetoes one proposal in five, by sequence number.
type vetoEveryFifth struct{}

func (vetoEveryFifth) Approve(d Decision) bool { return d.Seq%5 != 3 }

// pdcRun is one PDC driven by a seeded request stream, its ranking
// passes run from test events every two seconds.  wide counts the
// passes that found more counted chunks than one disk holds.
type pdcRun struct {
	d            *PDC
	log          decisionLog
	passes, wide int
}

func runPDCRanking(perDisk int64, reorg func(*PDC)) *pdcRun {
	e := simtime.NewEngine()
	r := &pdcRun{}
	// The PDC's own reorganisation tick never comes due in the run, so
	// only the test's passes rank.
	r.d = NewPDC(e, Spec{Technique: "pdc", PDCReorgInterval: 1000 * simtime.Hour, SpinDownTimeout: 3 * simtime.Second,
		Control: &Control{Observer: &r.log, Arbiter: vetoEveryFifth{}}})
	if perDisk > 0 {
		r.d.perDisk = perDisk
	}
	rng := rand.New(rand.NewPCG(27, uint64(perDisk)))
	capacity := r.d.Capacity() / chunkBytes
	at := simtime.Time(0)
	for i := 0; i < 4000; i++ {
		at = at.Add(simtime.Duration(rng.Int64N(int64(50 * simtime.Millisecond))))
		// A hot set of 40 chunks that drifts every 20 s, and a cold tail.
		chunk := rng.Int64N(capacity)
		if rng.IntN(4) != 0 {
			chunk = (int64(at/simtime.Time(20*simtime.Second))*13 + rng.Int64N(40)) % capacity
		}
		req := storage.Request{Op: storage.Read, Offset: chunk*chunkBytes + rng.Int64N(16)*4096, Size: 4096 * (1 + rng.Int64N(24))}
		if rng.IntN(3) == 0 {
			req.Op = storage.Write
		}
		e.ScheduleEvent(at, handlerFunc(func(*simtime.Engine, simtime.EventArg) { r.d.Submit(req, func(simtime.Time) {}) }), simtime.EventArg{})
		if i%1000 == 500 {
			// A scan of 400 chunks within a second: more candidates than
			// one pass may migrate.
			for j := int64(0); j < 400; j++ {
				req := storage.Request{Op: storage.Read, Offset: (1000 + 7*j) % capacity * chunkBytes, Size: 4096}
				e.ScheduleEvent(at.Add(simtime.Duration(j)*2*simtime.Millisecond), handlerFunc(func(*simtime.Engine, simtime.EventArg) { r.d.Submit(req, func(simtime.Time) {}) }), simtime.EventArg{})
			}
		}
	}
	// Passes go on for a minute after the stream, while aging shrinks
	// the counted set through every size.
	for pass := simtime.Time(2 * simtime.Second); pass < at+simtime.Time(simtime.Minute); pass += simtime.Time(2 * simtime.Second) {
		e.ScheduleEvent(pass, handlerFunc(func(*simtime.Engine, simtime.EventArg) {
			r.passes++
			if int64(len(r.d.counts)) > r.d.perDisk {
				r.wide++
			}
			reorg(r.d)
		}), simtime.EventArg{})
	}
	e.RunUntil(at + simtime.Time(2*simtime.Minute))
	return r
}

// TestPDCRankingMatchesSortReference: ranking only the chunks that can
// move, with one aging pass, proposes, vetoes and migrates exactly as
// ranking every chunk did.  With the default one-disk capacity every
// rank targets disk 0, and scans fill passes to the migration cap; with
// perDisk forced to 8 chunks, passes that count more chunks than that
// rank them all and spread targets over the disks, and the rest rank
// only the candidates.
func TestPDCRankingMatchesSortReference(t *testing.T) {
	for _, perDisk := range []int64{0, 8} {
		got, want := runPDCRanking(perDisk, (*PDC).reorg), runPDCRanking(perDisk, refReorg)
		if !slices.Equal(got.log, want.log) {
			n := min(len(got.log), len(want.log))
			for i := 0; i < n && i < len(got.log); i++ {
				if got.log[i] != want.log[i] {
					t.Fatalf("perDisk %d: decision %d is %+v, reference %+v", perDisk, i, got.log[i], want.log[i])
				}
			}
			t.Fatalf("perDisk %d: %d decisions, reference %d", perDisk, len(got.log), len(want.log))
		}
		if !maps.Equal(got.d.placement, want.d.placement) || !maps.Equal(got.d.counts, want.d.counts) || got.d.stats != want.d.stats {
			t.Fatalf("perDisk %d: placement, counts or stats %+v differ from the reference's %+v", perDisk, got.d.stats, want.d.stats)
		}
		var migrations, vetoes, farTargets, mostInPass int
		inPass := map[int64]int{}
		for _, d := range got.log {
			if d.Kind != DecisionMigrate {
				continue
			}
			migrations++
			if d.Vetoed {
				vetoes++
			} else {
				inPass[d.At]++
				mostInPass = max(mostInPass, inPass[d.At])
			}
			if d.ToDisk > 0 {
				farTargets++
			}
		}
		t.Logf("perDisk %d: %d passes, %d ranking every chunk; %d decisions, %d migration proposals, %d vetoed, %d past disk 0, at most %d moves in a pass, %+v",
			perDisk, got.passes, got.wide, len(got.log), migrations, vetoes, farTargets, mostInPass, got.d.stats)
		if vetoes == 0 || (perDisk > 0) != (farTargets > 0) || (perDisk == 0) != (mostInPass == pdcMaxMigrations) ||
			got.wide == got.passes || (perDisk > 0) != (got.wide > 0) {
			t.Errorf("perDisk %d: %d vetoed, %d targeting past disk 0, at most %d moves in a pass, %d of %d passes ranking every chunk: the stream does not exercise the ranking",
				perDisk, vetoes, farTargets, mostInPass, got.wide, got.passes)
		}
	}
}
