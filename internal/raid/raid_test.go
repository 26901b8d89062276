package raid

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// handlerFunc adapts a closure to simtime.Handler for test scheduling.
type handlerFunc func(*simtime.Engine, simtime.EventArg)

func (f handlerFunc) OnEvent(e *simtime.Engine, arg simtime.EventArg) { f(e, arg) }

// fakeDisk records member-disk traffic and completes instantly; it lets
// controller tests assert exact op counts without device physics.
type fakeDisk struct {
	engine   *simtime.Engine
	capacity int64
	tl       *powersim.Timeline
	reqs     []storage.Request
}

func newFakeDisk(e *simtime.Engine, capacity int64) *fakeDisk {
	return &fakeDisk{engine: e, capacity: capacity, tl: powersim.NewTimeline(1)}
}

func (f *fakeDisk) Submit(req storage.Request, done func(simtime.Time)) {
	f.reqs = append(f.reqs, req)
	now := f.engine.Now()
	f.engine.ScheduleEvent(now, handlerFunc(func(*simtime.Engine, simtime.EventArg) { done(now) }), simtime.EventArg{})
}

func (f *fakeDisk) Capacity() int64              { return f.capacity }
func (f *fakeDisk) Timeline() *powersim.Timeline { return f.tl }

func fakeArray(t *testing.T, e *simtime.Engine, level Level, n int) (*Array, []*fakeDisk) {
	t.Helper()
	fakes := make([]*fakeDisk, n)
	disks := make([]Disk, n)
	for i := range fakes {
		fakes[i] = newFakeDisk(e, 1<<40)
		disks[i] = fakes[i]
	}
	p := DefaultParams()
	p.Level = level
	a, err := New(e, p, disks)
	if err != nil {
		t.Fatal(err)
	}
	return a, fakes
}

func countOps(fakes []*fakeDisk) (reads, writes int) {
	for _, f := range fakes {
		for _, r := range f.reqs {
			if r.Op == storage.Read {
				reads++
			} else {
				writes++
			}
		}
	}
	return
}

const strip = 128 * 1024

func TestNewValidation(t *testing.T) {
	e := simtime.NewEngine()
	d := []Disk{newFakeDisk(e, 1<<30), newFakeDisk(e, 1<<30)}
	p := DefaultParams()
	if _, err := New(e, p, d); err == nil {
		t.Fatal("RAID5 with 2 disks should fail")
	}
	p.StripBytes = 0
	if _, err := New(e, p, d); err == nil {
		t.Fatal("zero strip should fail")
	}
	p = DefaultParams()
	p.Level = Level(9)
	if _, err := New(e, p, append(d, newFakeDisk(e, 1<<30))); err == nil {
		t.Fatal("unknown level should fail")
	}
	p.Level = RAID0
	if _, err := New(e, p, d[:1]); err != nil {
		t.Fatalf("RAID0 with 1 disk should work: %v", err)
	}
}

func TestCapacity(t *testing.T) {
	e := simtime.NewEngine()
	a5, _ := fakeArray(t, e, RAID5, 6)
	if a5.Capacity() != 5*(1<<40) {
		t.Fatalf("RAID5 capacity = %d", a5.Capacity())
	}
	a0, _ := fakeArray(t, e, RAID0, 6)
	if a0.Capacity() != 6*(1<<40) {
		t.Fatalf("RAID0 capacity = %d", a0.Capacity())
	}
}

func TestRAID5MappingInvariants(t *testing.T) {
	e := simtime.NewEngine()
	a, _ := fakeArray(t, e, RAID5, 6)
	n := 6
	// Walk many logical strips; verify parity rotation and placement.
	for strp := int64(0); strp < 200; strp++ {
		segs := a.mapRange(strp*strip, strip)
		if len(segs) != 1 {
			t.Fatalf("aligned strip maps to %d segments", len(segs))
		}
		s := segs[0]
		if s.disk == s.parityDisk {
			t.Fatalf("strip %d: data on parity disk %d", strp, s.disk)
		}
		if s.disk < 0 || s.disk >= n || s.parityDisk < 0 || s.parityDisk >= n {
			t.Fatalf("strip %d: disk out of range: %+v", strp, s)
		}
		wantStripe := strp / int64(n-1)
		if s.stripe != wantStripe {
			t.Fatalf("strip %d: stripe = %d, want %d", strp, s.stripe, wantStripe)
		}
		if s.parityDisk != int(wantStripe%int64(n)) {
			t.Fatalf("strip %d: parity disk %d not rotating", strp, s.parityDisk)
		}
		if s.diskOffset != wantStripe*strip {
			t.Fatalf("strip %d: disk offset %d", strp, s.diskOffset)
		}
	}
}

func TestRAID5StripeUsesDistinctDisks(t *testing.T) {
	e := simtime.NewEngine()
	a, _ := fakeArray(t, e, RAID5, 6)
	// One full stripe of data: 5 strips must land on 5 distinct disks,
	// none of them the parity disk.
	segs := a.mapRange(0, 5*strip)
	seen := map[int]bool{}
	for _, s := range segs {
		if seen[s.disk] {
			t.Fatalf("disk %d used twice in one stripe", s.disk)
		}
		seen[s.disk] = true
		if s.disk == s.parityDisk {
			t.Fatal("data strip on parity disk")
		}
	}
	if len(segs) != 5 {
		t.Fatalf("full stripe maps to %d segments, want 5", len(segs))
	}
}

// Property: mapRange covers exactly the requested bytes with segments
// that never cross strip boundaries.
func TestPropertyMapRangeCoverage(t *testing.T) {
	e := simtime.NewEngine()
	a, _ := fakeArray(t, e, RAID5, 5)
	f := func(offRaw, sizeRaw int64) bool {
		off := offRaw % (1 << 35)
		if off < 0 {
			off = -off
		}
		size := sizeRaw%(4<<20) + 1
		if size <= 0 {
			size = 1
		}
		segs := a.mapRange(off, size)
		var total int64
		for _, s := range segs {
			total += s.size
			if s.size <= 0 || s.size > strip {
				return false
			}
			if s.diskOffset%strip+s.size > strip {
				return false // crosses a strip boundary on disk
			}
		}
		return total == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFanOut(t *testing.T) {
	e := simtime.NewEngine()
	a, fakes := fakeArray(t, e, RAID5, 4)
	completed := false
	a.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 3 * strip}, func(simtime.Time) { completed = true })
	e.Run()
	if !completed {
		t.Fatal("read never completed")
	}
	reads, writes := countOps(fakes)
	if reads != 3 || writes != 0 {
		t.Fatalf("reads=%d writes=%d, want 3/0", reads, writes)
	}
	if a.Stats().DiskReads != 3 || a.Stats().Reads != 1 {
		t.Fatalf("stats = %+v", a.Stats())
	}
}

func TestSmallWriteIsReadModifyWrite(t *testing.T) {
	e := simtime.NewEngine()
	a, fakes := fakeArray(t, e, RAID5, 4)
	completed := false
	// 4 KB write inside one strip: RMW = read old data + old parity,
	// write new data + new parity.
	a.Submit(storage.Request{Op: storage.Write, Offset: 0, Size: 4096}, func(simtime.Time) { completed = true })
	e.Run()
	if !completed {
		t.Fatal("write never completed")
	}
	reads, writes := countOps(fakes)
	if reads != 2 || writes != 2 {
		t.Fatalf("reads=%d writes=%d, want 2/2 (RMW)", reads, writes)
	}
	s := a.Stats()
	if s.RMWStripes != 1 || s.FullStripeWrites != 0 || s.ParityReads != 1 || s.ParityWrites != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFullStripeWriteSkipsReads(t *testing.T) {
	e := simtime.NewEngine()
	a, fakes := fakeArray(t, e, RAID5, 4)
	completed := false
	// 3 strips (data width of 4-disk RAID5), stripe-aligned.
	a.Submit(storage.Request{Op: storage.Write, Offset: 0, Size: 3 * strip}, func(simtime.Time) { completed = true })
	e.Run()
	if !completed {
		t.Fatal("write never completed")
	}
	reads, writes := countOps(fakes)
	if reads != 0 {
		t.Fatalf("full-stripe write issued %d reads", reads)
	}
	if writes != 4 { // 3 data + 1 parity
		t.Fatalf("writes = %d, want 4", writes)
	}
	s := a.Stats()
	if s.FullStripeWrites != 1 || s.RMWStripes != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMultiStripeWriteMixesPlans(t *testing.T) {
	e := simtime.NewEngine()
	a, _ := fakeArray(t, e, RAID5, 4)
	completed := false
	// 1.5 stripes starting aligned: one full stripe + one partial.
	size := int64(3*strip + strip/2)
	a.Submit(storage.Request{Op: storage.Write, Offset: 0, Size: size}, func(simtime.Time) { completed = true })
	e.Run()
	if !completed {
		t.Fatal("write never completed")
	}
	s := a.Stats()
	if s.FullStripeWrites != 1 || s.RMWStripes != 1 {
		t.Fatalf("stats = %+v, want 1 full + 1 RMW", s)
	}
}

func TestRAID0WriteNoParity(t *testing.T) {
	e := simtime.NewEngine()
	a, fakes := fakeArray(t, e, RAID0, 4)
	a.Submit(storage.Request{Op: storage.Write, Offset: 0, Size: 2 * strip}, func(simtime.Time) {})
	e.Run()
	reads, writes := countOps(fakes)
	if reads != 0 || writes != 2 {
		t.Fatalf("reads=%d writes=%d, want 0/2", reads, writes)
	}
}

func TestWriteCompletionWaitsForSlowestMember(t *testing.T) {
	// Use real HDDs: completion must be >= any member's finish.
	e := simtime.NewEngine()
	a, err := NewHDDArray(e, DefaultParams(), 4, disksim.Seagate7200())
	if err != nil {
		t.Fatal(err)
	}
	var finish simtime.Time
	a.Submit(storage.Request{Op: storage.Write, Offset: 12345 * 512, Size: 64 * 1024}, func(t simtime.Time) { finish = t })
	e.Run()
	if finish <= 0 {
		t.Fatal("no completion")
	}
	if e.Now() != finish {
		// the last simulation event should be that completion (or the
		// disk returning to idle at the same instant)
		if e.Now() < finish {
			t.Fatalf("engine time %v before completion %v", e.Now(), finish)
		}
	}
}

func TestIdleWallPowerScalesWithDiskCount(t *testing.T) {
	// Reproduces Fig. 7's structure: wall power linear in disk count,
	// with a constant chassis offset; disks dominate beyond 3.
	idleWatts := func(n int) float64 {
		e := simtime.NewEngine()
		var a *Array
		var err error
		if n == 0 {
			// Chassis-only enclosure: model via RAID0 helper with 0 disks
			// is invalid, so measure the PSU over an empty sum directly.
			src := powersim.PSU{Source: powersim.Sum{powersim.NewTimeline(HDDChassis().BaseW)}, Efficiency: HDDChassis().PSUEfficiency, StandbyW: HDDChassis().PSUStandbyW}
			return src.MeanWatts(0, simtime.Time(10*simtime.Second))
		}
		p := DefaultParams()
		p.Level = RAID0
		a, err = NewHDDArray(e, p, n, disksim.Seagate7200())
		if err != nil {
			t.Fatal(err)
		}
		e.RunUntil(simtime.Time(10 * simtime.Second))
		return a.PowerSource().MeanWatts(0, e.Now())
	}
	w := make([]float64, 7)
	for n := 0; n <= 6; n++ {
		w[n] = idleWatts(n)
	}
	perDisk := w[1] - w[0]
	if perDisk <= 0 {
		t.Fatalf("adding a disk did not raise power: %v", w)
	}
	for n := 2; n <= 6; n++ {
		inc := w[n] - w[n-1]
		if !powersim.ApproxEqual(inc, perDisk, 0.01) {
			t.Fatalf("non-linear increment at %d disks: %v vs %v", n, inc, perDisk)
		}
	}
	// Paper: beyond three disks the drives dominate the chassis.
	if disks := w[4] - w[0]; disks <= w[0] {
		t.Fatalf("4 disks (%v W) should dominate chassis (%v W)", disks, w[0])
	}
}

func TestFoldOffsetArray(t *testing.T) {
	if got := foldOffset(100, 50, 1000); got != 100 {
		t.Fatalf("in-range fold moved offset: %d", got)
	}
	if got := foldOffset(990, 50, 1000); got != 950 {
		t.Fatalf("tail fold = %d, want 950", got)
	}
	if got := foldOffset(5000, 2000, 1000); got != 0 {
		t.Fatalf("oversize fold = %d, want 0", got)
	}
}

func TestLevelString(t *testing.T) {
	if RAID0.String() != "RAID0" || RAID5.String() != "RAID5" {
		t.Fatal("level names wrong")
	}
	if Level(7).String() == "" {
		t.Fatal("unknown level should still format")
	}
}

func TestConcurrentArrayRequests(t *testing.T) {
	e := simtime.NewEngine()
	a, err := NewHDDArray(e, DefaultParams(), 6, disksim.Seagate7200())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	const n = 200
	completions := 0
	for i := 0; i < n; i++ {
		op := storage.Read
		if rng.IntN(2) == 1 {
			op = storage.Write
		}
		off := rng.Int64N(a.Capacity()/4096-64) * 4096
		a.Submit(storage.Request{Op: op, Offset: off, Size: 4096 * (1 + rng.Int64N(32))}, func(simtime.Time) { completions++ })
	}
	e.Run()
	if completions != n {
		t.Fatalf("completed %d of %d requests", completions, n)
	}
}

func BenchmarkRAID5RandomWrite4K(b *testing.B) {
	e := simtime.NewEngine()
	a, err := NewHDDArray(e, DefaultParams(), 6, disksim.Seagate7200())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := rng.Int64N(a.Capacity()/4096-1) * 4096
		a.Submit(storage.Request{Op: storage.Write, Offset: off, Size: 4096}, func(simtime.Time) {})
		e.Run()
	}
}
