package cache

import (
	"strings"
	"testing"

	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// handlerFunc adapts a closure to simtime.Handler for test scheduling.
type handlerFunc func(*simtime.Engine, simtime.EventArg)

func (f handlerFunc) OnEvent(e *simtime.Engine, arg simtime.EventArg) { f(e, arg) }

// fakeDev is a scripted backing device: fixed latency, records every
// request it receives.
type fakeDev struct {
	engine   *simtime.Engine
	capacity int64
	latency  simtime.Duration
	reqs     []storage.Request
}

func (d *fakeDev) Submit(req storage.Request, done func(simtime.Time)) {
	d.reqs = append(d.reqs, req)
	finish := d.engine.Now().Add(d.latency)
	d.engine.ScheduleEvent(finish, handlerFunc(func(*simtime.Engine, simtime.EventArg) { done(finish) }), simtime.EventArg{})
}

func (d *fakeDev) Capacity() int64 { return d.capacity }

func (d *fakeDev) countOp(op storage.Op) int {
	n := 0
	for _, r := range d.reqs {
		if r.Op == op {
			n++
		}
	}
	return n
}

func newTestCache(t *testing.T, p Params) (*simtime.Engine, *fakeDev, *Cache) {
	t.Helper()
	engine := simtime.NewEngine()
	dev := &fakeDev{engine: engine, capacity: 1 << 30, latency: 5 * simtime.Millisecond}
	src := powersim.NewTimeline(10)
	c, err := New(engine, dev, src, p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return engine, dev, c
}

func dramParams() Params {
	return Params{Tier: TierDRAM, CapacityBytes: 1 << 20} // 16 lines at 64 KiB
}

func submit(t *testing.T, engine *simtime.Engine, c *Cache, op storage.Op, off, size int64) simtime.Time {
	t.Helper()
	var finish simtime.Time
	fired := 0
	c.Submit(storage.Request{Op: op, Offset: off, Size: size}, func(at simtime.Time) {
		finish = at
		fired++
	})
	engine.Run()
	if fired != 1 {
		t.Fatalf("done fired %d times, want 1", fired)
	}
	return finish
}

func TestBadParams(t *testing.T) {
	engine := simtime.NewEngine()
	dev := &fakeDev{engine: engine, capacity: 1 << 30, latency: simtime.Microsecond}
	cases := []struct {
		p    Params
		want string
	}{
		{Params{Tier: "tape", CapacityBytes: 1 << 20}, "unknown tier"},
		{Params{Tier: TierDRAM, CapacityBytes: 1 << 20, Admission: "maybe"}, "unknown admission"},
		{Params{Tier: TierDRAM, CapacityBytes: 1 << 20, Eviction: "fifo"}, "unknown eviction"},
		{Params{Tier: TierDRAM, CapacityBytes: -1}, "negative capacity"},
		{Params{Tier: TierDRAM, CapacityBytes: 1 << 10}, "below one"},
		{Params{Tier: TierDRAM, CapacityBytes: 1<<30 + 1}, "exceeds the 1073741824-byte backing device"},
		{Params{Tier: TierSSD, CapacityBytes: 1 << 62}, "exceeds the 1073741824-byte backing device"},
	}
	for _, tc := range cases {
		_, err := New(engine, dev, nil, tc.p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%+v) error = %v, want containing %q", tc.p, err, tc.want)
		}
	}
}

func TestPassthroughAddsNothing(t *testing.T) {
	engine, dev, c := newTestCache(t, Params{Tier: TierNone})
	if !c.Passthrough() {
		t.Fatal("tier none should be a pass-through")
	}
	// PowerSource must be the backing source itself, not a wrapper.
	if _, ok := c.PowerSource().(*powersim.Timeline); !ok {
		t.Fatalf("pass-through PowerSource = %T, want the backing *powersim.Timeline", c.PowerSource())
	}
	submit(t, engine, c, storage.Read, 0, 4096)
	if len(dev.reqs) != 1 {
		t.Fatalf("backing saw %d requests, want 1", len(dev.reqs))
	}
	if got := c.Stats(); got.Requests != 0 {
		t.Fatalf("pass-through recorded stats: %+v", got)
	}
	// Zero capacity behaves identically.
	_, _, c2 := newTestCache(t, Params{Tier: TierDRAM, CapacityBytes: 0})
	if !c2.Passthrough() {
		t.Fatal("zero capacity should be a pass-through")
	}
}

func TestReadMissThenHit(t *testing.T) {
	engine, dev, c := newTestCache(t, dramParams())
	f1 := submit(t, engine, c, storage.Read, 0, 4096)
	if got := dev.countOp(storage.Read); got != 1 {
		t.Fatalf("backing reads after miss = %d, want 1", got)
	}
	f2 := submit(t, engine, c, storage.Read, 0, 4096)
	if got := dev.countOp(storage.Read); got != 1 {
		t.Fatalf("backing reads after hit = %d, want 1 (hit must not reach backing)", got)
	}
	if f2 <= f1 {
		t.Fatal("hit completion time not advancing")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Installs != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 install", st)
	}
	if err := c.CheckInvariants(engine.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAllocateAndDrain(t *testing.T) {
	engine, dev, c := newTestCache(t, dramParams())
	submit(t, engine, c, storage.Write, 64<<10, 8192)
	st := c.Stats()
	if st.BytesDirtied != 8192 {
		t.Fatalf("BytesDirtied = %d, want 8192", st.BytesDirtied)
	}
	// The engine drained, so the idle-drain policy must have written
	// everything back.
	if st.DirtyBytes != 0 {
		t.Fatalf("DirtyBytes = %d after drain, want 0", st.DirtyBytes)
	}
	if st.WritebackBytes != 8192 {
		t.Fatalf("WritebackBytes = %d, want 8192", st.WritebackBytes)
	}
	if got := dev.countOp(storage.Write); got != 1 {
		t.Fatalf("backing writes = %d, want exactly the writeback", got)
	}
	// No fill read: write-allocate tracks the dirty union instead.
	if got := dev.countOp(storage.Read); got != 0 {
		t.Fatalf("backing reads = %d, want 0 for a write miss", got)
	}
	if err := c.CheckInvariants(engine.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyUnionCoalescesWrites(t *testing.T) {
	p := dramParams()
	p.IdleDrain = 10 * simtime.Second // keep dirty while we write twice
	engine, dev, c := newTestCache(t, p)
	c.Submit(storage.Request{Op: storage.Write, Offset: 0, Size: 4096}, func(simtime.Time) {})
	c.Submit(storage.Request{Op: storage.Write, Offset: 60 << 10, Size: 4096}, func(simtime.Time) {})
	engine.Run()
	st := c.Stats()
	// Union is the whole extent: 4k + (64k-4k) growth.
	if st.BytesDirtied != 64<<10 {
		t.Fatalf("BytesDirtied = %d, want %d (union growth)", st.BytesDirtied, 64<<10)
	}
	if st.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1 coalesced IO", st.Writebacks)
	}
	if got := dev.countOp(storage.Write); got != 1 {
		t.Fatalf("backing writes = %d, want 1", got)
	}
	if st.BytesDirtied != st.WritebackBytes+st.DirtyBytes {
		t.Fatalf("conservation violated: %+v", st)
	}
}

func TestThresholdDrain(t *testing.T) {
	p := dramParams()
	p.DirtyHighRatio = 0.25 // 4 of 16 lines
	p.FlushInterval = -1
	p.IdleDrain = -1
	engine, _, c := newTestCache(t, p)
	for i := int64(0); i < 8; i++ {
		c.Submit(storage.Request{Op: storage.Write, Offset: i * 64 << 10, Size: 4096}, func(simtime.Time) {})
	}
	engine.Run()
	st := c.Stats()
	if st.ThresholdDrains == 0 {
		t.Fatalf("no threshold drains at 8 dirty lines over a 4-line high-water mark: %+v", st)
	}
	if c.dirtyLines > 4 {
		t.Fatalf("dirty lines %d stayed above high-water mark 4", c.dirtyLines)
	}
	if st.BytesDirtied != st.WritebackBytes+st.DirtyBytes {
		t.Fatalf("conservation violated: %+v", st)
	}
}

func TestPeriodicFlushTerminates(t *testing.T) {
	p := dramParams()
	p.FlushInterval = simtime.Second / 10
	p.IdleDrain = -1 // isolate the periodic policy
	engine, _, c := newTestCache(t, p)
	submit(t, engine, c, storage.Write, 0, 4096)
	// engine.Run returned, so the timer did not re-arm forever.
	st := c.Stats()
	if st.FlushCycles != 1 || st.DirtyBytes != 0 {
		t.Fatalf("stats = %+v, want one flush cycle and no dirty bytes", st)
	}
	if engine.Pending() != 0 {
		t.Fatalf("%d events still pending after drain", engine.Pending())
	}
}

func TestIdleDrainStaleGeneration(t *testing.T) {
	p := dramParams()
	p.FlushInterval = -1
	p.IdleDrain = simtime.Second
	engine, _, c := newTestCache(t, p)
	c.Submit(storage.Request{Op: storage.Write, Offset: 0, Size: 4096}, func(simtime.Time) {})
	// A second write lands before the first idle deadline; the second
	// deadline supersedes the first and must drain.
	engine.ScheduleEvent(engine.Now().Add(simtime.Second/2), handlerFunc(func(*simtime.Engine, simtime.EventArg) {
		c.Submit(storage.Request{Op: storage.Write, Offset: 128 << 10, Size: 4096}, func(simtime.Time) {})
	}), simtime.EventArg{})
	engine.Run()
	st := c.Stats()
	if st.IdleDrains != 1 {
		t.Fatalf("IdleDrains = %d, want exactly 1 (first deadline superseded)", st.IdleDrains)
	}
	if st.DirtyBytes != 0 {
		t.Fatalf("DirtyBytes = %d after drain, want 0", st.DirtyBytes)
	}
}

func TestZoneAdmission(t *testing.T) {
	p := dramParams()
	p.Admission = "zone"
	p.AdmitZoneBytes = 256 << 10 // first 4 extents
	engine, dev, c := newTestCache(t, p)
	submit(t, engine, c, storage.Read, 0, 4096)       // in zone: install
	submit(t, engine, c, storage.Read, 512<<10, 4096) // out of zone: bypass
	submit(t, engine, c, storage.Read, 512<<10, 4096) // still a miss
	st := c.Stats()
	if st.Installs != 1 {
		t.Fatalf("Installs = %d, want 1 (zone policy)", st.Installs)
	}
	if st.Bypassed != 2 {
		t.Fatalf("Bypassed = %d, want 2", st.Bypassed)
	}
	if got := dev.countOp(storage.Read); got != 3 {
		t.Fatalf("backing reads = %d, want 3", got)
	}
}

func TestBypassLargeSequential(t *testing.T) {
	p := dramParams()
	p.Admission = "bypass-seq"
	p.BypassBytes = 128 << 10
	engine, _, c := newTestCache(t, p)
	// One large write: bypassed entirely.
	submit(t, engine, c, storage.Write, 0, 256<<10)
	if st := c.Stats(); st.Installs != 0 {
		t.Fatalf("large write installed %d lines, want 0", st.Installs)
	}
	// Small random write: admitted.
	submit(t, engine, c, storage.Write, 10<<20, 4096)
	if st := c.Stats(); st.Installs != 1 {
		t.Fatalf("small write installs = %d, want 1", st.Installs)
	}
	// Sequential run of small writes crosses the run threshold and
	// stops installing.
	var off int64 = 100 << 20
	for i := 0; i < 64; i++ {
		submit(t, engine, c, storage.Write, off, 4096)
		off += 4096
	}
	st := c.Stats()
	if st.Installs >= 40 {
		t.Fatalf("sequential run kept installing (%d installs)", st.Installs)
	}
}

func TestSSDTier(t *testing.T) {
	engine, dev, c := newTestCache(t, Params{Tier: TierSSD, CapacityBytes: 8 << 20})
	if c.SSD() == nil {
		t.Fatal("SSD tier did not build an SSD device")
	}
	f1 := submit(t, engine, c, storage.Read, 0, 4096)
	f2 := submit(t, engine, c, storage.Read, 0, 4096)
	if got := dev.countOp(storage.Read); got != 1 {
		t.Fatalf("backing reads = %d, want 1", got)
	}
	if f2.Sub(f1) <= 0 {
		t.Fatal("SSD hit did not advance the clock")
	}
	if c.SSD().ServedOps() == 0 {
		t.Fatal("SSD tier served no ops")
	}
	if err := c.CheckInvariants(engine.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestPowerSourceSumsTier(t *testing.T) {
	_, _, c := newTestCache(t, dramParams())
	src := c.PowerSource()
	t0, t1 := simtime.Time(0), simtime.Time(0).Add(10*simtime.Second)
	// Backing timeline is 10 W; 1 MiB DRAM at 0.375 W/GB adds a tiny
	// static draw on top.
	got := src.MeanWatts(t0, t1)
	want := 10 + float64(1<<20)/float64(1<<30)*0.375
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("MeanWatts = %v, want %v", got, want)
	}
}
