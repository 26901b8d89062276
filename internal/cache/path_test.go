package cache

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// TestRequestPathAllocatesNothing: once warm, a cache request costs no
// allocation on either tier, over a real HDD array: front ops and
// fills come off the cache's free lists, planning reuses its scratch,
// the dirty FIFO reuses its buffer and every completion callback is
// bound once.  Each case names the counter its path must move, so a
// case that stops exercising its path fails too.
func TestRequestPathAllocatesNothing(t *testing.T) {
	const eb = DefaultExtentBytes
	type step struct {
		op  storage.Op
		ext int64 // extent index; negative counts fresh extents down from -1
	}
	cases := []struct {
		name  string
		p     Params
		warm  []step // once, before the runs
		run   []step // every run, then the engine drains
		moved func(Stats) int64
	}{
		{"read hit", Params{}, []step{{storage.Read, 0}}, []step{{storage.Read, 0}},
			func(s Stats) int64 { return s.Hits }},
		{"read miss with fill", Params{}, nil, []step{{storage.Read, -1}},
			func(s Stats) int64 { return s.Installs }},
		{"write hit dirtying a line", Params{}, []step{{storage.Read, 0}}, []step{{storage.Write, 0}},
			func(s Stats) int64 { return s.BytesDirtied }},
		// One line and no threshold: the second write evicts the first,
		// still dirty.
		{"write miss evicting a dirty line", Params{CapacityBytes: eb, Ways: 1, DirtyHighRatio: -1}, nil,
			[]step{{storage.Write, -1}, {storage.Write, -2}},
			func(s Stats) int64 { return s.DirtyEvictions }},
		{"idle-drain writeback", Params{}, nil, []step{{storage.Write, -1}},
			func(s Stats) int64 { return s.IdleDrains }},
		// Zone admission caches only the first extent, so every other
		// write goes straight to the array.
		{"bypassed write", Params{Admission: "zone", AdmitZoneBytes: eb}, nil, []step{{storage.Write, -1}},
			func(s Stats) int64 { return s.Bypassed }},
	}
	for _, tier := range []string{TierDRAM, TierSSD} {
		for _, c := range cases {
			t.Run(tier+"/"+c.name, func(t *testing.T) {
				e := simtime.NewEngine()
				arr, err := raid.NewHDDArray(e, raid.DefaultParams(), 5, disksim.Seagate7200())
				if err != nil {
					t.Fatal(err)
				}
				p := c.p
				p.Tier = tier
				if p.CapacityBytes == 0 {
					p.CapacityBytes = 16 * eb
				}
				ch, err := New(e, arr, arr.PowerSource(), p)
				if err != nil {
					t.Fatal(err)
				}
				done := func(simtime.Time) {}
				fresh := int64(16) // extents past the warm set
				do := func(steps []step) {
					base := fresh
					for _, s := range steps {
						ext := s.ext
						if ext < 0 {
							ext = base - ext
							fresh = max(fresh, ext)
						}
						ch.Submit(storage.Request{Op: s.op, Offset: ext*eb + 4096, Size: 8192}, done)
					}
					e.Run()
				}
				do(c.warm)
				run := func() { do(c.run) }
				for range 20 {
					run()
				}
				before := c.moved(ch.Stats())
				if got := testing.AllocsPerRun(200, run); got != 0 {
					t.Fatalf("%v allocations per request, want 0", got)
				}
				if c.moved(ch.Stats()) == before {
					t.Fatal("the runs did not exercise the path")
				}
				if err := ch.CheckInvariants(e.Now()); err != nil {
					t.Fatal(err)
				}
				if err := arr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// writeStream submits one 4 KiB write per series member, cycling over
// extents extents, and counts completions.
type writeStream struct {
	c       *Cache
	extents int64
	done    int
	onDone  func(simtime.Time)
}

func (s *writeStream) OnEvent(_ *simtime.Engine, arg simtime.EventArg) {
	off := (arg.I64 % s.extents) * DefaultExtentBytes
	s.c.Submit(storage.Request{Op: storage.Write, Offset: off, Size: 4096}, s.onDone)
}

// TestIdleDrainHoldsOneTimer: a write every 2 ms keeps the front busy
// well inside the 0.5 s idle drain, and every completion that leaves it
// quiet re-arms the drain.  Each request costs its arrival and its DRAM
// completion; the drain's timer holds one heap slot that only moves
// later.  An event per arming would add a third event per request and
// keep about 250 pending, one per completion inside the window.
func TestIdleDrainHoldsOneTimer(t *testing.T) {
	const n = 5000
	e := simtime.NewEngine()
	arr, err := raid.NewHDDArray(e, raid.DefaultParams(), 5, disksim.Seagate7200())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(e, arr, arr.PowerSource(), Params{Tier: TierDRAM, CapacityBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := &writeStream{c: ch, extents: 64}
	s.onDone = func(simtime.Time) { s.done++ }
	e.ScheduleSeries(n, func(i int) simtime.Time { return simtime.Time(i) * simtime.Time(2*simtime.Millisecond) }, s)
	e.Run()
	if s.done != n {
		t.Fatalf("%d of %d writes completed", s.done, n)
	}
	if err := ch.CheckInvariants(e.Now()); err != nil {
		t.Fatal(err)
	}
	if st := ch.Stats(); st.Hits == 0 || st.Writebacks == 0 {
		t.Fatalf("stats %+v: the stream never hit the tier or wrote back", st)
	}
	t.Logf("fired %d events, heap depth %d", e.Fired(), e.MaxHeapDepth())
	if perReq := float64(e.Fired()) / n; perReq >= 3 {
		t.Errorf("fired %d events for %d requests (%.2f per request), want fewer than 3 per request", e.Fired(), n, perReq)
	}
	if d := e.MaxHeapDepth(); d >= 128 {
		t.Errorf("event heap reached %d pending events, want fewer than 128", d)
	}
}

// twiceDev breaks the device contract: it completes every request
// twice, in the same event.
type twiceDev struct{ fakeDev }

func (d *twiceDev) Submit(req storage.Request, done func(simtime.Time)) {
	finish := d.engine.Now().Add(d.latency)
	d.engine.ScheduleEvent(finish, handlerFunc(func(*simtime.Engine, simtime.EventArg) {
		done(finish)
		done(finish)
	}), simtime.EventArg{})
}

// TestDoubleCompletionPanics: a recycled front op or fill that is
// completed twice must fail loudly rather than let the second
// completion count toward a later request.
func TestDoubleCompletionPanics(t *testing.T) {
	const eb = DefaultExtentBytes
	for _, c := range []struct {
		name string
		p    Params
		req  storage.Request
		want string
	}{
		{"bypassed write", Params{Admission: "zone", AdmitZoneBytes: eb},
			storage.Request{Op: storage.Write, Offset: 4 * eb, Size: 4096}, "idle front op"},
		{"fill", Params{}, storage.Request{Op: storage.Read, Offset: 4 * eb, Size: 4096}, "idle fill"},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := simtime.NewEngine()
			dev := &twiceDev{fakeDev{engine: e, capacity: 1 << 30, latency: simtime.Millisecond}}
			p := c.p
			p.Tier, p.CapacityBytes = TierDRAM, 16*eb
			ch, err := New(e, dev, powersim.NewTimeline(10), p)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Fatalf("recovered %q, want a panic naming the %s", msg, c.want)
				}
			}()
			ch.Submit(c.req, func(simtime.Time) {})
			e.Run()
		})
	}
}
