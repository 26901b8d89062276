package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/disksim"
	"repro/internal/experiments"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/slo"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Barrier-schedule differential: a run whose windows share barriers
// must leave every result, alert, member engine and drive exactly as a
// run with a barrier after every window does.  A no-op OnBarrier forces
// the latter on the same fleet, stream and options.

// scriptedStream replays a fixed arrival list and declares its span.
// When f is set, every Next records how many distinct router windows
// of the given length the members' pending arrivals span at that
// moment: a per-window schedule never holds more than one.
type scriptedStream struct {
	reqs        []ClientRequest
	next        int
	span        simtime.Duration
	f           *Fleet
	window      simtime.Duration
	heldWindows int
}

func (s *scriptedStream) Duration() simtime.Duration { return s.span }

func (s *scriptedStream) Next() (ClientRequest, bool) {
	if s.f != nil {
		held := map[int64]bool{}
		for _, m := range s.f.members {
			for _, p := range m.pending {
				held[int64(p.issue)/int64(s.window)] = true // runs start at 0
			}
		}
		s.heldWindows = max(s.heldWindows, len(held))
	}
	if s.next == len(s.reqs) {
		return ClientRequest{}, false
	}
	s.next++
	return s.reqs[s.next-1], true
}

// edgyArrivals draws n arrivals that stress the barrier schedule:
// arrivals exactly on window edges, idle gaps of several windows, pairs
// exactly the array's command overhead apart straddling an edge (the
// second arrival ties with the first request's controller event), and
// bursts at one instant, mixed with short random gaps.
func edgyArrivals(seed uint64, n int, window simtime.Duration, clients uint64) []ClientRequest {
	rng := rand.New(rand.NewPCG(seed, 0xba771e5))
	overhead := raid.DefaultParams().CmdOverhead
	var out []ClientRequest
	at := simtime.Time(0)
	push := func() {
		op := storage.Read
		if rng.IntN(5) < 2 {
			op = storage.Write
		}
		size := int64(1+rng.IntN(16)) * 4096
		out = append(out, ClientRequest{
			At:     at,
			Client: rng.Uint64N(clients),
			Req:    storage.Request{Op: op, Offset: rng.Int64N(1<<30/4096) * 4096, Size: size},
		})
	}
	nextEdge := func() simtime.Time {
		return simtime.Time((int64(at)/int64(window) + 1) * int64(window))
	}
	for len(out) < n {
		switch rng.IntN(6) {
		case 0: // on a window edge
			at = nextEdge()
			push()
		case 1: // an idle gap of several windows
			at = at.Add(simtime.Duration(2+rng.IntN(6))*window + simtime.Duration(rng.Int64N(int64(window))))
			push()
		case 2: // a pair one command overhead apart across an edge
			at = max(at, nextEdge().Add(-simtime.Duration(rng.Int64N(int64(overhead)+1))))
			push()
			at = at.Add(overhead)
			push()
		case 3: // a burst at one instant
			for range 2 + rng.IntN(3) {
				push()
			}
		default:
			at = at.Add(simtime.Duration(rng.Int64N(int64(window) / 2)))
			push()
		}
	}
	return out
}

// barrierCase is one fleet run the differential compares.
type barrierCase struct {
	arrays     int
	policy     func() Policy
	reqs       []ClientRequest
	window     simtime.Duration
	slo        bool
	faults     []Fault
	admitRate  float64
	admitBurst float64
	telemetry  bool
}

// outcome is everything a run leaves that the barrier schedule could
// move: the Result and alert bytes, and per member its engine's fired
// count, final clock and heap high-water mark, and each drive's
// counters and timeline.
type outcome struct {
	result, alerts []byte
	members        []string
	heldWindows    int
}

func runBarrierCase(t testing.TB, c barrierCase, workers int, everyWindow bool) outcome {
	t.Helper()
	cfg := experiments.DefaultConfig()
	cfg.Seed = 5
	f, err := New(cfg, experiments.HDDArray, c.arrays, workers)
	if err != nil {
		t.Fatal(err)
	}
	span := c.reqs[len(c.reqs)-1].At.Sub(0) + 1
	window := c.window
	if window <= 0 {
		window = DefaultWindow
	}
	stream := &scriptedStream{reqs: c.reqs, span: span, f: f, window: window}
	opts := Options{Policy: c.policy(), Window: c.window, Faults: c.faults}
	if c.admitRate > 0 {
		opts.Admission = NewTokenBucket(c.admitRate, c.admitBurst)
	}
	if c.telemetry {
		opts.Telemetry = telemetry.New(telemetry.Options{})
	}
	var eng *slo.Engine
	if c.slo {
		if eng, err = slo.NewEngine(slo.ExampleSpec()); err != nil {
			t.Fatal(err)
		}
		opts.SLO = eng
	}
	if everyWindow {
		opts.OnBarrier = func(simtime.Time) {}
	}
	res, err := f.Run(stream, opts)
	if err != nil {
		t.Fatal(err)
	}
	var o outcome
	if o.result, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	if eng != nil {
		var buf bytes.Buffer
		if err := eng.WriteAlerts(&buf); err != nil {
			t.Fatal(err)
		}
		o.alerts = buf.Bytes()
	}
	for i, e := range f.Engines() {
		o.members = append(o.members, fmt.Sprintf("member %d: fired %d, clock %v, heap depth %d", i, e.Fired(), e.Now(), e.MaxHeapDepth()))
		for j, d := range f.Arrays()[i].Disks() {
			o.members = append(o.members, fmt.Sprintf("member %d disk %d: %+v %v",
				i, j, d.(*disksim.HDD).Stats(), d.Timeline().Segments(0, e.Now())))
		}
	}
	o.heldWindows = stream.heldWindows
	return o
}

// compareBarrierSchedules runs c with shared and with per-window
// barriers and fails on the first difference.  It returns the most
// windows the shared schedule held unreplayed at once.
func compareBarrierSchedules(t testing.TB, c barrierCase, workers int) int {
	t.Helper()
	shared := runBarrierCase(t, c, workers, false)
	each := runBarrierCase(t, c, workers, true)
	if each.heldWindows > 1 {
		t.Fatalf("per-window barriers held %d windows unreplayed", each.heldWindows)
	}
	if !bytes.Equal(shared.result, each.result) {
		t.Fatalf("results differ:\nshared barriers     %s\nper-window barriers %s", shared.result, each.result)
	}
	if !bytes.Equal(shared.alerts, each.alerts) {
		t.Fatalf("alerts differ:\nshared barriers\n%s\nper-window barriers\n%s", shared.alerts, each.alerts)
	}
	for i := range each.members {
		if shared.members[i] != each.members[i] {
			t.Fatalf("members differ:\nshared barriers     %s\nper-window barriers %s", shared.members[i], each.members[i])
		}
	}
	return shared.heldWindows
}

// TestSharedBarriersMatchPerWindowBarriers: with round-robin and
// affinity placement, under the SLO example spec, faults (one at the
// run's first instant), admission rejections, idle gaps and arrivals on
// window edges, and on one array fed arrivals exactly a command
// overhead apart, sharing barriers between windows changes nothing a
// run leaves, at 1, 2 and 8 workers.
func TestSharedBarriersMatchPerWindowBarriers(t *testing.T) {
	overhead := raid.DefaultParams().CmdOverhead
	// Pairs one command overhead apart, each straddling a window edge,
	// and a dense run that exhausts the routing budget every window.
	var tied []ClientRequest
	for k := 1; k <= 60; k++ {
		edge := simtime.Time(int64(k) * int64(DefaultWindow))
		for i, at := range []simtime.Time{edge.Add(-overhead / 2), edge.Add(overhead / 2), edge.Add(overhead + overhead/2)} {
			tied = append(tied, ClientRequest{At: at, Client: uint64(k), Req: storage.Request{Op: storage.Op(i % 2), Offset: int64(k) << 20, Size: 8192}})
		}
	}
	for i := range 200 {
		at := tied[len(tied)-1].At.Add(overhead)
		tied = append(tied, ClientRequest{At: at, Client: uint64(i), Req: storage.Request{Op: storage.Read, Offset: int64(i) << 16, Size: 4096}})
	}
	cases := map[string]barrierCase{
		"round-robin": {
			arrays: 8, policy: func() Policy { return NewRoundRobin() },
			reqs: edgyArrivals(1, 1500, DefaultWindow, 64), slo: true,
			faults:    []Fault{{Array: 3, Disk: 1}, {Array: 6, At: 150 * simtime.Millisecond, RebuildBytes: 8 << 20, ChunkBytes: 1 << 20}},
			admitRate: 2500, admitBurst: 20,
		},
		"affinity": {
			arrays: 8, policy: func() Policy { return NewAffinity() },
			reqs: edgyArrivals(2, 1500, DefaultWindow, 24), slo: true,
			faults:    []Fault{{Array: 0, At: 100 * simtime.Millisecond, Disk: 2, RebuildBytes: 8 << 20, ChunkBytes: 1 << 20}},
			admitRate: 2500, admitBurst: 20,
		},
		"round-robin, 1 ms windows": {
			arrays: 5, policy: func() Policy { return NewRoundRobin() },
			reqs: edgyArrivals(3, 800, simtime.Millisecond, 8), window: simtime.Millisecond,
		},
		"one array, arrivals a command overhead apart": {
			arrays: 1, policy: func() Policy { return NewRoundRobin() },
			reqs: tied, slo: true,
			faults: []Fault{{Array: 0, At: DefaultWindow - overhead/2, RebuildBytes: 4 << 20, ChunkBytes: 1 << 20}},
		},
	}
	for name, c := range cases {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				if held := compareBarrierSchedules(t, c, workers); held < 2 {
					t.Fatalf("shared barriers held at most %d window unreplayed: the run never shared a barrier", held)
				}
			})
		}
	}
}

// TestBatchEndsOnBudget: a round-robin fleet routed more than
// barrierBudget requests per member within a few windows, with no idle
// window to end a batch, still ends one on the budget — it holds more
// than one window unreplayed, but fewer than the stream spans — and
// leaves everything as per-window barriers do.
func TestBatchEndsOnBudget(t *testing.T) {
	const arrays, perWindow, windows = 4, 100, 20
	var reqs []ClientRequest
	for i := range perWindow * windows {
		at := simtime.Time(int64(i) * int64(DefaultWindow) / perWindow)
		reqs = append(reqs, ClientRequest{At: at, Client: uint64(i), Req: storage.Request{Op: storage.Op(i % 2), Offset: int64(i%4096) << 16, Size: 4096}})
	}
	if perWindow*windows <= barrierBudget*arrays {
		t.Fatalf("%d requests never fill the %d-request budget", perWindow*windows, barrierBudget*arrays)
	}
	c := barrierCase{arrays: arrays, policy: func() Policy { return NewRoundRobin() }, reqs: reqs, slo: true}
	for _, workers := range []int{1, 2} {
		if held := compareBarrierSchedules(t, c, workers); held < 2 || held >= windows {
			t.Fatalf("workers=%d: batches held at most %d of the stream's %d windows; a budget-ended batch holds from 2 to %d", workers, held, windows, windows-1)
		}
	}
}

// TestStateReadersKeepPerWindowBarriers: a policy that reads ArrayState,
// a policy from outside this package and a run with telemetry never
// hold more than one window unreplayed.
func TestStateReadersKeepPerWindowBarriers(t *testing.T) {
	reqs := edgyArrivals(4, 400, DefaultWindow, 16)
	for name, c := range map[string]barrierCase{
		"least-loaded": {policy: func() Policy { return NewLeastLoaded() }},
		"weighted":     {policy: func() Policy { return NewWeightedScore() }},
		"wrapped":      {policy: func() Policy { return struct{ Policy }{NewRoundRobin()} }},
		"telemetry":    {policy: func() Policy { return NewRoundRobin() }, telemetry: true},
	} {
		t.Run(name, func(t *testing.T) {
			c.arrays, c.reqs = 4, reqs
			if o := runBarrierCase(t, c, 2, false); o.heldWindows > 1 {
				t.Fatalf("%s held %d windows unreplayed", name, o.heldWindows)
			}
		})
	}
}

// FuzzBarrierSchedule holds random small fleets to the differential:
// shared barriers leave every result, alert, engine and drive exactly
// as per-window barriers do.
func FuzzBarrierSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0), uint16(200), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(5), uint16(300), uint8(1))
	f.Add(uint64(3), uint8(6), uint8(10), uint16(120), uint8(7))
	f.Add(uint64(4), uint8(2), uint8(1), uint16(400), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, arrays, windowMs uint8, n uint16, flags uint8) {
		c := barrierCase{
			arrays: 1 + int(arrays%6),
			policy: func() Policy { return NewRoundRobin() },
			window: simtime.Duration(1+int(windowMs%10)) * simtime.Millisecond,
			slo:    flags&2 != 0,
		}
		if flags&1 != 0 {
			c.policy = func() Policy { return NewAffinity() }
		}
		c.reqs = edgyArrivals(seed, 1+int(n%400), c.window, 32)
		if flags&4 != 0 {
			c.admitRate, c.admitBurst = 1000, 4
		}
		if flags&8 != 0 {
			span := c.reqs[len(c.reqs)-1].At.Sub(0) + 1
			c.faults = []Fault{{Array: int(seed % uint64(c.arrays)), Disk: int(seed % 6), At: simtime.Duration(seed % uint64(span)), RebuildBytes: 2 << 20, ChunkBytes: 512 << 10}}
		}
		compareBarrierSchedules(t, c, 1+int(flags>>4)%3)
	})
}
