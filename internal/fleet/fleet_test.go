package fleet

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/slo"
	"repro/internal/storage"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

func testStream() *SynthStream {
	return NewSynthStream(SynthParams{
		Duration:   300 * simtime.Millisecond,
		MeanIOPS:   400,
		Clients:    64,
		Size:       16 << 10,
		ReadRatio:  0.6,
		WorkingSet: 1 << 30,
		Seed:       7,
	})
}

func testFleet(t *testing.T, arrays, workers int) *Fleet {
	t.Helper()
	cfg := experiments.DefaultConfig()
	cfg.Seed = 5
	f, err := New(cfg, experiments.HDDArray, arrays, workers)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetConservation: every offered IO is admitted or rejected,
// every admitted IO completes, and the engines drain fully.
func TestFleetConservation(t *testing.T) {
	f := testFleet(t, 8, 3)
	res, err := f.Run(testStream(), Options{Policy: NewLeastLoaded()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 {
		t.Fatal("stream offered nothing")
	}
	if res.Offered != res.Admitted+res.Rejected {
		t.Fatalf("offered %d != admitted %d + rejected %d", res.Offered, res.Admitted, res.Rejected)
	}
	if res.Admitted != res.Completed {
		t.Fatalf("admitted %d != completed %d", res.Admitted, res.Completed)
	}
	var perArray int64
	for _, a := range res.PerArray {
		perArray += a.Completed
	}
	if perArray != res.Completed {
		t.Fatalf("per-array completions %d != total %d", perArray, res.Completed)
	}
	for i, e := range f.Engines() {
		if e.Pending() != 0 {
			t.Fatalf("array %d: %d events pending after run", i, e.Pending())
		}
		if e.Now() != res.End {
			t.Fatalf("array %d clock %v != end %v", i, e.Now(), res.End)
		}
	}
	for i, a := range f.Arrays() {
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("array %d: %v", i, err)
		}
	}
	if res.MeanWatts <= 0 || res.EnergyJ <= 0 {
		t.Fatalf("power accounting empty: %v W, %v J", res.MeanWatts, res.EnergyJ)
	}
	if res.P50Response <= 0 || res.P99Response < res.P50Response || res.P999Response < res.P99Response {
		t.Fatalf("tail latency disordered: p50=%v p99=%v p999=%v", res.P50Response, res.P99Response, res.P999Response)
	}
}

// TestFleetMeterSeeds: member i's wall power is the reading of a meter
// seeded cfg.Seed + i over the run, and the fleet's totals add the
// members' readings in index order.
func TestFleetMeterSeeds(t *testing.T) {
	f := testFleet(t, 3, 2)
	res, err := f.Run(testStream(), Options{Policy: NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	var watts, joules float64
	for i, a := range f.Arrays() {
		p := powersim.Read(a.PowerSource(), 5+uint64(i), res.Start, res.End)
		if got := res.PerArray[i].MeanWatts; got != p.Watts {
			t.Fatalf("array %d: %v W, want %v W from meter seed %d", i, got, p.Watts, 5+i)
		}
		watts += p.Watts
		joules += p.EnergyJ
	}
	if res.MeanWatts != watts || res.EnergyJ != joules {
		t.Fatalf("fleet power %v W, %v J; members add to %v W, %v J", res.MeanWatts, res.EnergyJ, watts, joules)
	}
}

// TestFleetRunAllocsPerIO: a member's IO path recycles its in-flight
// records and the array's commands and joins, so a 16-array, 8 s run
// allocates under 0.5 objects per completed IO.  About 1,700 of its
// allocations are set-up paid at any run length: ~0.25 per IO over
// its ~8,100 IOs, so one more allocation per IO, such as a completion
// closure, crosses the bound.  Over a 2 s run the set-up alone came to
// ~0.83 per IO and hid such a regression.
func TestFleetRunAllocsPerIO(t *testing.T) {
	f := testFleet(t, 16, 2)
	stream := NewSynthStream(SynthParams{
		Duration:   8 * simtime.Second,
		MeanIOPS:   16 * 64,
		Size:       16 << 10,
		ReadRatio:  0.6,
		WorkingSet: 1 << 30,
		Seed:       7,
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := f.Run(stream, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 1000 {
		t.Fatalf("run completed only %d IOs", res.Completed)
	}
	perIO := float64(after.Mallocs-before.Mallocs) / float64(res.Completed)
	t.Logf("%.3f allocations per IO over %d IOs", perIO, res.Completed)
	if perIO >= 0.5 {
		t.Fatalf("%.2f allocations per completed IO, want < 0.5", perIO)
	}
}

// TestFleetCompletionsLeaveMembersAtBarriers: each barrier moves the
// members' completions into the run's records, so no member holds one
// after a barrier, and the records hold exactly the completed IOs, each
// with its SLO class.
func TestFleetCompletionsLeaveMembersAtBarriers(t *testing.T) {
	eng, err := slo.NewEngine(slo.ExampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	f := testFleet(t, 8, 3)
	barriers := 0
	held := func(when string) {
		for _, m := range f.members {
			if len(m.completions) != 0 {
				t.Errorf("%s: member %d holds %d completions", when, m.index, len(m.completions))
			}
		}
	}
	res, err := f.Run(testStream(), Options{SLO: eng, OnBarrier: func(now simtime.Time) {
		barriers++
		held(fmt.Sprintf("barrier at %v", now))
	}})
	if err != nil {
		t.Fatal(err)
	}
	held("after the run")
	if barriers < 10 {
		t.Fatalf("only %d barriers observed", barriers)
	}
	if int64(len(f.responses)) != res.Completed || len(f.classes) != len(f.responses) {
		t.Fatalf("run records hold %d responses and %d classes, want %d of each", len(f.responses), len(f.classes), res.Completed)
	}
}

// TestFleetWorkerCountInvariance: the entire Result — counts, tails,
// power, per-array rows — is identical at any worker count.
func TestFleetWorkerCountInvariance(t *testing.T) {
	var base *Result
	for _, workers := range []int{1, 2, 5} {
		f := testFleet(t, 10, workers)
		res, err := f.Run(testStream(), Options{
			Policy:    NewLeastLoaded(),
			Admission: NewTokenBucket(300, 20),
			PowerCapW: 4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rejected == 0 {
			t.Fatal("token bucket at 300/s against 400 offered IOPS should reject")
		}
		res.Workers = 0 // the only field allowed to differ
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("results diverge across worker counts:\n%+v\nvs\n%+v", base, res)
		}
	}
}

// TestFleetPolicySpread: round-robin and affinity both spread a
// multi-client stream across arrays.
func TestFleetPolicySpread(t *testing.T) {
	for _, name := range []string{"round-robin", "affinity", "weighted"} {
		pol, err := PolicyFromString(name)
		if err != nil {
			t.Fatal(err)
		}
		f := testFleet(t, 6, 2)
		res, err := f.Run(testStream(), Options{Policy: pol})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		busy := 0
		for _, a := range res.PerArray {
			if a.Admitted > 0 {
				busy++
			}
		}
		if busy < 2 {
			t.Fatalf("%s: only %d of %d arrays saw traffic", name, busy, f.Size())
		}
		if res.Policy != name {
			t.Fatalf("result policy %q, want %q", res.Policy, name)
		}
	}
}

// TestFleetTelemetryLayout: the parent set carries the fleet counters
// with coordinator columns first, worker registries fold in without
// adding columns, and the response histogram count matches completions.
func TestFleetTelemetryLayout(t *testing.T) {
	f := testFleet(t, 4, 2)
	set := telemetry.New(telemetry.Options{})
	res, err := f.Run(testStream(), Options{Telemetry: set})
	if err != nil {
		t.Fatal(err)
	}
	reg := set.Registry()
	if got := reg.Counter("fleet.offered").Value(); got != res.Offered {
		t.Fatalf("fleet.offered %d != %d", got, res.Offered)
	}
	if got := reg.Counter("fleet.completed").Value(); got != res.Completed {
		t.Fatalf("fleet.completed %d != %d", got, res.Completed)
	}
	if got := reg.Counter("fleet.bytes").Value(); got != res.Bytes {
		t.Fatalf("fleet.bytes %d != %d", got, res.Bytes)
	}
	if got := reg.HistogramSnapshot("fleet.response_ns").Count; got != res.Completed {
		t.Fatalf("histogram count %d != completed %d", got, res.Completed)
	}
	if mark := reg.Watermark("fleet.inflight_max").Value(); mark <= 0 {
		t.Fatalf("inflight watermark %d", mark)
	}
	want := []string{"fleet.offered", "fleet.admitted", "fleet.rejected", "fleet.completed", "fleet.bytes", "fleet.inflight_max"}
	cols := reg.Columns()
	if len(cols) != len(want) {
		t.Fatalf("got %d columns %v, want %v", len(cols), cols, want)
	}
	for i, w := range want {
		if cols[i].Name != w {
			t.Fatalf("column %d is %s, want %s", i, cols[i].Name, w)
		}
	}
}

// TestFleetTraceStream: a replayed capture routes through the fleet
// and completes fully.
func TestFleetTraceStream(t *testing.T) {
	wp := synth.DefaultWebServer()
	wp.Duration = 200 * simtime.Millisecond
	trace := synth.WebServerTrace(wp)
	f := testFleet(t, 4, 2)
	res, err := f.Run(NewTraceStream(trace), Options{Policy: NewAffinity()})
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Offered) != trace.NumIOs() {
		t.Fatalf("offered %d != trace IOs %d", res.Offered, trace.NumIOs())
	}
	if res.Completed != res.Admitted {
		t.Fatalf("admitted %d != completed %d", res.Admitted, res.Completed)
	}
}

// TestFleetRejectsArrivalPastHorizon: an arrival near the end of int64
// would wrap the window arithmetic so that Run never returns; Run
// fails on the arrival instead, naming it and its time.
func TestFleetRejectsArrivalPastHorizon(t *testing.T) {
	tr := &blktrace.Trace{Device: "far", Bunches: []blktrace.Bunch{{
		Time:     9223372036854775000,
		Packages: []blktrace.IOPackage{{Sector: 8, Size: 4096, Op: storage.Read}},
	}}}
	f := testFleet(t, 2, 1)
	done := make(chan error, 1)
	go func() {
		_, err := f.Run(NewTraceStream(tr), Options{})
		done <- err
	}()
	select {
	case err := <-done:
		const want = "fleet: arrival 0 at 9223372036.854774s lies past the simulation horizon"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to contain %q", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run had not returned after 10 s")
	}
}

// TestFleetMemberSeedIndependence: member 0 is the single-array system
// exactly; later members draw distinct variate sequences.
func TestFleetMemberSeedIndependence(t *testing.T) {
	cfg := experiments.DefaultConfig()
	req := storage.Request{Op: storage.Read, Offset: 1 << 20, Size: 64 << 10}
	run := func(spec experiments.StackSpec) simtime.Time {
		t.Helper()
		s, err := experiments.Build(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		var done simtime.Time
		s.Device.Submit(req, func(at simtime.Time) { done = at })
		s.Engine.Run()
		return done
	}
	for _, tc := range []struct {
		kind experiments.ArrayKind
		// varies is false for the SSD model, which reserves its RNG
		// stream but draws no variates: its members are identical.
		varies bool
	}{
		{experiments.HDDArray, true},
		{experiments.SSDArray, false},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			t0 := run(experiments.StackSpec{Kind: tc.kind, Member: 0})
			if ts := run(experiments.StackSpec{Kind: tc.kind}); t0 != ts {
				t.Fatalf("member 0 diverges from the single-array system: %v vs %v", t0, ts)
			}
			// Member 1 has independently seeded rotational latencies;
			// identical completion times would mean the seed stride is
			// not applied.
			if t1 := run(experiments.StackSpec{Kind: tc.kind, Member: 1}); tc.varies && t1 == t0 {
				t.Fatalf("member 1 completion time equals member 0 (%v): seed stride not applied?", t1)
			}
		})
	}
}
