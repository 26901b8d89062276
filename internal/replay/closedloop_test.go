package replay

import (
	"testing"

	"repro/internal/blktrace"
	"repro/internal/disksim"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/synth"
)

func TestClosedLoopReplaysEverything(t *testing.T) {
	e := simtime.NewEngine()
	dev := &fixedLatencyDevice{engine: e, latency: simtime.Millisecond}
	tr := makeTraceSpaced(100, simtime.Second) // sparse: 100 s open-loop
	res, err := ReplayClosedLoop(e, dev, tr, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 100 || res.Issued != 100 {
		t.Fatalf("completed %d issued %d", res.Completed, res.Issued)
	}
	// 100 IOs, 1 ms each, QD 4 -> 25 ms total, vastly faster than the
	// 99 s open-loop horizon.
	if res.Duration() != simtime.Duration(25*simtime.Millisecond) {
		t.Fatalf("duration = %v, want 25ms", res.Duration())
	}
	if res.Filter != "closed-loop" {
		t.Fatalf("filter tag = %q", res.Filter)
	}
}

func TestClosedLoopQueueDepthScalesThroughput(t *testing.T) {
	// Random offsets spread across members so queue depth can buy
	// real parallelism.
	tr := &blktrace.Trace{Device: "rand"}
	for i := 0; i < 400; i++ {
		sector := int64((i*2654435761)%(1<<20)) * 8
		tr.Bunches = append(tr.Bunches, blktrace.Bunch{
			Time:     simtime.Duration(i) * simtime.Millisecond,
			Packages: []blktrace.IOPackage{{Sector: sector, Size: 4096, Op: storage.Read}},
		})
	}
	run := func(qd int) float64 {
		e := simtime.NewEngine()
		a, err := raid.NewHDDArray(e, raid.DefaultParams(), 6, disksim.Seagate7200())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ReplayClosedLoop(e, a, tr, qd, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.IOPS
	}
	if qd1, qd8 := run(1), run(8); qd8 <= qd1*1.5 {
		t.Fatalf("QD8 (%.0f IOPS) should clearly beat QD1 (%.0f IOPS)", qd8, qd1)
	}
}

func TestClosedLoopMatchesCollectPeak(t *testing.T) {
	// Replaying a collected peak trace closed-loop at the same queue
	// depth should deliver roughly the trace's own intensity.
	e := simtime.NewEngine()
	a, err := raid.NewHDDArray(e, raid.DefaultParams(), 6, disksim.Seagate7200())
	if err != nil {
		t.Fatal(err)
	}
	trace, err := synth.Collect(e, a, synth.CollectParams{
		Mode:            synth.Mode{RequestBytes: 4096, ReadRatio: 0.5, RandomRatio: 0.5},
		Duration:        2 * simtime.Second,
		QueueDepth:      8,
		WorkingSetBytes: 8 << 30,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	peak := float64(trace.NumIOs()) / trace.Duration().Seconds()

	e2 := simtime.NewEngine()
	a2, err := raid.NewHDDArray(e2, raid.DefaultParams(), 6, disksim.Seagate7200())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayClosedLoop(e2, a2, trace, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.IOPS / peak
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("closed-loop IOPS %.0f vs collected peak %.0f (ratio %.2f)", res.IOPS, peak, ratio)
	}
}

func TestClosedLoopRejectsInvalidTrace(t *testing.T) {
	e := simtime.NewEngine()
	dev := &fixedLatencyDevice{engine: e, latency: simtime.Millisecond}
	bad := &blktrace.Trace{Bunches: []blktrace.Bunch{{Time: 0}}} // empty bunch
	if _, err := ReplayClosedLoop(e, dev, bad, 4, Options{}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestClosedLoopEmptyTrace(t *testing.T) {
	e := simtime.NewEngine()
	dev := &fixedLatencyDevice{engine: e, latency: simtime.Millisecond}
	res, err := ReplayClosedLoop(e, dev, &blktrace.Trace{Device: "empty"}, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.IOPS != 0 {
		t.Fatalf("empty closed loop: %+v", res)
	}
}

func TestPercentilesOrdering(t *testing.T) {
	e := simtime.NewEngine()
	a, err := raid.NewHDDArray(e, raid.DefaultParams(), 6, disksim.Seagate7200())
	if err != nil {
		t.Fatal(err)
	}
	tr := makeTrace(500)
	res, err := Replay(e, a, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.P50Response <= 0 {
		t.Fatal("p50 missing")
	}
	if !(res.P50Response <= res.P95Response && res.P95Response <= res.P99Response && res.P99Response <= res.MaxResponse) {
		t.Fatalf("percentile ordering violated: p50=%v p95=%v p99=%v max=%v",
			res.P50Response, res.P95Response, res.P99Response, res.MaxResponse)
	}
	if res.P50Response > res.MeanResponse*3 {
		t.Fatalf("median %v implausibly above mean %v", res.P50Response, res.MeanResponse)
	}
}
