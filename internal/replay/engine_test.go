package replay

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/disksim"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/synth"
)

// handlerFunc adapts a closure to simtime.Handler for test scheduling.
type handlerFunc func(*simtime.Engine, simtime.EventArg)

func (f handlerFunc) OnEvent(e *simtime.Engine, arg simtime.EventArg) { f(e, arg) }

// fixedLatencyDevice completes every request after a constant delay.
type fixedLatencyDevice struct {
	engine  *simtime.Engine
	latency simtime.Duration
}

func (d *fixedLatencyDevice) Submit(req storage.Request, done func(simtime.Time)) {
	finish := d.engine.Now().Add(d.latency)
	d.engine.ScheduleEvent(finish, handlerFunc(func(*simtime.Engine, simtime.EventArg) { done(finish) }), simtime.EventArg{})
}

func (d *fixedLatencyDevice) Capacity() int64 { return 1 << 40 }

// Counter wraps a device and counts submissions, completions and bytes
// moved, so a test can check what a replay issued.
type Counter struct {
	Dev                     storage.Device
	Submitted, Completed    int64
	BytesRead, BytesWritten int64
}

// Submit implements storage.Device.
func (c *Counter) Submit(req storage.Request, done func(simtime.Time)) {
	c.Submitted++
	switch req.Op {
	case storage.Read:
		c.BytesRead += req.Size
	case storage.Write:
		c.BytesWritten += req.Size
	}
	c.Dev.Submit(req, func(t simtime.Time) {
		c.Completed++
		done(t)
	})
}

// Capacity implements storage.Device.
func (c *Counter) Capacity() int64 { return c.Dev.Capacity() }

// instantDevice completes immediately; used to exercise Counter.
type instantDevice struct{}

func (instantDevice) Submit(req storage.Request, done func(simtime.Time)) { done(0) }
func (instantDevice) Capacity() int64                                     { return 1 << 20 }

func TestCounter(t *testing.T) {
	c := &Counter{Dev: instantDevice{}}
	c.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(simtime.Time) {})
	c.Submit(storage.Request{Op: storage.Write, Offset: 0, Size: 512}, func(simtime.Time) {})
	if c.Submitted != 2 || c.Completed != 2 {
		t.Fatalf("counts: %+v", c)
	}
	if c.BytesRead != 4096 || c.BytesWritten != 512 {
		t.Fatalf("bytes: %+v", c)
	}
	if c.Capacity() != 1<<20 {
		t.Fatalf("capacity = %d", c.Capacity())
	}
}

func TestReplayIssuesEverything(t *testing.T) {
	e := simtime.NewEngine()
	dev := &fixedLatencyDevice{engine: e, latency: simtime.Millisecond}
	tr := makeTrace(100)
	res, err := Replay(e, dev, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 100 || res.Completed != 100 {
		t.Fatalf("issued=%d completed=%d, want 100/100", res.Issued, res.Completed)
	}
	if res.Bytes != 100*4096 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	// last bunch at 99 ms + 1 ms latency
	if res.End != simtime.Time(100*simtime.Millisecond) {
		t.Fatalf("End = %v, want 100ms", res.End)
	}
	if res.MeanResponse != simtime.Millisecond || res.MaxResponse != simtime.Millisecond {
		t.Fatalf("responses: mean=%v max=%v", res.MeanResponse, res.MaxResponse)
	}
	wantIOPS := 100 / 0.1
	if math.Abs(res.IOPS-wantIOPS) > 1e-6 {
		t.Fatalf("IOPS = %v, want %v", res.IOPS, wantIOPS)
	}
}

func TestReplayHonoursTimestamps(t *testing.T) {
	e := simtime.NewEngine()
	dev := &fixedLatencyDevice{engine: e, latency: simtime.Microsecond}
	tr := &blktrace.Trace{Device: "x", Bunches: []blktrace.Bunch{
		{Time: 50 * simtime.Millisecond, Packages: []blktrace.IOPackage{{Sector: 0, Size: 512, Op: storage.Read}}},
	}}
	res, err := Replay(e, dev, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := simtime.Time(50*simtime.Millisecond + simtime.Microsecond)
	if res.End != want {
		t.Fatalf("completion at %v, want %v (issue at original timestamp)", res.End, want)
	}
}

func TestReplayBunchConcurrency(t *testing.T) {
	// All packages of one bunch must be issued at the same instant: with
	// a fixed-latency device they complete at the same time.
	e := simtime.NewEngine()
	dev := &fixedLatencyDevice{engine: e, latency: simtime.Millisecond}
	tr := &blktrace.Trace{Device: "x", Bunches: []blktrace.Bunch{
		{Time: 0, Packages: []blktrace.IOPackage{
			{Sector: 0, Size: 512, Op: storage.Read},
			{Sector: 100, Size: 512, Op: storage.Read},
			{Sector: 200, Size: 512, Op: storage.Write},
		}},
	}}
	res, err := Replay(e, dev, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.End != simtime.Time(simtime.Millisecond) {
		t.Fatalf("End = %v: bunch not issued concurrently", res.End)
	}
	if res.MaxResponse != simtime.Millisecond {
		t.Fatalf("MaxResponse = %v", res.MaxResponse)
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	e := simtime.NewEngine()
	dev := &fixedLatencyDevice{engine: e, latency: simtime.Millisecond}
	res, err := Replay(e, dev, &blktrace.Trace{Device: "empty"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 0 || res.IOPS != 0 || len(res.Intervals) != 0 {
		t.Fatalf("empty replay: %+v", res)
	}
}

func TestReplayRejectsInvalidTrace(t *testing.T) {
	e := simtime.NewEngine()
	dev := &fixedLatencyDevice{engine: e, latency: simtime.Millisecond}
	bad := &blktrace.Trace{Bunches: []blktrace.Bunch{{Time: 0}}} // empty bunch
	if _, err := Replay(e, dev, bad, Options{}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

// smallDevice is a fixedLatencyDevice that holds only capacity bytes.
type smallDevice struct {
	fixedLatencyDevice
	capacity int64
}

func (d *smallDevice) Capacity() int64 { return d.capacity }

// TestReplayRejectsPackageLargerThanDevice: no offset fits a package
// bigger than the whole device, so both replay modes reject one before
// issuing anything, naming the bunch, the package, the size and the
// capacity.  A package exactly the device's size still replays.
func TestReplayRejectsPackageLargerThanDevice(t *testing.T) {
	const capacity = 1 << 20
	modes := map[string]func(*simtime.Engine, storage.Device, *blktrace.Trace) (*Result, error){
		"open loop": func(e *simtime.Engine, dev storage.Device, tr *blktrace.Trace) (*Result, error) {
			return Replay(e, dev, tr, Options{})
		},
		"closed loop": func(e *simtime.Engine, dev storage.Device, tr *blktrace.Trace) (*Result, error) {
			return ReplayClosedLoop(e, dev, tr, 4, Options{})
		},
	}
	for name, replay := range modes {
		for _, size := range []int64{capacity + 1, 1 << 62} {
			e := simtime.NewEngine()
			dev := &Counter{Dev: &smallDevice{fixedLatencyDevice{e, simtime.Millisecond}, capacity}}
			tr := makeTrace(3)
			tr.Bunches[1].Packages[0].Size = size
			_, err := replay(e, dev, tr)
			want := fmt.Sprintf("bunch 1 package 0: size %d exceeds device capacity %d", size, capacity)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, size %d: err = %v, want it to contain %q", name, size, err, want)
			}
			if dev.Submitted != 0 {
				t.Errorf("%s, size %d: %d requests issued before the rejection", name, size, dev.Submitted)
			}
		}
		e := simtime.NewEngine()
		dev := &smallDevice{fixedLatencyDevice{e, simtime.Millisecond}, capacity}
		tr := makeTrace(3)
		tr.Bunches[1].Packages[0].Size = capacity
		if res, err := replay(e, dev, tr); err != nil || res.Completed != 3 {
			t.Errorf("%s: a package the size of the device: %v", name, err)
		}
	}
}

// farTrace is a one-IO trace whose bunch lies at at.
func farTrace(at simtime.Duration) *blktrace.Trace {
	return &blktrace.Trace{Device: "far", Bunches: []blktrace.Bunch{{
		Time:     at,
		Packages: []blktrace.IOPackage{{Sector: 8, Size: 4096, Op: storage.Read}},
	}}}
}

// TestReplayRejectsBunchPastHorizon: a bunch near the end of int64
// would wrap its completion time and panic the engine, so both replay
// modes reject a bunch past simtime.Horizon before issuing anything,
// naming the bunch and its time.  A bunch exactly at the horizon replays: on a
// bare drive, which meters nothing, it completes past the horizon
// without wrapping.
func TestReplayRejectsBunchPastHorizon(t *testing.T) {
	modes := map[string]func(*simtime.Engine, storage.Device, *blktrace.Trace) (*Result, error){
		"open loop": func(e *simtime.Engine, dev storage.Device, tr *blktrace.Trace) (*Result, error) {
			return Replay(e, dev, tr, Options{})
		},
		"closed loop": func(e *simtime.Engine, dev storage.Device, tr *blktrace.Trace) (*Result, error) {
			return ReplayClosedLoop(e, dev, tr, 4, Options{})
		},
	}
	for name, replay := range modes {
		e := simtime.NewEngine()
		dev := &Counter{Dev: &fixedLatencyDevice{e, simtime.Millisecond}}
		_, err := replay(e, dev, farTrace(9223372036854775000))
		const want = "replay: bunch 0 at 2562047h47m16.854775s lies past the simulation horizon"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want it to contain %q", name, err, want)
		}
		if dev.Submitted != 0 {
			t.Errorf("%s: %d requests issued before the rejection", name, dev.Submitted)
		}
	}
	e := simtime.NewEngine()
	hdd := disksim.NewHDD(e, disksim.Seagate7200())
	horizon := simtime.Duration(simtime.Horizon)
	res, err := Replay(e, hdd, farTrace(horizon), Options{SamplingCycle: horizon})
	if err != nil {
		t.Fatalf("a bunch at the horizon: %v", err)
	}
	if res.Completed != 1 || res.End <= simtime.Horizon {
		t.Errorf("a bunch at the horizon: %d completed, run ends at %v", res.Completed, res.End)
	}
	if err := hdd.Timeline().CheckMonotone(); err != nil {
		t.Error(err)
	}
}

func TestReplayIntervals(t *testing.T) {
	e := simtime.NewEngine()
	dev := &fixedLatencyDevice{engine: e, latency: simtime.Microsecond}
	// 1 IO per ms for 2.5 virtual seconds.
	tr := makeTraceSpaced(2500, simtime.Millisecond)
	res, err := Replay(e, dev, tr, Options{SamplingCycle: simtime.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) != 3 {
		t.Fatalf("%d intervals, want 3", len(res.Intervals))
	}
	var total int64
	for _, iv := range res.Intervals {
		total += iv.IOs
	}
	if total != 2500 {
		t.Fatalf("interval IOs sum to %d, want 2500", total)
	}
	// Steady rate: first two full intervals should see ~1000 IOPS.
	if math.Abs(res.Intervals[0].IOPS-1000) > 10 || math.Abs(res.Intervals[1].IOPS-1000) > 10 {
		t.Fatalf("interval IOPS = %v, %v; want ~1000", res.Intervals[0].IOPS, res.Intervals[1].IOPS)
	}
}

func makeTraceSpaced(n int, gap simtime.Duration) *blktrace.Trace {
	t := &blktrace.Trace{Device: "spaced"}
	for i := 0; i < n; i++ {
		t.Bunches = append(t.Bunches, blktrace.Bunch{
			Time:     simtime.Duration(i) * gap,
			Packages: []blktrace.IOPackage{{Sector: int64(i) * 8, Size: 4096, Op: storage.Read}},
		})
	}
	return t
}

// TestReplayHeapDepthIndependentOfTraceLength pins streamed arrivals:
// a replay keeps only its next bunch in the event heap, so the heap's
// high-water mark is set by the IOs in flight, not by the trace length.
// Queuing every bunch up front would put all 10,000 in the heap at once.
func TestReplayHeapDepthIndependentOfTraceLength(t *testing.T) {
	const bunches, maxDepth = 10_000, 64
	e := simtime.NewEngine()
	arr, err := raid.NewHDDArray(e, raid.DefaultParams(), 5, disksim.Seagate7200())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(e, arr, makeTraceSpaced(bunches, 20*simtime.Millisecond), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != bunches || res.Completed != bunches {
		t.Fatalf("issued=%d completed=%d, want %d", res.Issued, res.Completed, bunches)
	}
	if got := e.MaxHeapDepth(); got >= maxDepth {
		t.Fatalf("max heap depth = %d, want < %d for a %d-bunch trace", got, maxDepth, bunches)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after the replay drained", e.Pending())
	}
}

// doubleDevice breaks the device contract: it completes every request
// twice, in the same event.
type doubleDevice struct{ fixedLatencyDevice }

func (d *doubleDevice) Submit(req storage.Request, done func(simtime.Time)) {
	finish := d.engine.Now().Add(d.latency)
	d.engine.ScheduleEvent(finish, handlerFunc(func(*simtime.Engine, simtime.EventArg) {
		done(finish)
		done(finish)
	}), simtime.EventArg{})
}

// TestReplayPanicsOnDoubleCompletion: a recycled in-flight record that
// is completed twice must fail loudly, in both modes, rather than let
// the second completion count as a later IO's.
func TestReplayPanicsOnDoubleCompletion(t *testing.T) {
	for _, c := range []struct {
		name   string
		replay func(*simtime.Engine, storage.Device, *blktrace.Trace) (*Result, error)
	}{
		{"open-loop", func(e *simtime.Engine, d storage.Device, tr *blktrace.Trace) (*Result, error) {
			return Replay(e, d, tr, Options{})
		}},
		{"closed-loop", func(e *simtime.Engine, d storage.Device, tr *blktrace.Trace) (*Result, error) {
			return ReplayClosedLoop(e, d, tr, 2, Options{})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "idle in-flight record") {
					t.Fatalf("recovered %q, want the idle-record panic", msg)
				}
			}()
			e := simtime.NewEngine()
			dev := &doubleDevice{fixedLatencyDevice{engine: e, latency: simtime.Millisecond}}
			_, _ = c.replay(e, dev, makeTrace(5))
		})
	}
}

// TestLoadControlAccuracy is the in-package version of the paper's
// Fig. 8 validation: collect a fixed-size peak trace, replay it at
// every configured load proportion, and check the measured IOPS
// proportion tracks the configured one closely.
func TestLoadControlAccuracy(t *testing.T) {
	// Collect the peak trace on a pristine array.
	e1 := simtime.NewEngine()
	a1, err := raid.NewHDDArray(e1, raid.DefaultParams(), 6, disksim.Seagate7200())
	if err != nil {
		t.Fatal(err)
	}
	trace, err := synth.Collect(e1, a1, synth.CollectParams{
		Mode:            synth.Mode{RequestBytes: 4096, ReadRatio: 0, RandomRatio: 0.5},
		Duration:        4 * simtime.Second,
		QueueDepth:      8,
		WorkingSetBytes: 8 << 30,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}

	measure := func(p float64) float64 {
		e := simtime.NewEngine()
		a, err := raid.NewHDDArray(e, raid.DefaultParams(), 6, disksim.Seagate7200())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ReplayFiltered(e, a, trace, UniformFilter{Proportion: p}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.IOPS
	}
	full := measure(1.0)
	if full <= 0 {
		t.Fatal("no throughput at 100%")
	}
	for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		got := measure(p) / full
		if math.Abs(got-p) > 0.05*p+0.01 {
			t.Errorf("configured %v, measured proportion %.4f", p, got)
		}
	}
}

func TestReplayFilteredStampsName(t *testing.T) {
	e := simtime.NewEngine()
	dev := &fixedLatencyDevice{engine: e, latency: simtime.Microsecond}
	res, err := ReplayFiltered(e, dev, makeTrace(50), UniformFilter{Proportion: 0.2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Filter != "uniform-20%" {
		t.Fatalf("Filter = %q", res.Filter)
	}
	if res.Issued != 10 {
		t.Fatalf("Issued = %d, want 10", res.Issued)
	}
}

func BenchmarkReplay4KTrace(b *testing.B) {
	tr := makeTrace(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := simtime.NewEngine()
		a, err := raid.NewHDDArray(e, raid.DefaultParams(), 6, disksim.Seagate7200())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Replay(e, a, tr, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
