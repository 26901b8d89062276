package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/simtime"
	"repro/internal/slo"
)

// TestTailStatsNearestRank pins the nearest-rank percentile rule to
// hand-computed values: for n samples, pN is element ceil(N/100*n) in
// the sorted order (1-based), implemented as int(q*n+0.5) clamped.
func TestTailStatsNearestRank(t *testing.T) {
	// 10 samples 1..10 ms.  p50 -> rank int(0.5*10+0.5)=5 -> 5ms;
	// p99 -> rank int(9.9+0.5)=10 -> 10ms; p999 -> rank 10 -> 10ms;
	// mean = 5.5ms truncated to 5.5ms exactly (55/10).
	var rs []simtime.Duration
	for i := 10; i >= 1; i-- { // unsorted on purpose
		rs = append(rs, simtime.Duration(i)*simtime.Millisecond)
	}
	got := popTails(rs)
	if got.Mean != 5500*simtime.Microsecond {
		t.Errorf("mean %v, want 5.5ms", got.Mean)
	}
	if got.Max != 10*simtime.Millisecond {
		t.Errorf("max %v, want 10ms", got.Max)
	}
	if got.P50 != 5*simtime.Millisecond {
		t.Errorf("p50 %v, want 5ms", got.P50)
	}
	if got.P99 != 10*simtime.Millisecond {
		t.Errorf("p99 %v, want 10ms", got.P99)
	}
	if got.P999 != 10*simtime.Millisecond {
		t.Errorf("p999 %v, want 10ms", got.P999)
	}

	// 1000 samples 1..1000 us: p50 -> rank 500, p99 -> rank 990,
	// p999 -> rank 999 (int(0.999*1000+0.5) = 999).
	rs = rs[:0]
	for i := 1; i <= 1000; i++ {
		rs = append(rs, simtime.Duration(i)*simtime.Microsecond)
	}
	got = popTails(rs)
	if got.P50 != 500*simtime.Microsecond {
		t.Errorf("p50 %v, want 500us", got.P50)
	}
	if got.P99 != 990*simtime.Microsecond {
		t.Errorf("p99 %v, want 990us", got.P99)
	}
	if got.P999 != 999*simtime.Microsecond {
		t.Errorf("p999 %v, want 999us", got.P999)
	}

	// Single sample: every tail is that sample.
	got = popTails([]simtime.Duration{7 * simtime.Millisecond})
	if got.P50 != 7*simtime.Millisecond || got.P999 != 7*simtime.Millisecond {
		t.Errorf("single-sample tails %+v", got)
	}
}

func TestParseFaults(t *testing.T) {
	fs, err := ParseFaults("12@30s,3@500ms:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("parsed %d faults, want 2", len(fs))
	}
	if fs[0].Array != 12 || fs[0].At != 30*simtime.Second || fs[0].Disk != 0 {
		t.Fatalf("fault 0 = %+v", fs[0])
	}
	if fs[1].Array != 3 || fs[1].At != 500*simtime.Millisecond || fs[1].Disk != 1 {
		t.Fatalf("fault 1 = %+v", fs[1])
	}
	for _, bad := range []string{"12", "x@30s", "1@nope", "1@1s:x"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted", bad)
		}
	}
}

func TestFaultsFromMTBFDeterministic(t *testing.T) {
	a := FaultsFromMTBF(64, 6, 10*simtime.Second, 2*simtime.Second, 42)
	b := FaultsFromMTBF(64, 6, 10*simtime.Second, 2*simtime.Second, 42)
	c := FaultsFromMTBF(64, 6, 10*simtime.Second, 2*simtime.Second, 43)
	if len(a) == 0 {
		t.Fatal("MTBF scenario drew no faults; loosen the horizon")
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	cj, _ := json.Marshal(c)
	if !bytes.Equal(aj, bj) {
		t.Fatal("same seed drew different scenarios")
	}
	if bytes.Equal(aj, cj) {
		t.Fatal("different seeds drew identical scenarios")
	}
	if err := validateFaults(a, 64, 6, 2*simtime.Second); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatal("scenario not sorted by time")
		}
	}
}

func TestValidateFaults(t *testing.T) {
	const span = 2 * simtime.Second
	cases := [][]Fault{
		{{Array: 9}},                      // out of range
		{{Array: -1}},                     // negative
		{{Array: 0, Disk: -1}},            // bad disk
		{{Array: 0, At: -simtime.Second}}, // negative time
		{{Array: 1}, {Array: 1, Disk: 2}}, // duplicate array
		{{Array: 0, Disk: 6}},             // past the last disk
		{{Array: 2, Disk: 99}},            // no such disk
		{{Array: 0, At: span}},            // at the stream's end
		{{Array: 0, At: 10 * span}},       // after it
		{{Array: 0, At: 300000 * simtime.Hour}},
	}
	for i, fs := range cases {
		if err := validateFaults(fs, 4, 6, span); err == nil {
			t.Errorf("case %d accepted: %+v", i, fs)
		}
	}
	valid := []Fault{{Array: 0}, {Array: 3, At: simtime.Second, Disk: 5}, {Array: 1, At: span - 1}}
	if err := validateFaults(valid, 4, 6, span); err != nil {
		t.Errorf("valid faults rejected: %v", err)
	}
	// A stream that declares no end bounds no fault time, and one that
	// ends where it starts admits none.
	if err := validateFaults([]Fault{{Array: 0, At: 300000 * simtime.Hour}}, 4, 6, -1); err != nil {
		t.Errorf("fault on an unbounded stream rejected: %v", err)
	}
	if err := validateFaults([]Fault{{Array: 0}}, 4, 6, 0); err == nil {
		t.Error("fault on a zero-length stream accepted")
	}
}

// TestRunRejectsFaultsBeforeScheduling: a fault past the stream or on a
// missing disk fails the run with a labelled error, and leaves the
// fleet untouched.
func TestRunRejectsFaultsBeforeScheduling(t *testing.T) {
	f, err := New(experiments.DefaultConfig(), experiments.HDDArray, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultSynth()
	p.Duration = 200 * simtime.Millisecond
	for _, c := range []struct {
		fault Fault
		want  string
	}{
		{Fault{Array: 0, At: 10 * simtime.Second}, "fleet: fault #0 at 10s is not before the stream's end at 200ms"},
		{Fault{Array: 0, At: 300000 * simtime.Hour}, "fleet: fault #0 at 300000h0m0s is not before the stream's end at 200ms"},
		{Fault{Array: 0, At: 100 * simtime.Millisecond, Disk: 99}, "fleet: fault #0 targets disk 99 of 6"},
	} {
		_, err := f.Run(NewSynthStream(p), Options{Faults: []Fault{c.fault}})
		if err == nil || err.Error() != c.want {
			t.Errorf("fault %+v: err %v, want %q", c.fault, err, c.want)
		}
	}
	for i, e := range f.Engines() {
		if e.Pending() != 0 || e.Now() != 0 {
			t.Errorf("member %d: %d pending at %v after rejected runs", i, e.Pending(), e.Now())
		}
	}
}

// stormSpec is the rebuild-storm SLO fixture shared with the
// conformance layer: latency and availability objectives over tight
// windows so a sub-second run can cross them.
func stormSpec() slo.Spec {
	return slo.Spec{
		Version:       slo.SpecVersion,
		Name:          "rebuild-storm",
		FastWindow:    100 * simtime.Millisecond,
		SlowWindow:    400 * simtime.Millisecond,
		EvalInterval:  20 * simtime.Millisecond,
		BurnThreshold: 2,
		Classes: []slo.ClassSpec{
			{
				Name: "all",
				Objectives: []slo.Objective{
					{Name: "latency-p95", Kind: slo.KindLatency, Target: 0.95, ThresholdNs: 40 * simtime.Millisecond},
				},
			},
		},
	}
}

// runStorm runs the canonical rebuild-storm scenario at the given
// worker count and returns the result, the alert stream bytes and the
// snapshot JSON.
func runStorm(t *testing.T, workers int) (*Result, []byte, []byte) {
	t.Helper()
	cfg := experiments.DefaultConfig()
	cfg.Seed = 7
	const arrays = 4
	f, err := New(cfg, experiments.HDDArray, arrays, workers)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := slo.NewEngine(stormSpec())
	if err != nil {
		t.Fatal(err)
	}
	stream := NewSynthStream(SynthParams{
		Duration:   1200 * simtime.Millisecond,
		MeanIOPS:   float64(60 * arrays),
		Clients:    256,
		Size:       32 << 10,
		ReadRatio:  0.6,
		WorkingSet: 1 << 30,
		Seed:       99,
	})
	res, err := f.Run(stream, Options{
		Policy: NewRoundRobin(),
		SLO:    eng,
		Faults: []Fault{{Array: 1, At: 300 * simtime.Millisecond, RebuildBytes: 32 << 20, ChunkBytes: 8 << 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var alerts bytes.Buffer
	if err := eng.WriteAlerts(&alerts); err != nil {
		t.Fatal(err)
	}
	snap, err := json.MarshalIndent(eng.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return res, alerts.Bytes(), snap
}

func TestRebuildStormFiresAndResolves(t *testing.T) {
	res, alertBytes, _ := runStorm(t, 1)

	if len(res.Faults) != 1 {
		t.Fatalf("faults %d, want 1", len(res.Faults))
	}
	ft := res.Faults[0]
	if ft.Error != "" {
		t.Fatalf("fault failed: %s", ft.Error)
	}
	if ft.FailedAt != simtime.Time(300*simtime.Millisecond) {
		t.Fatalf("failed at %v, want 300ms", ft.FailedAt)
	}
	if ft.RecoveredAt <= ft.FailedAt {
		t.Fatalf("rebuild never recovered (failed %v, recovered %v)", ft.FailedAt, ft.RecoveredAt)
	}

	alerts, err := slo.ReadAlerts(alertBytes)
	if err != nil {
		t.Fatal(err)
	}
	var fired, resolved bool
	for _, a := range alerts {
		if a.Event == slo.EventFire && a.At > ft.FailedAt {
			fired = true
		}
		if fired && a.Event == slo.EventResolve {
			resolved = true
		}
	}
	if !fired {
		t.Fatalf("no burn-rate alert fired during the rebuild storm; alerts: %s", alertBytes)
	}
	if !resolved {
		t.Fatalf("storm alert never resolved after recovery; alerts: %s", alertBytes)
	}

	if len(res.PerClass) == 0 {
		t.Fatal("no per-class rows with SLO attached")
	}
	if res.PerClass[0].Class != "all" || res.PerClass[0].Completed != res.Completed {
		t.Fatalf("per-class row %+v does not cover all %d completions", res.PerClass[0], res.Completed)
	}
	if res.PerClass[0].P99Response < res.PerClass[0].P50Response {
		t.Fatal("per-class percentiles not monotone")
	}

	arr := res.PerArray[1]
	if arr.Completed == 0 {
		t.Fatal("degraded array served nothing")
	}
}

func TestSLOWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker sweep is not -short material")
	}
	_, alerts1, snap1 := runStorm(t, 1)
	for _, w := range []int{2, 4} {
		_, alertsW, snapW := runStorm(t, w)
		if !bytes.Equal(alerts1, alertsW) {
			t.Fatalf("alerts.jsonl differs between workers 1 and %d:\n--- 1:\n%s\n--- %d:\n%s", w, alerts1, w, alertsW)
		}
		if !bytes.Equal(snap1, snapW) {
			t.Fatalf("slo snapshot differs between workers 1 and %d", w)
		}
	}
	if len(alerts1) == 0 {
		t.Fatal("invariance fixture produced no alerts")
	}
}

// TestSLOReadsDuringRun: Snapshot and WriteAlerts called from another
// goroutine while Run feeds the engine see published state only — each
// snapshot at or past the one before — and change nothing: the final
// snapshot and alerts equal those of a run nobody read.  Run it under
// -race.
func TestSLOReadsDuringRun(t *testing.T) {
	run := func(read bool) (snapshot, alerts []byte, reads int) {
		f, err := New(experiments.DefaultConfig(), experiments.HDDArray, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := slo.NewEngine(slo.ExampleSpec())
		if err != nil {
			t.Fatal(err)
		}
		stream := NewSynthStream(SynthParams{Duration: 2 * simtime.Second, MeanIOPS: 2400, Clients: 64, Size: 16 << 10, ReadRatio: 0.6, WorkingSet: 1 << 30, Seed: 3})
		stop, done := make(chan struct{}), make(chan error)
		if read {
			go func() {
				var last slo.Status
				for {
					select {
					case <-stop:
						done <- nil
						return
					default:
					}
					st := eng.Snapshot()
					if st.EvaluatedTick < last.EvaluatedTick || len(st.Classes) > 0 && len(last.Classes) > 0 && st.Classes[0].Admitted < last.Classes[0].Admitted {
						done <- fmt.Errorf("snapshot went back: evaluated %d after %d", st.EvaluatedTick, last.EvaluatedTick)
						return
					}
					if err := eng.WriteAlerts(io.Discard); err != nil {
						done <- err
						return
					}
					last = st
					reads++
					runtime.Gosched()
				}
			}()
		}
		_, err = f.Run(stream, Options{SLO: eng, Faults: []Fault{{Array: 2, At: 500 * simtime.Millisecond, RebuildBytes: 16 << 20, ChunkBytes: 4 << 20}}})
		if read {
			close(stop)
			if rerr := <-done; rerr != nil {
				t.Fatal(rerr)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if snapshot, err = json.Marshal(eng.Snapshot()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.WriteAlerts(&buf); err != nil {
			t.Fatal(err)
		}
		return snapshot, buf.Bytes(), reads
	}
	snap, alerts, reads := run(true)
	quietSnap, quietAlerts, _ := run(false)
	if !bytes.Equal(snap, quietSnap) || !bytes.Equal(alerts, quietAlerts) {
		t.Fatalf("concurrent reads changed the run:\nread  %s\nquiet %s", snap, quietSnap)
	}
	if reads == 0 {
		t.Fatal("the reader never ran during the run")
	}
}
