package telemetry

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/parsweep"
)

func TestInstrumentBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	if got := g.Add(3); got != 3 {
		t.Fatalf("gauge add = %d, want 3", got)
	}
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	w := r.Watermark("w")
	w.Update(7)
	w.Update(3)
	if got := w.Value(); got != 7 {
		t.Fatalf("watermark = %d, want 7", got)
	}
	// Idempotent registration returns the same instrument.
	if r.Counter("c") != c {
		t.Fatal("re-registration returned a different counter")
	}
	cols := r.Columns()
	want := []ColumnInfo{{"c", "counter"}, {"g", "gauge"}, {"w", "watermark"}}
	if !reflect.DeepEqual(cols, want) {
		t.Fatalf("columns = %v, want %v", cols, want)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x")
}

func TestNilInstrumentsAreAllocFreeNoOps(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		w *Watermark
		h *Histogram
		p *ReplayProbe
		d *DiskProbe
		a *RAIDProbe
		s *Set
		r *Registry
		x *Tracer
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		_ = c.Value()
		_ = g.Add(1)
		w.Update(9)
		h.Observe(123)
		p.OnIssue(0, 0, 0)
		p.OnComplete(0, 0, 0, 10, 4096)
		p.OnFilter(1, 2)
		d.OnService(true, 0, 1, 2, 3)
		d.OnIdle(5)
		a.OnStripeWrite(true, false)
		a.OnReconstructRead()
		a.OnParity(true)
		a.OnDiskOp(0, false, 0, 1, 512)
		x.Emit(Span{})
		_ = s.Registry()
		_ = s.Tracer()
		_ = r.Counter
	})
	if allocs != 0 {
		t.Fatalf("nil instrument path allocates %.1f per run, want 0", allocs)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 99, 1000, 5000} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	wantCounts := []int64{2, 2, 1, 1} // <=10, <=100, <=1000, overflow
	if !reflect.DeepEqual(snap.Counts, wantCounts) {
		t.Fatalf("counts = %v, want %v", snap.Counts, wantCounts)
	}
	if snap.Count != 6 || snap.Sum != 5+10+11+99+1000+5000 {
		t.Fatalf("count/sum = %d/%d", snap.Count, snap.Sum)
	}
	if q := snap.Quantile(0.5); q != 100 {
		t.Fatalf("p50 = %d, want 100", q)
	}
	if q := snap.Quantile(0.99); q != 1000 {
		t.Fatalf("p99 = %d, want 1000 (overflow clamps to largest bound)", q)
	}
}

func TestExpBounds(t *testing.T) {
	b := ExpBounds(1, 2, 4)
	if !reflect.DeepEqual(b, []int64{1, 2, 4, 8}) {
		t.Fatalf("bounds = %v", b)
	}
	if n := len(LatencyBounds()); n != 24 {
		t.Fatalf("latency bounds = %d", n)
	}
}

// registryFingerprint captures everything merge determinism must
// preserve: column layout and values, histogram layout and buckets.
func registryFingerprint(r *Registry) string {
	out := fmt.Sprintf("%v\n", r.Columns())
	out += fmt.Sprintf("%v\n", r.values(nil))
	for _, name := range r.HistogramNames() {
		out += fmt.Sprintf("%s=%+v\n", name, r.HistogramSnapshot(name))
	}
	return out
}

// TestMergeDeterministicUnderParsweep fans simulated cells across the
// parsweep executor with per-worker registries and checks the merged
// result is identical at any worker count — the concurrency contract
// the experiment sweeps rely on.
func TestMergeDeterministicUnderParsweep(t *testing.T) {
	const cells = 24
	runAt := func(workers int) string {
		regs, err := parsweep.Map(context.Background(),
			parsweep.Options{Workers: workers}, cells,
			func(i int) (*Registry, error) {
				r := NewRegistry()
				// Same metric layout in every cell, per-cell values.
				r.Counter("ios").Add(int64(i + 1))
				r.Gauge("depth").Add(int64(i % 4))
				r.Watermark("peak").Update(int64(i * 3))
				h := r.Histogram("lat", []int64{10, 100, 1000})
				for v := int64(0); v <= int64(i); v++ {
					h.Observe(v * 37 % 2000)
				}
				return r, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		merged := NewRegistry()
		for _, r := range regs {
			merged.Merge(r)
		}
		return registryFingerprint(merged)
	}
	want := runAt(1)
	for _, workers := range []int{2, 4, 8} {
		if got := runAt(workers); got != want {
			t.Fatalf("workers=%d merged registry diverges:\n got %s\nwant %s", workers, got, want)
		}
	}
}

func TestMergeSkipsProbesAndHandlesMissingColumns(t *testing.T) {
	a := NewRegistry()
	a.Counter("shared").Add(1)
	b := NewRegistry()
	b.Counter("shared").Add(2)
	b.Counter("only-b").Add(5)
	b.ProbeGauge("probe", func() float64 { return 42 })
	a.Merge(b)
	if got := a.Counter("shared").Value(); got != 3 {
		t.Fatalf("shared = %d, want 3", got)
	}
	if got := a.Counter("only-b").Value(); got != 5 {
		t.Fatalf("only-b = %d, want 5", got)
	}
	for _, c := range a.Columns() {
		if c.Name == "probe" {
			t.Fatal("probe column transferred by merge")
		}
	}
}

func TestSnapshotOmitsProbes(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(9)
	r.ProbeGauge("p", func() float64 { return 1 })
	r.Histogram("h", []int64{1}).Observe(1)
	snap := r.Snapshot()
	if snap["c"] != int64(9) {
		t.Fatalf("snapshot c = %v", snap["c"])
	}
	if _, ok := snap["p"]; ok {
		t.Fatal("snapshot must not call probes from foreign goroutines")
	}
	if _, ok := snap["h"]; !ok {
		t.Fatal("snapshot missing histogram digest")
	}
}
