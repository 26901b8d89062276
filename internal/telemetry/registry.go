// Package telemetry is the sim-time-aware instrumentation layer: a
// lock-cheap registry of counters, gauges, watermarks and fixed-bucket
// histograms, a per-IO span tracer, and exporters (CSV time series,
// JSONL events, Chrome trace-event JSON) that turn one replay run into
// an analyzable artifact.
//
// The paper's evaluation host exists to watch a run — it samples the
// KS706 power analyzer once per second and records throughput and
// efficiency per experiment (Sections IV, V-B).  This package is that
// host's software equivalent for the simulated stack: producers in
// replay, raid, disksim, powersim and simtime record into a Set, a
// sampler snapshots the registry on a sim-time cadence (default 1 s,
// the meter cycle), and WriteDir exports everything.
//
// Disabled telemetry must cost nothing.  Every instrument method is
// nil-receiver safe, so a probe that was never constructed reduces the
// hot path to one pointer compare and zero allocations — guarded by
// TestDisabledTelemetryAllocFree in internal/replay.
//
// Concurrency: instruments are atomic.Int64-backed, so concurrent
// writers (parsweep workers with per-worker registries, or a single
// simulation thread) and concurrent readers (tracerd's expvar snapshot
// from an HTTP goroutine) are both safe.  Registration and the span
// tracer are confined to the owning simulation goroutine.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a registry column for sampling and merging.
type Kind uint8

const (
	// KindCounter is a monotonic event count; sampled as per-window
	// deltas and merged by summing.
	KindCounter Kind = iota
	// KindGauge is an instantaneous level; sampled as-is and merged by
	// summing (levels of disjoint workers add).
	KindGauge
	// KindWatermark is a running maximum; sampled as-is and merged by
	// taking the max.
	KindWatermark
	// KindProbeCounter is a monotonic count read from a callback at
	// window boundaries (e.g. engine events fired); not mergeable.
	KindProbeCounter
	// KindProbeGauge is an instantaneous level read from a callback
	// (e.g. a disk's queue depth); not mergeable.
	KindProbeGauge
)

// String names the kind for exports.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindWatermark:
		return "watermark"
	case KindProbeCounter:
		return "probe_counter"
	case KindProbeGauge:
		return "probe_gauge"
	}
	return "unknown"
}

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.  Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.  Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed level, such as in-flight depth.
type Gauge struct{ v atomic.Int64 }

// Add shifts the level by d and returns the new value (zero on nil).
func (g *Gauge) Add(d int64) int64 {
	if g == nil {
		return 0
	}
	return g.v.Add(d)
}

// Value reads the current level; zero on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Watermark tracks a running maximum, such as heap-depth high water.
type Watermark struct{ v atomic.Int64 }

// Update raises the mark to v if v is higher.  Safe on nil (no-op).
func (w *Watermark) Update(v int64) {
	if w == nil {
		return
	}
	for {
		cur := w.v.Load()
		if v <= cur || w.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the current mark; zero on a nil receiver.
func (w *Watermark) Value() int64 {
	if w == nil {
		return 0
	}
	return w.v.Load()
}

// Histogram is a fixed-bucket histogram: bounds are inclusive upper
// bucket edges in ascending order, with one implicit overflow bucket.
// Values are int64 so latency observations stay in integer nanoseconds.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Int64
}

// Observe records one value.  Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistSnapshot is a point-in-time copy of a histogram for export.
type HistSnapshot struct {
	// Bounds are the inclusive upper bucket edges.
	Bounds []int64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; the last is the overflow bucket.
	Counts []int64 `json:"counts"`
	// Count and Sum aggregate all observations.
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

// Snapshot copies the bucket counts; empty on a nil receiver.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates quantile q (0..1) as the upper bound of the bucket
// containing it; the overflow bucket reports the largest finite bound.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			if i >= len(s.Bounds) {
				break
			}
			return s.Bounds[i]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ExpBounds returns n exponential bucket bounds start, start*factor, …
// for latency-style distributions.
func ExpBounds(start int64, factor float64, n int) []int64 {
	b := make([]int64, n)
	v := float64(start)
	for i := 0; i < n; i++ {
		b[i] = int64(v)
		v *= factor
	}
	return b
}

// LatencyBounds is the default response-time bucketing: 10 µs to ~84 s
// in ×2 steps, covering SSD channel hits through overloaded HDD queues.
func LatencyBounds() []int64 { return ExpBounds(10_000, 2, 24) }

// DepthBounds is the default queue-depth bucketing: 1,2,4,…,1024.
func DepthBounds() []int64 { return ExpBounds(1, 2, 11) }

// column is one registered time-series metric.
type column struct {
	name    string
	kind    Kind
	counter *Counter
	gauge   *Gauge
	mark    *Watermark
	probe   func() float64
}

// value reads the column's current raw value.
func (c *column) value() float64 {
	switch c.kind {
	case KindCounter:
		return float64(c.counter.Value())
	case KindGauge:
		return float64(c.gauge.Value())
	case KindWatermark:
		return float64(c.mark.Value())
	case KindProbeCounter, KindProbeGauge:
		return c.probe()
	}
	return 0
}

// delta reports whether the column is sampled as a per-window delta
// (monotonic counts) rather than an instantaneous level.
func (c *column) delta() bool {
	return c.kind == KindCounter || c.kind == KindProbeCounter
}

// Registry holds named instruments in registration order.  Registration
// is idempotent: re-registering a name with the same kind returns the
// existing instrument (probes replace their callback), so a factory that
// provisions several systems into one registry accumulates rather than
// collides.
type Registry struct {
	mu    sync.Mutex
	cols  []*column
	hists []*Histogram
	hname []string
	index map[string]int // name -> cols index
	hidx  map[string]int // name -> hists index
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int), hidx: make(map[string]int)}
}

// lookup finds or creates the column for name, checking kind agreement.
func (r *Registry) lookup(name string, kind Kind) *column {
	if i, ok := r.index[name]; ok {
		c := r.cols[i]
		if c.kind != kind {
			panic(fmt.Sprintf("telemetry: %q registered as %v, requested as %v", name, c.kind, kind))
		}
		return c
	}
	c := &column{name: name, kind: kind}
	r.index[name] = len(r.cols)
	r.cols = append(r.cols, c)
	return c
}

// Counter registers (or finds) a counter.  Nil-safe: returns nil on a
// nil registry, and nil instruments are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.lookup(name, KindCounter)
	if c.counter == nil {
		c.counter = &Counter{}
	}
	return c.counter
}

// Gauge registers (or finds) a gauge.  Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.lookup(name, KindGauge)
	if c.gauge == nil {
		c.gauge = &Gauge{}
	}
	return c.gauge
}

// Watermark registers (or finds) a watermark.  Nil-safe.
func (r *Registry) Watermark(name string) *Watermark {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.lookup(name, KindWatermark)
	if c.mark == nil {
		c.mark = &Watermark{}
	}
	return c.mark
}

// ProbeCounter registers a monotonic count read from fn at window
// boundaries.  Re-registering replaces the callback (latest source
// wins, e.g. when a factory provisions a fresh system).  Nil-safe.
func (r *Registry) ProbeCounter(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, KindProbeCounter).probe = fn
}

// ProbeGauge registers an instantaneous level read from fn.  Nil-safe.
func (r *Registry) ProbeGauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, KindProbeGauge).probe = fn
}

// Histogram registers (or finds) a fixed-bucket histogram.  Histograms
// live outside the sampled time series; they export via Summary.
// Nil-safe.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.hidx[name]; ok {
		return r.hists[i]
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.hidx[name] = len(r.hists)
	r.hists = append(r.hists, h)
	r.hname = append(r.hname, name)
	return h
}

// ColumnInfo describes one registered time-series column.
type ColumnInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// Columns lists registered columns in registration order.
func (r *Registry) Columns() []ColumnInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ColumnInfo, len(r.cols))
	for i, c := range r.cols {
		out[i] = ColumnInfo{Name: c.name, Kind: c.kind.String()}
	}
	return out
}

// values appends the current raw value of every column to dst and
// returns it; used by the sampler at window boundaries.
func (r *Registry) values(dst []float64) []float64 {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.cols {
		dst = append(dst, c.value())
	}
	return dst
}

// deltas reports, per column, whether it samples as a delta.
func (r *Registry) deltas() []bool {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]bool, len(r.cols))
	for i, c := range r.cols {
		out[i] = c.delta()
	}
	return out
}

// Merge folds other into r: counters and gauges add, watermarks take
// the max, histograms add bucket-wise (bounds must agree), and probe
// columns are skipped (callbacks are not transferable across
// registries).  Columns missing from r are created in other's order,
// so merging per-worker registries that registered the same metrics
// yields an identical layout regardless of worker count.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil || r == other {
		return
	}
	other.mu.Lock()
	cols := append([]*column(nil), other.cols...)
	hists := append([]*Histogram(nil), other.hists...)
	hname := append([]string(nil), other.hname...)
	other.mu.Unlock()
	for _, c := range cols {
		switch c.kind {
		case KindCounter:
			r.Counter(c.name).Add(c.counter.Value())
		case KindGauge:
			r.Gauge(c.name).Add(c.gauge.Value())
		case KindWatermark:
			r.Watermark(c.name).Update(c.mark.Value())
		}
	}
	for i, h := range hists {
		dst := r.Histogram(hname[i], h.bounds)
		if len(dst.counts) != len(h.counts) {
			panic(fmt.Sprintf("telemetry: merge of %q with mismatched buckets", hname[i]))
		}
		for j := range h.counts {
			dst.counts[j].Add(h.counts[j].Load())
		}
		dst.count.Add(h.count.Load())
		dst.sum.Add(h.sum.Load())
	}
}

// HistogramNames lists registered histograms in registration order.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.hname...)
}

// HistogramSnapshot returns the named histogram's snapshot, or an empty
// snapshot when absent.
func (r *Registry) HistogramSnapshot(name string) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	r.mu.Lock()
	var h *Histogram
	if i, ok := r.hidx[name]; ok {
		h = r.hists[i]
	}
	r.mu.Unlock()
	return h.Snapshot()
}

// Snapshot renders the registry as a plain map for expvar publication:
// column name -> current value, plus histogram name -> {count, sum}.
// Safe to call from a goroutine other than the simulation's.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.cols)+len(r.hists))
	for _, c := range r.cols {
		// Probe callbacks read device state owned by the sim goroutine;
		// snapshot only the atomic instruments from foreign goroutines.
		switch c.kind {
		case KindCounter:
			out[c.name] = c.counter.Value()
		case KindGauge:
			out[c.name] = c.gauge.Value()
		case KindWatermark:
			out[c.name] = c.mark.Value()
		}
	}
	for i, h := range r.hists {
		out[r.hname[i]] = map[string]int64{"count": h.count.Load(), "sum": h.sum.Load()}
	}
	return out
}
