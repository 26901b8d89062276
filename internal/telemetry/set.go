package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/powersim"
	"repro/internal/simtime"
)

// DefaultCadence is the sampling interval: 1 s of sim time, matching
// the paper's KS706 power-meter cycle.
const DefaultCadence = simtime.Second

// Options configure a telemetry Set.
type Options struct {
	// Cadence is the time-series sampling interval (default 1 s).
	Cadence simtime.Duration
}

// Set bundles one run's instrumentation: the registry, the span
// tracer, the windowed sampler and any power channels.  A nil *Set is
// fully usable — every accessor returns nil instruments whose methods
// are no-ops — so call sites wire telemetry unconditionally.
type Set struct {
	cadence simtime.Duration
	reg     *Registry
	tr      *Tracer
	smp     *sampler
	power   []*PowerChannel

	// mergeMu serializes Merge calls on this set, so concurrent runs
	// can each record into a private Set and fold in as they finish.
	mergeMu   sync.Mutex
	windows   []Window
	artifacts []artifact
}

// artifact is a named deferred payload WriteDir exports alongside the
// standard files.
type artifact struct {
	name  string
	write func(io.Writer) error
}

// New returns an empty Set.
func New(opts Options) *Set {
	if opts.Cadence <= 0 {
		opts.Cadence = DefaultCadence
	}
	return &Set{
		cadence: opts.Cadence,
		reg:     NewRegistry(),
		tr:      NewTracer(DefaultMaxSpans),
	}
}

// Registry returns the metric registry; nil on a nil Set.
func (s *Set) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Tracer returns the span tracer; nil on a nil Set.
func (s *Set) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// Cadence reports the sampling interval.
func (s *Set) Cadence() simtime.Duration {
	if s == nil {
		return DefaultCadence
	}
	return s.cadence
}

// Window is one sampled row of the time series.  Values align with
// Registry.Columns() at sampling time; counter kinds hold per-window
// deltas, level kinds hold the instantaneous value at End.
type Window struct {
	Start, End simtime.Time
	Values     []float64
}

// sampler snapshots the registry every cadence of sim time, Ticker
// style: one pending event at a time, re-armed from OnEvent until the
// horizon.  Closed windows land on the owning Set, where Merge can
// also append windows from other sets.
type sampler struct {
	set     *Set
	reg     *Registry
	cadence simtime.Duration
	until   simtime.Time
	prev    []float64
	prevT   simtime.Time
}

// StartSampling schedules the windowed sampler on e until the horizon.
// Wire all producers before calling it: columns registered later join
// the series mid-run (earlier windows pad with zeros on export).
// No-op on a nil Set.
func (s *Set) StartSampling(e *simtime.Engine, until simtime.Time) {
	if s == nil || s.smp != nil {
		return
	}
	s.smp = &sampler{
		set:     s,
		reg:     s.reg,
		cadence: s.cadence,
		until:   until,
		prev:    s.reg.values(nil),
		prevT:   e.Now(),
	}
	s.smp.arm(e)
}

// arm schedules the next window boundary, clamped to the horizon.
func (p *sampler) arm(e *simtime.Engine) {
	next := p.prevT.Add(p.cadence)
	if next > p.until {
		next = p.until
	}
	if next <= p.prevT {
		return
	}
	e.ScheduleEvent(next, p, simtime.EventArg{})
}

// OnEvent implements simtime.Handler: close the window ending now and
// re-arm until the horizon.
func (p *sampler) OnEvent(e *simtime.Engine, _ simtime.EventArg) {
	p.flush(e.Now())
	p.arm(e)
}

// flush closes the window [prevT, now), computing counter deltas
// against the previous snapshot.
func (p *sampler) flush(now simtime.Time) {
	if now <= p.prevT {
		return
	}
	raw := p.reg.values(nil)
	deltas := p.reg.deltas()
	vals := make([]float64, len(raw))
	for i := range raw {
		if deltas[i] {
			var prev float64
			if i < len(p.prev) {
				prev = p.prev[i]
			}
			vals[i] = raw[i] - prev
		} else {
			vals[i] = raw[i]
		}
	}
	p.set.windows = append(p.set.windows, Window{Start: p.prevT, End: now, Values: vals})
	p.prev = raw
	p.prevT = now
}

// Windows returns the sampled rows so far: windows this set's own
// sampler closed, followed by any windows appended by Merge.
func (s *Set) Windows() []Window {
	if s == nil {
		return nil
	}
	return s.windows
}

// Merge folds another set's recorded state into s: registry columns via
// Registry.Merge (counters and gauges add, watermarks take the max,
// histograms add bucket-wise), spans appended in other's emission order
// (overflow beyond s's span cap counts as dropped), and sampled windows
// appended after s's own.  Power channels are not transferred — they
// are bound to other's engine.
//
// Concurrent Merge calls into the same destination are serialized
// internally, so parallel runs can each record into a private Set and
// fold in as they finish; quiesce those runs before reading spans,
// windows, or WriteDir on s.  No-op when either set is nil or both are
// the same set.
func (s *Set) Merge(other *Set) {
	if s == nil || other == nil || s == other {
		return
	}
	s.reg.Merge(other.reg)
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	s.tr.absorb(other.tr)
	s.windows = append(s.windows, other.Windows()...)
	s.artifacts = append(s.artifacts, other.artifacts...)
}

// AddArtifact registers a named payload to be written alongside the
// standard exports when WriteDir runs, so run-specific files (e.g. the
// optimize decision ledger) ride the same artifact directory CI
// uploads.  Only the base of name is used.  No-op on a nil Set.
func (s *Set) AddArtifact(name string, write func(io.Writer) error) {
	if s == nil || write == nil {
		return
	}
	s.artifacts = append(s.artifacts, artifact{name: name, write: write})
}

// PowerChannel is one metered power rail sampled online through
// powersim.Ticker, so its stream is bit-identical to a post-hoc
// Meter.Measure over the same span.
type PowerChannel struct {
	// Name labels the rail ("wall", "disk3", …).
	Name string
	// Meter is the sampling configuration the channel runs with.
	Meter  *powersim.Meter
	ticker *powersim.Ticker
	start  simtime.Time
	until  simtime.Time
}

// Samples returns the cycle samples taken so far.
func (c *PowerChannel) Samples() []powersim.Sample { return c.ticker.Samples() }

// Span reports the channel's sampling window [start, until).
func (c *PowerChannel) Span() (start, until simtime.Time) { return c.start, c.until }

// AddPowerChannel attaches an online meter for one power rail, sampled
// until the horizon.  No-op on a nil Set.
func (s *Set) AddPowerChannel(e *simtime.Engine, name string, m *powersim.Meter, until simtime.Time) *PowerChannel {
	if s == nil {
		return nil
	}
	c := &PowerChannel{Name: name, Meter: m, ticker: m.Tick(e, until), start: e.Now(), until: until}
	s.power = append(s.power, c)
	return c
}

// PowerChannels lists attached power rails.
func (s *Set) PowerChannels() []*PowerChannel {
	if s == nil {
		return nil
	}
	return s.power
}

// Export file names inside a telemetry directory.
const (
	SummaryFile = "summary.json"
	SeriesFile  = "series.csv"
	EventsFile  = "events.jsonl"
	ChromeFile  = "trace.json"
)

// PowerFile names the CSV for one power channel.
func PowerFile(channel string) string { return "power_" + channel + ".csv" }

// Summary is the machine-readable digest written to summary.json; the
// `tracer report` renderer consumes it.
type Summary struct {
	CadenceNs int64                `json:"cadence_ns"`
	Windows   int                  `json:"windows"`
	Columns   []ColumnTotal        `json:"columns"`
	Histogram []HistDigest         `json:"histograms,omitempty"`
	Spans     int                  `json:"spans"`
	Dropped   int64                `json:"spans_dropped"`
	Power     []PowerChannelDigest `json:"power,omitempty"`
}

// ColumnTotal is one column's end-of-run value.
type ColumnTotal struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Total float64 `json:"total"`
}

// HistDigest is one histogram's end-of-run digest.
type HistDigest struct {
	Name     string       `json:"name"`
	Count    int64        `json:"count"`
	Mean     float64      `json:"mean"`
	P50      int64        `json:"p50"`
	P95      int64        `json:"p95"`
	P99      int64        `json:"p99"`
	Snapshot HistSnapshot `json:"snapshot"`
}

// PowerChannelDigest is one power rail's end-of-run digest.
type PowerChannelDigest struct {
	Name      string  `json:"name"`
	Samples   int     `json:"samples"`
	EnergyJ   float64 `json:"energy_j"`
	MeanWatts float64 `json:"mean_watts"`
	StartNs   int64   `json:"start_ns"`
	UntilNs   int64   `json:"until_ns"`
}

// buildSummary digests the set's current state.
func (s *Set) buildSummary() Summary {
	sum := Summary{CadenceNs: int64(s.Cadence()), Windows: len(s.Windows()), Spans: len(s.tr.Spans()), Dropped: s.tr.Dropped()}
	cols := s.reg.Columns()
	raw := s.reg.values(nil)
	for i, c := range cols {
		sum.Columns = append(sum.Columns, ColumnTotal{Name: c.Name, Kind: c.Kind, Total: raw[i]})
	}
	for _, name := range s.reg.HistogramNames() {
		snap := s.reg.HistogramSnapshot(name)
		d := HistDigest{Name: name, Count: snap.Count, Snapshot: snap,
			P50: snap.Quantile(0.50), P95: snap.Quantile(0.95), P99: snap.Quantile(0.99)}
		if snap.Count > 0 {
			d.Mean = float64(snap.Sum) / float64(snap.Count)
		}
		sum.Histogram = append(sum.Histogram, d)
	}
	for _, c := range s.power {
		samples := c.Samples()
		sum.Power = append(sum.Power, PowerChannelDigest{
			Name: c.Name, Samples: len(samples),
			EnergyJ: powersim.EnergyJ(samples), MeanWatts: powersim.MeanWatts(samples),
			StartNs: int64(c.start), UntilNs: int64(c.until),
		})
	}
	return sum
}

// fmtFloat renders a float at full round-trip precision for CSV.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeSeriesCSV writes the windowed time series: start_s,end_s,cols….
// Windows sampled before a late-registered column pad with zeros so
// every row has the full final width.
func (s *Set) writeSeriesCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	cols := s.reg.Columns()
	fmt.Fprint(w, "start_s,end_s")
	for _, c := range cols {
		fmt.Fprintf(w, ",%s", c.Name)
	}
	fmt.Fprintln(w)
	for _, win := range s.Windows() {
		fmt.Fprintf(w, "%s,%s", fmtFloat(win.Start.Seconds()), fmtFloat(win.End.Seconds()))
		for i := range cols {
			var v float64
			if i < len(win.Values) {
				v = win.Values[i]
			}
			fmt.Fprintf(w, ",%s", fmtFloat(v))
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// writePowerCSV writes one channel's cycle samples.
func writePowerCSV(path string, samples []powersim.Sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "start_s,end_s,watts,volts,amps")
	for _, sm := range samples {
		fmt.Fprintf(w, "%s,%s,%s,%s,%s\n",
			fmtFloat(sm.Start.Seconds()), fmtFloat(sm.End.Seconds()),
			fmtFloat(sm.Watts), fmtFloat(sm.Volts), fmtFloat(sm.Amps))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// Flush closes the current partial sampling window (if sampling is
// active and time has advanced past the last boundary), so a run cut
// short still exports its tail.
func (s *Set) Flush(now simtime.Time) {
	if s == nil || s.smp == nil {
		return
	}
	if now > s.smp.until {
		now = s.smp.until
	}
	s.smp.flush(now)
}

// WriteDir exports the full telemetry artifact set into dir, creating
// it if needed: summary.json, series.csv, events.jsonl, trace.json and
// one power_<channel>.csv per rail.  No-op on a nil Set.
func (s *Set) WriteDir(dir string) error {
	if s == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := s.writeSeriesCSV(filepath.Join(dir, SeriesFile)); err != nil {
		return fmt.Errorf("telemetry: series: %w", err)
	}
	ev, err := os.Create(filepath.Join(dir, EventsFile))
	if err != nil {
		return err
	}
	if err := s.tr.WriteJSONL(ev); err != nil {
		ev.Close()
		return fmt.Errorf("telemetry: events: %w", err)
	}
	if err := ev.Close(); err != nil {
		return err
	}
	ch, err := os.Create(filepath.Join(dir, ChromeFile))
	if err != nil {
		return err
	}
	if err := s.tr.WriteChromeTrace(ch); err != nil {
		ch.Close()
		return fmt.Errorf("telemetry: chrome trace: %w", err)
	}
	if err := ch.Close(); err != nil {
		return err
	}
	for _, c := range s.power {
		if err := writePowerCSV(filepath.Join(dir, PowerFile(c.Name)), c.Samples()); err != nil {
			return fmt.Errorf("telemetry: power %s: %w", c.Name, err)
		}
	}
	for _, a := range s.artifacts {
		f, err := os.Create(filepath.Join(dir, filepath.Base(a.name)))
		if err != nil {
			return err
		}
		if err := a.write(f); err != nil {
			f.Close()
			return fmt.Errorf("telemetry: artifact %s: %w", a.name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	sf, err := os.Create(filepath.Join(dir, SummaryFile))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(sf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.buildSummary()); err != nil {
		sf.Close()
		return fmt.Errorf("telemetry: summary: %w", err)
	}
	return sf.Close()
}
