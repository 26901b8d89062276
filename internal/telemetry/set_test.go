package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// bump is a test handler that increments a counter at its event time.
type bump struct{ c *Counter }

func (b bump) OnEvent(*simtime.Engine, simtime.EventArg) { b.c.Inc() }

func TestSamplerWindowsAndDeltas(t *testing.T) {
	e := simtime.NewEngine()
	s := New(Options{Cadence: simtime.Second})
	c := s.Registry().Counter("hits")
	g := s.Registry().Gauge("level")
	for _, at := range []simtime.Duration{
		500 * simtime.Millisecond,
		1500 * simtime.Millisecond,
		1600 * simtime.Millisecond,
		2500 * simtime.Millisecond,
	} {
		e.ScheduleEvent(simtime.Time(at), bump{c}, simtime.EventArg{})
	}
	g.Add(7)
	s.StartSampling(e, simtime.Time(3*simtime.Second))
	e.Run()

	wins := s.Windows()
	if len(wins) != 3 {
		t.Fatalf("windows = %d, want 3", len(wins))
	}
	wantHits := []float64{1, 2, 1}
	for i, w := range wins {
		if w.End.Sub(w.Start) != simtime.Second {
			t.Fatalf("window %d span %v", i, w.End.Sub(w.Start))
		}
		if w.Values[0] != wantHits[i] {
			t.Fatalf("window %d hits delta = %v, want %v", i, w.Values[0], wantHits[i])
		}
		if w.Values[1] != 7 {
			t.Fatalf("window %d gauge = %v, want 7", i, w.Values[1])
		}
	}
}

func TestSamplerPartialFinalWindowViaFlush(t *testing.T) {
	e := simtime.NewEngine()
	s := New(Options{Cadence: simtime.Second})
	c := s.Registry().Counter("hits")
	e.ScheduleEvent(simtime.Time(1300*simtime.Millisecond), bump{c}, simtime.EventArg{})
	s.StartSampling(e, simtime.Time(10*simtime.Second))
	e.RunUntil(simtime.Time(1500 * simtime.Millisecond))
	s.Flush(e.Now())
	wins := s.Windows()
	if len(wins) != 2 {
		t.Fatalf("windows = %d, want 2 (one full + one partial)", len(wins))
	}
	last := wins[1]
	if last.End != simtime.Time(1500*simtime.Millisecond) || last.Values[0] != 1 {
		t.Fatalf("partial window = %+v", last)
	}
}

func TestTracerCapAndDropCount(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		tr.Emit(Span{Name: "io"})
	}
	if len(tr.Spans()) != 2 || tr.Dropped() != 3 {
		t.Fatalf("spans=%d dropped=%d", len(tr.Spans()), tr.Dropped())
	}
}

// TestSetMerge folds one run's Set into an accumulator: registry
// values add, spans append in order under the destination cap, and
// sampled windows land after the destination's own.
func TestSetMerge(t *testing.T) {
	dst := New(Options{})
	dst.tr = NewTracer(3)
	dst.Registry().Counter("ios").Add(2)
	dst.Tracer().Emit(Span{Name: "a"})
	dst.windows = append(dst.windows, Window{End: 1})

	run := New(Options{})
	run.Registry().Counter("ios").Add(5)
	run.Registry().Watermark("depth").Update(7)
	run.Registry().Histogram("lat", []int64{100, 1000}).Observe(50)
	run.Tracer().Emit(Span{Name: "b"})
	run.Tracer().Emit(Span{Name: "c"})
	run.Tracer().Emit(Span{Name: "d"}) // overflows dst's cap of 3
	e := simtime.NewEngine()
	c := run.Registry().Counter("ticks")
	e.ScheduleEvent(simtime.Time(500*simtime.Millisecond), bump{c}, simtime.EventArg{})
	run.StartSampling(e, simtime.Time(2*simtime.Second))
	e.Run()

	dst.Merge(run)
	if got := dst.Registry().Counter("ios").Value(); got != 7 {
		t.Fatalf("ios = %d, want 7", got)
	}
	if got := dst.Registry().Watermark("depth").Value(); got != 7 {
		t.Fatalf("depth = %d, want 7", got)
	}
	if got := dst.Registry().HistogramSnapshot("lat").Count; got != 1 {
		t.Fatalf("lat count = %d, want 1", got)
	}
	spans := dst.Tracer().Spans()
	if len(spans) != 3 || spans[0].Name != "a" || spans[1].Name != "b" || spans[2].Name != "c" {
		t.Fatalf("spans = %+v", spans)
	}
	if got := dst.Tracer().Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1 (span beyond dst cap)", got)
	}
	if wins := dst.Windows(); len(wins) != 1+len(run.Windows()) || wins[0].End != 1 {
		t.Fatalf("windows = %+v", wins)
	}
	// Self-merge and nil merges are no-ops.
	before := dst.Registry().Counter("ios").Value()
	dst.Merge(dst)
	dst.Merge(nil)
	(*Set)(nil).Merge(run)
	if got := dst.Registry().Counter("ios").Value(); got != before {
		t.Fatalf("self/nil merge changed state: %d -> %d", before, got)
	}
}

func TestWriteDirArtifacts(t *testing.T) {
	dir := t.TempDir()
	e := simtime.NewEngine()
	s := New(Options{})
	c := s.Registry().Counter("ios")
	h := s.Registry().Histogram("lat", []int64{100, 1000})
	s.Tracer().Emit(Span{Cat: "replay", Name: "io", Start: 10, Dur: 5, Bunch: 1, Pkg: 2, Disk: -1, Bytes: 4096})
	s.Tracer().Emit(Span{Cat: "disk", Name: "xfer-read", TID: 3, Start: 12, Dur: 2, Disk: 2})
	c.Add(3)
	h.Observe(50)
	s.StartSampling(e, simtime.Time(2*simtime.Second))
	e.Run()
	if err := s.WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	// series.csv: header + 2 windows.
	raw, err := os.ReadFile(filepath.Join(dir, SeriesFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		t.Fatalf("series.csv lines = %d, want 3:\n%s", len(lines), raw)
	}
	if lines[0] != "start_s,end_s,ios" {
		t.Fatalf("series header = %q", lines[0])
	}

	// events.jsonl: one object per span.
	raw, err = os.ReadFile(filepath.Join(dir, EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("events.jsonl lines = %d, want 2", len(lines))
	}
	var sp Span
	if err := json.Unmarshal([]byte(lines[0]), &sp); err != nil {
		t.Fatalf("events.jsonl not parseable: %v", err)
	}
	if sp.Name != "io" || sp.Bytes != 4096 {
		t.Fatalf("span round-trip = %+v", sp)
	}

	// trace.json: parseable Chrome trace-event JSON with our spans.
	raw, err = os.ReadFile(filepath.Join(dir, ChromeFile))
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int32   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("trace.json not parseable: %v", err)
	}
	if len(chrome.TraceEvents) != 2 || chrome.TraceEvents[0].Ph != "X" {
		t.Fatalf("chrome events = %+v", chrome.TraceEvents)
	}
	if chrome.TraceEvents[1].TID != 3 {
		t.Fatalf("chrome tid = %d, want 3", chrome.TraceEvents[1].TID)
	}

	// summary.json round-trips through ReadSummary.
	sum, err := ReadSummary(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Windows != 2 || sum.Spans != 2 || len(sum.Columns) != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(sum.Histogram) != 1 || sum.Histogram[0].Count != 1 {
		t.Fatalf("summary histograms = %+v", sum.Histogram)
	}

	// The report renderer consumes the directory.
	var buf bytes.Buffer
	if err := RenderReport(&buf, dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ios", "lat", "2 windows"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRenderReportWithoutWindows: a set that never sampled a window
// reports its totals and "-" in both per-window columns, not a zero
// that reads as measured.
func TestRenderReportWithoutWindows(t *testing.T) {
	s := New(Options{Cadence: simtime.Second})
	s.Registry().Counter("offered").Add(129)
	s.Registry().Watermark("inflight").Update(7)
	dir := t.TempDir()
	if err := s.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderReport(&buf, dir); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = f
		}
	}
	for name, want := range map[string][]string{
		"offered":  {"offered", "counter", "129", "-", "-"},
		"inflight": {"inflight", "watermark", "7", "-", "-"},
	} {
		if got := rows[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("row %q = %q, want %q in:\n%s", name, got, want, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "0 windows @ 1s") {
		t.Errorf("report header:\n%s", buf.String())
	}
}

func TestNilSetWriteDirIsNoOp(t *testing.T) {
	var s *Set
	if err := s.WriteDir(filepath.Join(t.TempDir(), "nope")); err != nil {
		t.Fatal(err)
	}
	s.StartSampling(simtime.NewEngine(), 0)
	s.Flush(0)
	if s.Windows() != nil || s.PowerChannels() != nil {
		t.Fatal("nil set leaked state")
	}
}
