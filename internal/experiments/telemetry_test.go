package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/conserve"
	"repro/internal/powersim"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

func telemetryTestTrace() *blktrace.Trace {
	p := synth.DefaultWebServer()
	p.Duration = 2 * simtime.Second
	return synth.WebServerTrace(p)
}

// TestMeasureAtLoadTelemetryMatchesPlainMeasurement: instrumenting a
// run must not change what Measure reports, on every kind of stack.
func TestMeasureAtLoadTelemetryMatchesPlainMeasurement(t *testing.T) {
	tr := telemetryTestTrace()
	for _, tc := range []struct {
		name string
		spec StackSpec
	}{
		{"hdd", StackSpec{Kind: HDDArray}},
		{"ssd", StackSpec{Kind: SSDArray}},
		{"hdd-dram", StackSpec{Kind: HDDArray, Cache: &CacheSpec{Tier: cache.TierDRAM, CapacityMB: 32}}},
		{"tpm", StackSpec{Conserve: conserve.Spec{Technique: "tpm", SpinDownTimeout: 100 * simtime.Millisecond}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measure := func(set *telemetry.Set) *Measurement {
				t.Helper()
				s, err := Build(DefaultConfig(), tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				m, err := Measure(s, tr, replay.UniformFilter{Proportion: 0.5}, set)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			set := telemetry.New(telemetry.Options{})
			run, plain := measure(set), measure(nil)
			got, want := *run.Result, *plain.Result
			got.Intervals, want.Intervals = nil, nil
			if run.Load != plain.Load || !reflect.DeepEqual(run.Power, plain.Power) || run.Eff != plain.Eff || !reflect.DeepEqual(got, want) {
				t.Fatalf("instrumented measurement diverges from plain:\n got %+v %+v\nwant %+v %+v",
					run, got, plain, want)
			}
			// Registry counters agree with the replay result.
			reg := set.Registry()
			if got := reg.Counter("replay.issued").Value(); got != run.Result.Issued {
				t.Fatalf("replay.issued = %d, want %d", got, run.Result.Issued)
			}
			if got := reg.Counter("replay.completed").Value(); got != run.Result.Completed {
				t.Fatalf("replay.completed = %d, want %d", got, run.Result.Completed)
			}
			pass := reg.Counter("replay.filter_pass").Value()
			drop := reg.Counter("replay.filter_drop").Value()
			if pass != run.Result.Issued || pass+drop != int64(tr.NumIOs()) {
				t.Fatalf("filter pass/drop = %d/%d over %d IOs (issued %d)",
					pass, drop, tr.NumIOs(), run.Result.Issued)
			}
			if len(set.Windows()) == 0 {
				t.Fatal("no sampled windows")
			}
			if len(set.Tracer().Spans()) == 0 {
				t.Fatal("no spans recorded")
			}
		})
	}
}

// TestTelemetryPowerAgreesWithMeasure is the acceptance criterion: the
// online-sampled power channel, and the CSV it exports, integrate to
// the same energy as a post-hoc powersim.Measure within 1e-6 relative.
func TestTelemetryPowerAgreesWithMeasure(t *testing.T) {
	tr := telemetryTestTrace()
	set := telemetry.New(telemetry.Options{})
	s, err := Build(DefaultConfig(), StackSpec{Kind: HDDArray})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(s, tr, replay.UniformFilter{Proportion: 1.0}, set); err != nil {
		t.Fatal(err)
	}
	ch := set.PowerChannels()[0]
	meter := powersim.DefaultMeter(s.PowerSource())
	meter.Seed = DefaultConfig().Seed
	want := meter.Measure(ch.Span())
	got := ch.Samples()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("online channel is not bit-identical to Measure: %d vs %d samples", len(got), len(want))
	}

	dir := t.TempDir()
	if err := set.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, telemetry.PowerFile("wall")))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	if _, err := r.Read(); err != nil { // header
		t.Fatal(err)
	}
	var csvEnergy float64
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		start, _ := strconv.ParseFloat(rec[0], 64)
		end, _ := strconv.ParseFloat(rec[1], 64)
		watts, _ := strconv.ParseFloat(rec[2], 64)
		csvEnergy += watts * (end - start)
	}
	wantEnergy := powersim.EnergyJ(want)
	if wantEnergy <= 0 {
		t.Fatalf("degenerate energy %v", wantEnergy)
	}
	if rel := math.Abs(csvEnergy-wantEnergy) / wantEnergy; rel > 1e-6 {
		t.Fatalf("CSV integrated energy %.9f J vs Measure %.9f J: relative error %g > 1e-6",
			csvEnergy, wantEnergy, rel)
	}
}

// TestTelemetryDirArtifacts drives the full export path on a real run:
// parseable Chrome trace, well-formed events.jsonl, and a rendering
// report.
func TestTelemetryDirArtifacts(t *testing.T) {
	tr := telemetryTestTrace()
	set := telemetry.New(telemetry.Options{})
	s, err := Build(DefaultConfig(), StackSpec{Kind: SSDArray})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Measure(s, tr, replay.UniformFilter{Proportion: 0.5}, set)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := set.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, telemetry.ChromeFile))
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("trace.json not parseable: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("no chrome trace events")
	}
	cats := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		cats[ev.Cat] = true
	}
	for _, want := range []string{"replay", "raid", "disk"} {
		if !cats[want] {
			t.Fatalf("chrome trace missing %q spans (got %v)", want, cats)
		}
	}

	var buf bytes.Buffer
	if err := telemetry.RenderReport(&buf, dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"replay.issued", "replay.response_ns", "wall", "POWER"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, buf.String())
		}
	}
	if m.Result.Completed == 0 {
		t.Fatal("run completed no IOs")
	}
}
