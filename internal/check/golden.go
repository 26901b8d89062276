// Golden fixtures: small committed traces with committed replay
// outputs.  `tracer verify` and the golden_test.go driver re-run every
// fixture on the simulated arrays and diff the results against the
// committed JSON with tolerance-aware comparison; `-update` regenerates
// the JSON after an intentional model change.
package check

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/telemetry"
)

// DefaultTol is the relative tolerance for golden float comparison.
// Replay is deterministic, but float summation may differ across
// architectures (FMA contraction, libm variation); 1e-6 absorbs that
// while still flagging any genuine model drift.  Integers are always
// compared exactly.
const DefaultTol = 1e-6

// TraceSuffix and GoldenSuffix name the fixture file pair: a text-format
// trace and its committed expected output.
const (
	TraceSuffix  = ".trace.txt"
	GoldenSuffix = ".golden.json"
)

// goldenLoads are the load proportions each fixture is replayed at.
var goldenLoads = []float64{0.5, 1.0}

// goldenKinds are the arrays each fixture is replayed on.
var goldenKinds = []experiments.ArrayKind{experiments.HDDArray, experiments.SSDArray}

// TraceInfo pins the fixture's structural identity.
type TraceInfo struct {
	Device     string `json:"device"`
	Bunches    int    `json:"bunches"`
	IOs        int    `json:"ios"`
	TotalBytes int64  `json:"total_bytes"`
	DurationNs int64  `json:"duration_ns"`
}

// GoldenRun is one (array kind, load) replay outcome.
type GoldenRun struct {
	Kind string  `json:"kind"`
	Load float64 `json:"load"`

	Issued    int64 `json:"issued"`
	Completed int64 `json:"completed"`
	Bytes     int64 `json:"bytes"`

	IOPS           float64 `json:"iops"`
	MBPS           float64 `json:"mbps"`
	MeanResponseMs float64 `json:"mean_response_ms"`
	MaxResponseMs  float64 `json:"max_response_ms"`
	P50ResponseMs  float64 `json:"p50_response_ms"`
	P95ResponseMs  float64 `json:"p95_response_ms"`
	P99ResponseMs  float64 `json:"p99_response_ms"`

	MeanWatts   float64 `json:"mean_watts"`
	EnergyJ     float64 `json:"energy_j"`
	IOPSPerWatt float64 `json:"iops_per_watt"`
	MBPSPerKW   float64 `json:"mbps_per_kw"`

	DiskReads    int64 `json:"disk_reads"`
	DiskWrites   int64 `json:"disk_writes"`
	ParityReads  int64 `json:"parity_reads"`
	ParityWrites int64 `json:"parity_writes"`
}

// Golden is the committed expected output for one fixture trace.
type Golden struct {
	Name  string      `json:"name"`
	Trace TraceInfo   `json:"trace"`
	Runs  []GoldenRun `json:"runs"`
}

// BuildGolden replays the fixture trace at every golden (kind, load)
// cell on a fresh array with the invariant suite armed, and returns the
// document to commit.  Invariant violations fail the build: a golden
// that does not conform to the physics must never be committed.
func BuildGolden(name string, trace *blktrace.Trace) (*Golden, error) {
	st := blktrace.ComputeStats(trace)
	g := &Golden{
		Name: name,
		Trace: TraceInfo{
			Device:     trace.Device,
			Bunches:    st.Bunches,
			IOs:        st.IOs,
			TotalBytes: st.TotalBytes,
			DurationNs: int64(st.Duration),
		},
	}
	cfg := experiments.DefaultConfig()
	for _, kind := range goldenKinds {
		for _, load := range goldenLoads {
			s, err := experiments.Build(cfg, experiments.StackSpec{Kind: kind})
			if err != nil {
				return nil, fmt.Errorf("golden %s: %w", name, err)
			}
			res, err := ReplayChecked(s.Engine, s.Device, trace, Options{Load: load})
			if err != nil {
				return nil, fmt.Errorf("golden %s %s load %v: %w", name, kind, load, err)
			}
			if err := res.Report.Err(); err != nil {
				return nil, fmt.Errorf("golden %s %s load %v: %w", name, kind, load, err)
			}
			st := s.Array.Stats()
			r := res.Replay
			eff := metrics.NewEfficiency(r.IOPS, r.MBPS, res.MeanWatts, res.EnergyJ)
			g.Runs = append(g.Runs, GoldenRun{
				Kind: kind.String(), Load: load,
				Issued: r.Issued, Completed: r.Completed, Bytes: r.Bytes,
				IOPS: r.IOPS, MBPS: r.MBPS,
				MeanResponseMs: r.MeanResponse.Seconds() * 1000,
				MaxResponseMs:  r.MaxResponse.Seconds() * 1000,
				P50ResponseMs:  r.P50Response.Seconds() * 1000,
				P95ResponseMs:  r.P95Response.Seconds() * 1000,
				P99ResponseMs:  r.P99Response.Seconds() * 1000,
				MeanWatts:      res.MeanWatts, EnergyJ: res.EnergyJ,
				IOPSPerWatt: eff.IOPSPerWatt, MBPSPerKW: eff.MBPSPerKW,
				DiskReads: st.DiskReads, DiskWrites: st.DiskWrites,
				ParityReads: st.ParityReads, ParityWrites: st.ParityWrites,
			})
		}
	}
	return g, nil
}

// withinTol reports whether two floats agree within relative tolerance
// (absolute near zero), mirroring powersim.ApproxEqual.
func withinTol(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff <= tol*scale
}

// CompareGolden diffs got against want field by field: integers must
// match exactly, floats within tol.  It returns one human-readable line
// per mismatch; an empty slice means the documents agree.
func CompareGolden(want, got *Golden, tol float64) []string {
	var diffs []string
	intf := func(field string, w, g int64) {
		if w != g {
			diffs = append(diffs, fmt.Sprintf("%s: want %d, got %d", field, w, g))
		}
	}
	fltf := func(field string, w, g float64) {
		if !withinTol(w, g, tol) {
			diffs = append(diffs, fmt.Sprintf("%s: want %.9g, got %.9g (tol %g)", field, w, g, tol))
		}
	}
	if want.Trace.Device != got.Trace.Device {
		diffs = append(diffs, fmt.Sprintf("trace.device: want %q, got %q", want.Trace.Device, got.Trace.Device))
	}
	intf("trace.bunches", int64(want.Trace.Bunches), int64(got.Trace.Bunches))
	intf("trace.ios", int64(want.Trace.IOs), int64(got.Trace.IOs))
	intf("trace.total_bytes", want.Trace.TotalBytes, got.Trace.TotalBytes)
	intf("trace.duration_ns", want.Trace.DurationNs, got.Trace.DurationNs)
	if len(want.Runs) != len(got.Runs) {
		diffs = append(diffs, fmt.Sprintf("runs: want %d, got %d", len(want.Runs), len(got.Runs)))
		return diffs
	}
	for i := range want.Runs {
		w, g := &want.Runs[i], &got.Runs[i]
		pfx := fmt.Sprintf("runs[%d] (%s load %v)", i, w.Kind, w.Load)
		if w.Kind != g.Kind || w.Load != g.Load {
			diffs = append(diffs, fmt.Sprintf("%s: cell identity changed to (%s, %v)", pfx, g.Kind, g.Load))
			continue
		}
		intf(pfx+".issued", w.Issued, g.Issued)
		intf(pfx+".completed", w.Completed, g.Completed)
		intf(pfx+".bytes", w.Bytes, g.Bytes)
		fltf(pfx+".iops", w.IOPS, g.IOPS)
		fltf(pfx+".mbps", w.MBPS, g.MBPS)
		fltf(pfx+".mean_response_ms", w.MeanResponseMs, g.MeanResponseMs)
		fltf(pfx+".max_response_ms", w.MaxResponseMs, g.MaxResponseMs)
		fltf(pfx+".p50_response_ms", w.P50ResponseMs, g.P50ResponseMs)
		fltf(pfx+".p95_response_ms", w.P95ResponseMs, g.P95ResponseMs)
		fltf(pfx+".p99_response_ms", w.P99ResponseMs, g.P99ResponseMs)
		fltf(pfx+".mean_watts", w.MeanWatts, g.MeanWatts)
		fltf(pfx+".energy_j", w.EnergyJ, g.EnergyJ)
		fltf(pfx+".iops_per_watt", w.IOPSPerWatt, g.IOPSPerWatt)
		fltf(pfx+".mbps_per_kw", w.MBPSPerKW, g.MBPSPerKW)
		intf(pfx+".disk_reads", w.DiskReads, g.DiskReads)
		intf(pfx+".disk_writes", w.DiskWrites, g.DiskWrites)
		intf(pfx+".parity_reads", w.ParityReads, g.ParityReads)
		intf(pfx+".parity_writes", w.ParityWrites, g.ParityWrites)
	}
	return diffs
}

// LoadFixtureTrace reads one text-format fixture trace, wrapping decode
// failures with the file name so a truncated fixture surfaces as a
// labelled error, never a panic.
func LoadFixtureTrace(path string) (*blktrace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := blktrace.ReadText(f)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", path, err)
	}
	return tr, nil
}

// ReadGolden loads a committed golden document.
func ReadGolden(path string) (*Golden, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Golden
	if err := json.Unmarshal(blob, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", path, err)
	}
	return &g, nil
}

// WriteGolden commits a golden document.
func WriteGolden(path string, g *Golden) error {
	blob, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// VerifyOptions configure a golden-corpus verification pass.
type VerifyOptions struct {
	// Update rewrites the committed JSON instead of diffing.
	Update bool
	// Tol is the relative float tolerance (0 = DefaultTol).
	Tol float64
	// TelemetryDir, when non-empty, receives a full telemetry export
	// (replay spans, time series, power CSV) for the first fixture
	// that fails the diff, re-run at the first golden cell — the
	// artifact CI uploads so a conformance break can be inspected in
	// Perfetto without re-running anything locally.
	TelemetryDir string
}

// VerifyGolden re-runs every *.trace.txt fixture under dir and diffs
// the rebuilt output against the committed *.golden.json.  With
// opts.Update it rewrites the JSON instead of diffing.  Progress and
// diffs go to out (one PASS/FAIL/UPDATED line per fixture).  A fixture
// that fails to load, build or diff no longer aborts the pass: the
// remaining fixtures still run, and the returned error is a one-line
// summary counting the failures (wrapping the first underlying error,
// so callers can still errors.Is/As into it).
func VerifyGolden(dir string, opts VerifyOptions, out io.Writer) error {
	tol := opts.Tol
	if tol <= 0 {
		tol = DefaultTol
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*"+TraceSuffix))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return fmt.Errorf("verify: no %s fixtures under %s", TraceSuffix, dir)
	}
	failed := 0
	var firstErr error
	fail := func(name string, err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
		fmt.Fprintf(out, "FAIL %s: %v\n", name, err)
	}
	telemetryDone := false
	for _, tracePath := range paths {
		name := strings.TrimSuffix(filepath.Base(tracePath), TraceSuffix)
		goldenPath := strings.TrimSuffix(tracePath, TraceSuffix) + GoldenSuffix
		trace, err := LoadFixtureTrace(tracePath)
		if err != nil {
			fail(name, err)
			continue
		}
		got, err := BuildGolden(name, trace)
		if err != nil {
			fail(name, err)
			continue
		}
		if opts.Update {
			if err := WriteGolden(goldenPath, got); err != nil {
				fail(name, err)
				continue
			}
			fmt.Fprintf(out, "UPDATED %s (%d runs)\n", name, len(got.Runs))
			continue
		}
		want, err := ReadGolden(goldenPath)
		if err != nil {
			fail(name, fmt.Errorf("%w (run with -update to create)", err))
			continue
		}
		diffs := CompareGolden(want, got, tol)
		if len(diffs) == 0 {
			fmt.Fprintf(out, "PASS %s (%d runs)\n", name, len(got.Runs))
			continue
		}
		fail(name, fmt.Errorf("%d mismatch(es)", len(diffs)))
		for _, d := range diffs {
			fmt.Fprintf(out, "  %s\n", d)
		}
		if opts.TelemetryDir != "" && !telemetryDone {
			telemetryDone = true
			writeFailureTelemetry(opts.TelemetryDir, name, trace, out)
		}
	}
	if failed > 0 {
		return fmt.Errorf("verify: %d of %d fixtures failed: %w", failed, len(paths), firstErr)
	}
	return nil
}

// writeFailureTelemetry re-runs a failing fixture's first golden cell
// with full instrumentation and exports the artifact directory.  Export
// problems are reported on out but never mask the verification failure
// itself.
func writeFailureTelemetry(dir, name string, trace *blktrace.Trace, out io.Writer) {
	set := telemetry.New(telemetry.Options{})
	s, err := experiments.Build(experiments.DefaultConfig(), experiments.StackSpec{Kind: goldenKinds[0]})
	if err == nil {
		_, err = experiments.Measure(s, trace, replay.UniformFilter{Proportion: goldenLoads[0]}, set)
	}
	if err != nil {
		fmt.Fprintf(out, "  telemetry capture for %s failed: %v\n", name, err)
		return
	}
	if err := set.WriteDir(dir); err != nil {
		fmt.Fprintf(out, "  telemetry export for %s failed: %v\n", name, err)
		return
	}
	fmt.Fprintf(out, "  telemetry for %s (%s load %v) written to %s\n", name, goldenKinds[0], goldenLoads[0], dir)
}
