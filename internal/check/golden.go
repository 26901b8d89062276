// Golden fixtures: small committed traces with committed replay
// outputs.  The replay gate of `tracer verify` and the golden_test.go
// driver re-run every fixture on the simulated arrays and diff the
// results against the committed JSON through the gate harness
// (gate.go); `-update` regenerates the JSON after an intentional model
// change.
package check

import (
	"fmt"
	"io"
	"os"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/metrics"
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
// that does not conform to the physics must never be committed.  A nil
// cache builds the bare arrays; a non-nil one fronts every array with
// that cache tier, and a disabled &experiments.CacheSpec{} must rebuild
// the bare document byte for byte — the pass-through gate verifyCache
// runs over the committed replay corpus.
func BuildGolden(name string, trace *blktrace.Trace, cache *experiments.CacheSpec) (*Golden, error) {
	g := &Golden{Name: name, Trace: traceInfo(trace)}
	cfg := experiments.DefaultConfig()
	for _, kind := range goldenKinds {
		for _, load := range goldenLoads {
			s, err := experiments.Build(cfg, experiments.StackSpec{Kind: kind, Cache: cache})
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

// traceInfo pins a fixture trace's structural identity.
func traceInfo(trace *blktrace.Trace) TraceInfo {
	st := blktrace.ComputeStats(trace)
	return TraceInfo{
		Device:     trace.Device,
		Bunches:    st.Bunches,
		IOs:        st.IOs,
		TotalBytes: st.TotalBytes,
		DurationNs: int64(st.Duration),
	}
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

// VerifyOptions configure a verification pass.
type VerifyOptions struct {
	// Update rewrites the committed goldens instead of diffing.
	Update bool
	// TelemetryDir, when non-empty, receives the failure artifacts of
	// the first fixture that fails its diff — what CI uploads so a
	// conformance break can be inspected without re-running anything
	// locally.  The replay and cache gates re-run one golden cell with
	// full telemetry (replay spans, time series, power CSV, viewable in
	// Perfetto); the optimize gate writes the winners' decision
	// ledgers; the SLO gate writes its run's artifacts; the paper gate
	// writes its fresh text.  Verify gives each gate its own
	// subdirectory.
	TelemetryDir string
}

// verifyGolden re-runs every *.trace.txt fixture under dir and diffs
// the rebuilt output against the committed *.golden.json.  With
// opts.Update it rewrites the JSON instead of diffing.  Progress and
// diffs go to out (one PASS/FAIL/UPDATED line per fixture).  A fixture
// that fails to load, build or diff does not abort the pass: the
// remaining fixtures still run, and the returned error is a one-line
// summary counting the failures (wrapping the first underlying error,
// so callers can still errors.Is/As into it).
func verifyGolden(dir string, opts VerifyOptions, out io.Writer) error {
	return verifyGoldens(goldenGate[Golden]{
		label:  "verify",
		suffix: GoldenSuffix,
		tally:  func(g *Golden) string { return fmt.Sprintf("%d runs", len(g.Runs)) },
		build: func(name string, trace *blktrace.Trace) (*Golden, func(string, io.Writer), error) {
			g, err := BuildGolden(name, trace, nil)
			return g, func(dir string, out io.Writer) {
				spec := experiments.StackSpec{Kind: goldenKinds[0]}
				exportTelemetry(dir, name, experiments.DefaultConfig(), spec, goldenLoads[0], trace, out)
			}, err
		},
	}, dir, opts, out)
}
