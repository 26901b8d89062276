// Optimize conformance: the policy-search harness must be
// deterministic (byte-identical winner and ledger at any worker count
// and across same-seed runs) and must actually optimize (the grid
// winner strictly beats the paper-default configuration on the
// committed fixture).  `tracer verify -optimize` and the
// optimize_test.go driver re-run the committed fixture through
// OptimizeChecked and diff against the committed golden.
package check

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/optimize"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// OptimizeGoldenSuffix names the committed expected output of an
// optimize fixture (separate from replay goldens so the two corpora
// can share a testdata tree without colliding).
const OptimizeGoldenSuffix = ".optimize.json"

// optimizeSpaces are the committed search spaces the golden pins: a
// small TPM timeout sweep spanning aggressive/default/lazy, and the
// full DRPM step-down x level-count grid.
func optimizeSpaces() []optimize.Space {
	return []optimize.Space{
		{Policy: "tpm", Dims: []optimize.Dim{
			{Name: "timeout_s", Values: []float64{2, 10, 60}},
		}},
		{Policy: "drpm", Dims: []optimize.Dim{
			{Name: "stepdown_s", Values: []float64{1, 2, 5}},
			{Name: "levels", Values: []float64{2, 3, 4}},
		}},
	}
}

// optimizeOptions is the pinned evaluation cell: study seed 7, quarter
// load — idle-heavy enough that conservation genuinely trades energy
// against tail latency, so the search has a real landscape to climb.
func optimizeOptions(workers int) optimize.Options {
	cfg := experiments.DefaultConfig()
	cfg.Seed = 7
	return optimize.Options{Config: cfg, Load: 0.25, Workers: workers}
}

// optimizeEvolveOptions sizes the evolutionary gate run: small enough
// to stay cheap, large enough to cross generations (breeding is where
// nondeterminism would hide).
func optimizeEvolveOptions(workers int) optimize.EvolveOptions {
	return optimize.EvolveOptions{
		Options:     optimizeOptions(workers),
		Generations: 4,
		Population:  6,
		Seed:        11,
	}
}

// OptimizeFixtureTrace synthesises the committed idle-heavy fixture:
// ten virtual minutes of sparse web traffic (mean 0.5 IOPS) whose idle
// gaps straddle the spin-down break-even point.
func OptimizeFixtureTrace() *blktrace.Trace {
	wp := synth.DefaultWebServer()
	wp.Seed = 42
	wp.Duration = 10 * simtime.Minute
	wp.MeanIOPS = 0.5
	wp.FootprintBytes = 4 << 20
	return synth.WebServerTrace(wp)
}

// OptimizePolicyGolden pins one policy's search outcome.
type OptimizePolicyGolden struct {
	Policy string         `json:"policy"`
	Space  optimize.Space `json:"space"`
	Cells  int            `json:"cells"`

	// Baseline is the paper-default configuration; Best the grid
	// winner, which must strictly beat it; EvolveBest the evolutionary
	// winner on the same space.
	Baseline   optimize.Eval `json:"baseline"`
	Best       optimize.Eval `json:"best"`
	BestIndex  int           `json:"best_index"`
	EvolveBest optimize.Eval `json:"evolve_best"`

	// LedgerDecisions counts the winner's recorded decisions per kind —
	// the integer fingerprint of the decision stream (compared exactly;
	// timestamps stay out of the golden so FMA variation across
	// architectures cannot flake it).
	LedgerDecisions map[string]int64 `json:"ledger_decisions"`
}

// OptimizeGolden is the committed expected output for one optimize
// fixture trace.
type OptimizeGolden struct {
	Name     string                 `json:"name"`
	Trace    TraceInfo              `json:"trace"`
	Load     float64                `json:"load"`
	Seed     uint64                 `json:"seed"`
	Weights  optimize.Weights       `json:"weights"`
	Policies []OptimizePolicyGolden `json:"policies"`
}

// OptimizeResult carries the built golden plus the winners' full
// decision streams, so a verify failure can export the ledger artifact
// without re-running the search.
type OptimizeResult struct {
	Golden *OptimizeGolden
	// Ledgers maps policy name to the grid winner's recorded run.
	Ledgers map[string]optimize.RecordedRun
}

// OptimizeChecked runs the full conformance gate for every committed
// policy space on trace and returns the golden document to commit:
//
//   - the grid search must be byte-identical at workers 1, 2 and 8;
//   - the evolutionary search must be byte-identical at those worker
//     counts and across two same-seed runs;
//   - recording the grid winner twice must produce byte-identical
//     ledgers;
//   - the grid winner's fitness must strictly beat the paper-default
//     baseline (the search must optimize, not just enumerate).
func OptimizeChecked(ctx context.Context, name string, trace *blktrace.Trace) (*OptimizeResult, error) {
	opts := optimizeOptions(workerCounts[0])
	g := &OptimizeGolden{
		Name:    name,
		Trace:   traceInfo(trace),
		Load:    opts.Load,
		Seed:    opts.Config.Seed,
		Weights: optimize.DefaultWeights(),
	}
	out := &OptimizeResult{Golden: g, Ledgers: map[string]optimize.RecordedRun{}}
	for _, space := range optimizeSpaces() {
		pg, run, err := optimizePolicyChecked(ctx, space, trace)
		if err != nil {
			return nil, fmt.Errorf("optimize %s: %w", space.Policy, err)
		}
		g.Policies = append(g.Policies, *pg)
		out.Ledgers[space.Policy] = run
	}
	return out, nil
}

// optimizePolicyChecked gates one policy space and builds its golden
// entry.
func optimizePolicyChecked(ctx context.Context, space optimize.Space, trace *blktrace.Trace) (*OptimizePolicyGolden, optimize.RecordedRun, error) {
	var none optimize.RecordedRun

	// Grid determinism across worker counts.
	grid, err := sameAtWorkers("grid search", func(w int) (*optimize.SearchResult, []byte, error) {
		return withJSON(optimize.Grid(ctx, space, trace, optimizeOptions(w)))
	})
	if err != nil {
		return nil, none, err
	}

	// Evolutionary determinism across worker counts and same-seed runs.
	evolve, err := sameAtWorkers("evolutionary search", func(w int) (*optimize.SearchResult, []byte, error) {
		res, blob, err := withJSON(optimize.Evolve(ctx, space, trace, optimizeEvolveOptions(w)))
		if err != nil {
			return nil, nil, err
		}
		_, rerun, err := withJSON(optimize.Evolve(ctx, space, trace, optimizeEvolveOptions(w)))
		if err == nil && !bytes.Equal(blob, rerun) {
			err = fmt.Errorf("evolutionary search not deterministic: a same-seed rerun disagrees")
		}
		return res, blob, err
	})
	if err != nil {
		return nil, none, err
	}

	// Winner ledger determinism: record the grid winner twice.
	opts := optimizeOptions(workerCounts[0])
	var run optimize.RecordedRun
	var ledgerBlob []byte
	for i := 0; i < 2; i++ {
		ev, decisions, err := optimize.Record(opts, grid.Best.Point, trace)
		if err != nil {
			return nil, none, err
		}
		h := optimize.LedgerHeader{
			Policy: grid.Best.Point.Policy,
			Params: grid.Best.Point.Params,
			Load:   opts.Load,
			Seed:   opts.Config.Seed,
		}
		var buf bytes.Buffer
		if err := optimize.WriteLedger(&buf, h, decisions); err != nil {
			return nil, none, err
		}
		if ledgerBlob == nil {
			run = optimize.RecordedRun{Header: h, Eval: ev, Decisions: decisions}
			ledgerBlob = buf.Bytes()
		} else if !bytes.Equal(ledgerBlob, buf.Bytes()) {
			return nil, none, fmt.Errorf("winner ledger not deterministic across reruns")
		}
	}

	// The search must optimize: strictly beat the paper defaults.
	baseline, err := optimize.Baseline(opts, space.Policy, trace)
	if err != nil {
		return nil, none, err
	}
	if grid.Best.Fitness <= baseline.Fitness {
		return nil, none, fmt.Errorf("grid winner %s fitness %.6g does not beat paper-default %.6g",
			grid.Best.Point, grid.Best.Fitness, baseline.Fitness)
	}

	counts := map[string]int64{}
	for _, d := range run.Decisions {
		counts[string(d.Kind)]++
	}
	return &OptimizePolicyGolden{
		Policy:          space.Policy,
		Space:           space,
		Cells:           grid.Cells,
		Baseline:        baseline,
		Best:            grid.Best,
		BestIndex:       grid.BestIndex,
		EvolveBest:      evolve.Best,
		LedgerDecisions: counts,
	}, run, nil
}

// verifyOptimize re-runs every *.trace.txt fixture under dir through
// the OptimizeChecked gate and diffs against the committed
// *.optimize.json.  With opts.Update it rewrites the JSON instead —
// and bootstraps the canonical fixture trace if the directory is
// empty.  On the first diff failure the winners' decision ledgers are
// exported to opts.TelemetryDir (the artifact CI uploads).
func verifyOptimize(dir string, opts VerifyOptions, out io.Writer) error {
	return verifyGoldens(goldenGate[OptimizeGolden]{
		label:     "verify optimize",
		suffix:    OptimizeGoldenSuffix,
		canonical: OptimizeFixtureTrace,
		tally:     func(g *OptimizeGolden) string { return fmt.Sprintf("%d policies", len(g.Policies)) },
		build: func(name string, trace *blktrace.Trace) (*OptimizeGolden, func(string, io.Writer), error) {
			res, err := OptimizeChecked(context.Background(), name, trace)
			if err != nil {
				return nil, nil, err
			}
			return res.Golden, func(dir string, out io.Writer) { writeLedgerArtifacts(dir, name, res, out) }, nil
		},
	}, dir, opts, out)
}

// writeLedgerArtifacts exports each policy winner's decision ledger so
// a conformance break ships with the exact decision stream that
// produced it.  Export problems are reported but never mask the
// verification failure.
func writeLedgerArtifacts(dir, name string, res *OptimizeResult, out io.Writer) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(out, "  ledger export for %s failed: %v\n", name, err)
		return
	}
	policies := make([]string, 0, len(res.Ledgers))
	for p := range res.Ledgers {
		policies = append(policies, p)
	}
	sort.Strings(policies)
	for _, p := range policies {
		run := res.Ledgers[p]
		path := filepath.Join(dir, fmt.Sprintf("%s-%s-decisions.jsonl", name, p))
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(out, "  ledger export for %s/%s failed: %v\n", name, p, err)
			continue
		}
		err = optimize.WriteLedger(f, run.Header, run.Decisions)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(out, "  ledger export for %s/%s failed: %v\n", name, p, err)
			continue
		}
		fmt.Fprintf(out, "  ledger for %s/%s written to %s\n", name, p, path)
	}
}
