package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/optimize"
	"repro/internal/telemetry"
)

// defaultOptimizeFixture is the committed golden trace the optimize
// acceptance run targets; when absent (running outside the repo) the
// identical trace is synthesised from its pinned seed.
const defaultOptimizeFixture = "internal/check/testdata/golden/optimize/idle-web.trace.txt"

// loadOptimizeTrace resolves the trace for optimize/whatif: -in file
// (text fixtures by suffix, binary otherwise), repository entry, or
// the committed idle-heavy fixture.
func loadOptimizeTrace(repoDir, name, in string) (*blktrace.Trace, error) {
	switch {
	case strings.HasSuffix(in, check.TraceSuffix):
		return check.LoadFixtureTrace(in)
	case in == "" && name == "":
		if _, err := os.Stat(defaultOptimizeFixture); err == nil {
			return check.LoadFixtureTrace(defaultOptimizeFixture)
		}
		return check.OptimizeFixtureTrace(), nil
	}
	return loadTrace(repoDir, name, in)
}

// parseSpace decodes "-space timeout_s=2,10,60;levels=2,3,4" into a
// search space for policy.
func parseSpace(policy, spec string) (optimize.Space, error) {
	sp := optimize.Space{Policy: policy}
	for _, dim := range strings.Split(spec, ";") {
		dim = strings.TrimSpace(dim)
		if dim == "" {
			continue
		}
		name, vals, ok := strings.Cut(dim, "=")
		if !ok {
			return sp, fmt.Errorf("optimize: bad space dimension %q (want name=v1,v2,...)", dim)
		}
		d := optimize.Dim{Name: strings.TrimSpace(name)}
		for _, v := range strings.Split(vals, ",") {
			x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return sp, fmt.Errorf("optimize: bad value %q in dimension %q", v, name)
			}
			d.Values = append(d.Values, x)
		}
		sp.Dims = append(sp.Dims, d)
	}
	if err := sp.Validate(); err != nil {
		return sp, err
	}
	return sp, nil
}

// cmdOptimize searches a conserve policy's parameter space for the
// most energy-efficient operating point under the weighted fitness
// (IOPS/Watt reward, p99 penalty, spin-up wear penalty), prints the
// policy-vs-baseline table, and optionally records the winner's full
// decision ledger for counterfactual replay with `tracer whatif`.
func cmdOptimize(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	policies := fs.String("policy", "tpm,drpm", "comma-separated conserve policies to search (tpm,drpm,eraid,pdc,maid,cache or all)")
	spaceSpec := fs.String("space", "", "custom search space 'name=v1,v2;name2=...' (single -policy only; default: built-in grid)")
	driver := fs.String("driver", "grid", "search driver: grid or evolve")
	generations := fs.Int("generations", 8, "evolve: generation count")
	population := fs.Int("population", 12, "evolve: population size")
	evolveSeed := fs.Uint64("evolve-seed", 1, "evolve: selection/mutation seed")
	repoDir := fs.String("repo", "traces", "trace repository directory")
	name := fs.String("trace", "", "trace file name within the repository")
	in := fs.String("in", "", "trace file to optimize against (default: committed idle-web golden fixture)")
	load := fs.Float64("load", 25, "replay load percentage")
	seed := fs.Uint64("seed", 7, "simulation seed (drives power metering)")
	wIOPSW := fs.Float64("w-iops-per-watt", optimize.DefaultWeights().IOPSPerWatt, "fitness reward per IOPS/Watt")
	wP99 := fs.Float64("w-p99-ms", optimize.DefaultWeights().P99PerMs, "fitness penalty per ms of p99 latency")
	wWear := fs.Float64("w-spinup", optimize.DefaultWeights().WearPerSpinUp, "fitness penalty per spin-up cycle")
	workers := fs.Int("workers", 0, "parallel evaluation cells (0 = all cores, 1 = sequential)")
	ledgerDir := fs.String("ledger-dir", "", "write each winner's decision ledger (and LEDGER.md table) into this directory")
	telemetryDir := fs.String("telemetry-dir", "", "export search artifacts through the telemetry exporter into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*load > 0 && *load <= 1000) { // NaN fails every comparison
		return fmt.Errorf("optimize: bad load percentage %v", *load)
	}
	if *driver != "grid" && *driver != "evolve" {
		return fmt.Errorf("optimize: unknown driver %q (want grid or evolve)", *driver)
	}
	if *generations <= 0 {
		return fmt.Errorf("optimize: -generations %d is not positive", *generations)
	}
	if *population <= 0 {
		return fmt.Errorf("optimize: -population %d is not positive", *population)
	}
	// The library scores an all-zero weight vector with DefaultWeights,
	// so the flags must reject it rather than let it pass silently.
	weights := optimize.Weights{IOPSPerWatt: *wIOPSW, P99PerMs: *wP99, WearPerSpinUp: *wWear}
	for _, w := range []struct {
		flag string
		v    float64
	}{{"-w-iops-per-watt", *wIOPSW}, {"-w-p99-ms", *wP99}, {"-w-spinup", *wWear}} {
		if !(w.v >= 0) || math.IsInf(w.v, 1) { // NaN fails every comparison
			return fmt.Errorf("optimize: %s %v is not a finite non-negative weight", w.flag, w.v)
		}
	}
	if weights == (optimize.Weights{}) {
		return fmt.Errorf("optimize: every fitness weight is 0 (set -w-iops-per-watt, -w-p99-ms or -w-spinup)")
	}
	list := strings.Split(*policies, ",")
	if *policies == "all" {
		list = []string{"tpm", "drpm", "eraid", "pdc", "maid", "cache"}
	}
	if *spaceSpec != "" && len(list) != 1 {
		return fmt.Errorf("optimize: -space needs exactly one -policy")
	}
	trace, err := loadOptimizeTrace(*repoDir, *name, *in)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	opts := optimize.Options{
		Config:  cfg,
		Load:    *load / 100,
		Weights: weights,
		Workers: *workers,
	}

	var rows []optimize.TableRow
	ledgers := map[string]optimize.RecordedRun{}
	for _, policy := range list {
		policy = strings.TrimSpace(policy)
		space, err := optimize.DefaultSpace(policy)
		if err != nil {
			return err
		}
		if *spaceSpec != "" {
			if space, err = parseSpace(policy, *spaceSpec); err != nil {
				return err
			}
		}
		var res *optimize.SearchResult
		if *driver == "evolve" {
			res, err = optimize.Evolve(context.Background(), space, trace, optimize.EvolveOptions{
				Options:     opts,
				Generations: *generations,
				Population:  *population,
				Seed:        *evolveSeed,
			})
		} else {
			res, err = optimize.Grid(context.Background(), space, trace, opts)
		}
		if err != nil {
			return err
		}
		baseline, err := optimize.Baseline(opts, policy, trace)
		if err != nil {
			return err
		}
		ev, decisions, err := optimize.Record(opts, res.Best.Point, trace)
		if err != nil {
			return err
		}
		ledgers[policy] = optimize.RecordedRun{
			Header: optimize.LedgerHeader{
				Policy: res.Best.Point.Policy,
				Params: res.Best.Point.Params,
				Load:   opts.Load,
				Seed:   cfg.Seed,
			},
			Eval:      ev,
			Decisions: decisions,
		}
		rows = append(rows, optimize.TableRow{
			Policy: policy, Baseline: baseline, Best: res.Best,
			Driver: *driver, Cells: res.Cells,
		})
		verdict := "beats"
		if res.Best.Fitness <= baseline.Fitness {
			verdict = "does not beat"
		}
		fmt.Fprintf(out, "%s: winner `%s` fitness %.4f %s paper default %.4f (%d cells, %d decisions)\n",
			policy, res.Best.Point, res.Best.Fitness, verdict, baseline.Fitness, res.Cells, len(decisions))
	}

	fmt.Fprintln(out)
	optimize.RenderTable(out, rows)

	if *ledgerDir != "" {
		if err := writeOptimizeLedgers(*ledgerDir, rows, ledgers); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nledgers written to %s (replay one with: tracer whatif -ledger %s)\n",
			*ledgerDir, filepath.Join(*ledgerDir, rows[0].Policy+"-decisions.jsonl"))
	}
	if *telemetryDir != "" {
		set := telemetry.New(telemetry.Options{})
		for policy, run := range ledgers {
			run := run
			set.AddArtifact(policy+"-decisions.jsonl", func(w io.Writer) error {
				return optimize.WriteLedger(w, run.Header, run.Decisions)
			})
		}
		set.AddArtifact("optimize-table.md", func(w io.Writer) error {
			optimize.RenderTable(w, rows)
			return nil
		})
		if err := set.WriteDir(*telemetryDir); err != nil {
			return err
		}
		fmt.Fprintf(out, "telemetry artifacts written to %s\n", *telemetryDir)
	}
	return nil
}

// writeOptimizeLedgers exports one decision ledger per policy plus the
// LEDGER.md comparison table.
func writeOptimizeLedgers(dir string, rows []optimize.TableRow, ledgers map[string]optimize.RecordedRun) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	policies := make([]string, 0, len(ledgers))
	for p := range ledgers {
		policies = append(policies, p)
	}
	sort.Strings(policies)
	for _, p := range policies {
		run := ledgers[p]
		f, err := os.Create(filepath.Join(dir, p+"-decisions.jsonl"))
		if err != nil {
			return err
		}
		err = optimize.WriteLedger(f, run.Header, run.Decisions)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(dir, "LEDGER.md"))
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "# Policy search vs paper defaults")
	fmt.Fprintln(f)
	optimize.RenderTable(f, rows)
	return f.Close()
}

// cmdWhatIf counterfactually replays one recorded policy decision: the
// ledgered run is replayed once as recorded and once with the chosen
// decision vetoed, and the energy/latency/fitness deltas are reported.
func cmdWhatIf(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("whatif", flag.ContinueOnError)
	ledgerPath := fs.String("ledger", "", "decision ledger (JSONL) written by tracer optimize")
	decision := fs.Int64("decision", -1, "sequence number of the decision to replay counterfactually")
	listOnly := fs.Bool("list", false, "list replayable decisions instead of replaying one")
	repoDir := fs.String("repo", "traces", "trace repository directory")
	name := fs.String("trace", "", "trace file name within the repository")
	in := fs.String("in", "", "trace the ledger was recorded against (default: committed idle-web golden fixture)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ledgerPath == "" {
		return fmt.Errorf("whatif: -ledger is required")
	}
	f, err := os.Open(*ledgerPath)
	if err != nil {
		return err
	}
	h, decisions, err := optimize.ReadLedger(f)
	f.Close()
	if err != nil {
		return err
	}
	if *listOnly {
		replayable := optimize.ReplayableDecisions(decisions)
		fmt.Fprintf(out, "ledger %s: %s, %d decisions (%d replayable)\n",
			*ledgerPath, h.Point(), len(decisions), len(replayable))
		fmt.Fprintln(out, "seq\tat(s)\tkind\tdisk\tidle(s)")
		for _, d := range replayable {
			fmt.Fprintf(out, "%d\t%.3f\t%s\t%d\t%.3f\n",
				d.Seq, float64(d.At)/1e9, d.Kind, d.Disk, float64(d.IdleNs)/1e9)
		}
		return nil
	}
	if *decision < 0 {
		return fmt.Errorf("whatif: -decision is required (use -list to see candidates)")
	}
	trace, err := loadOptimizeTrace(*repoDir, *name, *in)
	if err != nil {
		return err
	}
	w, err := optimize.Counterfactual(optimize.Options{Config: experiments.DefaultConfig()}, h, decisions, *decision, trace)
	if err != nil {
		return err
	}
	d := w.Decision
	fmt.Fprintf(out, "decision %d: %s %s disk %d at %.3fs\n", d.Seq, d.Policy, d.Kind, d.Disk, float64(d.At)/1e9)
	fmt.Fprintf(out, "baseline:       %.1f J, %.2f W, p99 %.2f ms, fitness %.4f, %d spin-ups\n",
		w.Baseline.EnergyJ, w.Baseline.MeanWatts, w.Baseline.P99Ms, w.Baseline.Fitness, w.Baseline.SpinUps)
	fmt.Fprintf(out, "counterfactual: %.1f J, %.2f W, p99 %.2f ms, fitness %.4f, %d spin-ups\n",
		w.Counterfactual.EnergyJ, w.Counterfactual.MeanWatts, w.Counterfactual.P99Ms, w.Counterfactual.Fitness, w.Counterfactual.SpinUps)
	fmt.Fprintf(out, "delta (counterfactual - baseline): energy %+.1f J, p99 %+.2f ms, fitness %+.4f\n",
		w.DeltaEnergyJ, w.DeltaP99Ms, w.DeltaFitness)
	switch {
	case w.DeltaEnergyJ > 0 && w.DeltaP99Ms <= 0:
		fmt.Fprintln(out, "verdict: the decision was saving energy at no latency cost")
	case w.DeltaEnergyJ > 0:
		fmt.Fprintln(out, "verdict: the decision traded latency for energy savings")
	case w.DeltaEnergyJ < 0:
		fmt.Fprintln(out, "verdict: the decision cost energy (idle gap below break-even)")
	default:
		fmt.Fprintln(out, "verdict: the decision had no measurable energy effect")
	}
	return nil
}
