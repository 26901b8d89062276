// Command tracer-bench regenerates the paper's tables and figures on
// the simulated testbed and prints them in the layout the paper uses.
//
// Usage:
//
//	tracer-bench [-run all|fig7|fig8|fig9|fig10|fig11|fig12|tableIII|tableIV|tableV|ssd|ablations|conserve|thermal|degraded|scheduler|eraid|sweep|workload]
//	             [-duration D] [-outdir DIR] [-workers N] [-trace FILE.replay] [-telemetry-dir DIR]
//
// Independent simulation cells (one fresh engine + array per cell) fan
// out across -workers goroutines; results are deterministic at any
// worker count.  -workers 0 uses all cores, -workers 1 runs the old
// sequential path.
//
// With -outdir, each experiment also lands in its own .txt file so the
// run is diffable against EXPERIMENTS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/parsweep"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracer-bench:", err)
		os.Exit(1)
	}
}

type experiment struct {
	name string
	fn   func(experiments.Config, io.Writer) error
}

// table of regenerators, one per paper artifact.
var table = []experiment{
	{"fig7", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Fig7(cfg, 6)
		if err != nil {
			return err
		}
		experiments.RenderFig7(w, r)
		return nil
	}},
	{"fig8", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Fig8(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig8(w, r)
		return nil
	}},
	{"fig9", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Fig9(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig9(w, r)
		return nil
	}},
	{"fig10", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Fig10(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig10(w, r)
		return nil
	}},
	{"fig11", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Fig11(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig11(w, r)
		return nil
	}},
	{"fig12", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.Fig12(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig12(w, r)
		return nil
	}},
	{"tableIII", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.TableIII(cfg)
		if err != nil {
			return err
		}
		experiments.RenderTableIII(w, r)
		return nil
	}},
	{"tableIV", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.TableIV(cfg)
		if err != nil {
			return err
		}
		experiments.RenderAccuracyTable(w, r)
		return nil
	}},
	{"tableV", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.TableV(cfg)
		if err != nil {
			return err
		}
		experiments.RenderAccuracyTable(w, r)
		return nil
	}},
	{"ssd", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.SSDStudy(cfg)
		if err != nil {
			return err
		}
		experiments.RenderSSDStudy(w, r)
		return nil
	}},
	{"ablations", func(cfg experiments.Config, w io.Writer) error {
		fc, err := experiments.CompareFilters(cfg, 0.2)
		if err != nil {
			return err
		}
		experiments.RenderFilterComparison(w, fc)
		gs, err := experiments.GroupSizeSweep(cfg)
		if err != nil {
			return err
		}
		experiments.RenderGroupSizeSweep(w, gs)
		sc, err := experiments.CompareScaler(cfg, 0.5)
		if err != nil {
			return err
		}
		experiments.RenderScalerComparison(w, sc)
		wp, err := experiments.WritePathStudy(cfg)
		if err != nil {
			return err
		}
		experiments.RenderWritePathStudy(w, wp)
		return nil
	}},
	{"conserve", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.ConservationStudy(cfg)
		if err != nil {
			return err
		}
		experiments.RenderConservationStudy(w, r)
		return nil
	}},
	{"thermal", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.ThermalStudy(cfg)
		if err != nil {
			return err
		}
		experiments.RenderThermalStudy(w, r)
		return nil
	}},
	{"degraded", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.DegradedStudy(cfg)
		if err != nil {
			return err
		}
		experiments.RenderDegradedStudy(w, r)
		return nil
	}},
	{"scheduler", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.SchedulerStudy(cfg)
		if err != nil {
			return err
		}
		experiments.RenderSchedulerStudy(w, r)
		return nil
	}},
	{"eraid", func(cfg experiments.Config, w io.Writer) error {
		r, err := experiments.ERAIDStudy(cfg)
		if err != nil {
			return err
		}
		experiments.RenderERAIDStudy(w, r)
		return nil
	}},
	{"sweep", runSweep},
	{"workload", benchWorkload},
}

// benchWorkload exercises the characterization pipeline: wall-clock
// analyze/synthesize throughput on a web-server-like trace, then the
// full perturbation study in the paper's LP/A table form.  The
// throughput lines are wall-clock measurements, so the experiment only
// runs on explicit request.
func benchWorkload(cfg experiments.Config, w io.Writer) error {
	wp := synth.DefaultWebServer()
	wp.Seed = cfg.Seed
	wp.Duration = 10 * cfg.CollectDuration
	src := synth.WebServerTrace(wp)
	st := blktrace.ComputeStats(src)

	start := time.Now()
	profile, err := workload.Analyze(src, "web")
	if err != nil {
		return err
	}
	analyzeS := time.Since(start).Seconds()
	start = time.Now()
	if _, err := workload.Synthesize(profile, workload.SynthOptions{Seed: cfg.Seed, ReadRatio: -1}); err != nil {
		return err
	}
	synthS := time.Since(start).Seconds()
	fmt.Fprintf(w, "analyze    %d IOs in %.4fs (%.0f IOs/s)\n",
		st.IOs, analyzeS, float64(st.IOs)/math.Max(analyzeS, 1e-9))
	fmt.Fprintf(w, "synthesize %d IOs in %.4fs (%.0f IOs/s)\n",
		profile.IOs, synthS, float64(profile.IOs)/math.Max(synthS, 1e-9))

	res, err := experiments.WorkloadStudy(cfg)
	if err != nil {
		return err
	}
	experiments.RenderWorkloadStudy(w, res)
	return nil
}

// sweepTrace optionally replaces the synthetic mode grid with one
// trace file loaded from disk (-trace flag).
var sweepTrace string

// runSweep is the scaled 125-trace sweep of Section VI step 1: by
// default it samples a 3x3x3 mode grid at 4 load levels; -duration and
// editing the grid scale it up to the paper's full 1250 runs.  With
// -trace FILE the grid is replaced by that one .replay trace, measured
// at the same load levels.
//
// The sweep runs in two parallel phases: every mode's peak trace is
// collected first, then the whole (trace, load) grid is flattened into
// one cell list and fanned across the worker pool.  Output order is
// identical to the old nested sequential loops.
func runSweep(cfg experiments.Config, w io.Writer) error {
	if sweepTrace != "" {
		return runTraceSweep(cfg, sweepTrace, w)
	}
	sizes := []int64{4 << 10, 64 << 10, 1 << 20}
	ratios := []float64{0, 0.5, 1}
	loads := []float64{0.25, 0.5, 0.75, 1.0}
	var modes []synth.Mode
	for _, size := range sizes {
		for _, rd := range ratios {
			for _, rn := range ratios {
				modes = append(modes, synth.Mode{RequestBytes: size, ReadRatio: rd, RandomRatio: rn})
			}
		}
	}
	opts := parsweep.Options{Workers: cfg.Workers}
	opts.Label = func(i int) string { return fmt.Sprintf("collect %s", modes[i]) }
	traces, err := parsweep.Map(context.Background(), opts, len(modes),
		func(i int) (*blktrace.Trace, error) {
			return experiments.CollectModeTrace(cfg, experiments.HDDArray, modes[i])
		})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}

	nLoads := len(loads)
	opts.Label = func(i int) string { return fmt.Sprintf("%s load %v", modes[i/nLoads], loads[i%nLoads]) }
	cells, err := parsweep.Map(context.Background(), opts, len(modes)*nLoads,
		func(i int) (*experiments.Measurement, error) {
			return measureAtLoad(cfg, traces[i/nLoads], loads[i%nLoads], nil)
		})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}

	fmt.Fprintln(w, "mode\tload%\tIOPS\tMBPS\twatts\tIOPS/W\tMBPS/kW")
	for i, m := range cells {
		fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.3f\t%.1f\t%.3f\t%.2f\n",
			modes[i/nLoads], m.Load*100, m.Result.IOPS, m.Result.MBPS, m.Power,
			m.Eff.IOPSPerWatt, m.Eff.MBPSPerKW)
	}
	fmt.Fprintf(w, "%d runs (paper's full grid: 125 modes x 10 loads = 1250)\n", len(cells))
	return nil
}

// measureAtLoad measures trace at one load on a fresh HDD array,
// instrumented into set when it is non-nil.
func measureAtLoad(cfg experiments.Config, trace *blktrace.Trace, load float64, set *telemetry.Set) (*experiments.Measurement, error) {
	s, err := experiments.Build(cfg, experiments.StackSpec{Kind: experiments.HDDArray})
	if err != nil {
		return nil, err
	}
	return experiments.Measure(s, trace, replay.UniformFilter{Proportion: load}, set)
}

// telemetryDir optionally exports per-load telemetry artifact
// directories from the trace sweep (-telemetry-dir flag).
var telemetryDir string

// runTraceSweep measures one on-disk .replay trace at the sweep's load
// levels.  A truncated or corrupt file surfaces as a labelled error
// (non-zero exit), never a panic.  With -telemetry-dir every load level
// replays fully instrumented and lands in its own load<pct>/ subdir.
func runTraceSweep(cfg experiments.Config, path string, w io.Writer) error {
	tr, err := blktrace.ReadFile(path)
	if err != nil {
		return fmt.Errorf("sweep: load trace %s: %w", path, err)
	}
	loads := []float64{0.25, 0.5, 0.75, 1.0}
	opts := parsweep.Options{Workers: cfg.Workers}
	opts.Label = func(i int) string { return fmt.Sprintf("%s load %v", filepath.Base(path), loads[i]) }
	// Each cell owns its telemetry Set, so the fan-out stays race-free;
	// directories are written sequentially after the barrier.
	type sweepCell struct {
		m   *experiments.Measurement
		set *telemetry.Set
	}
	cells, err := parsweep.Map(context.Background(), opts, len(loads),
		func(i int) (sweepCell, error) {
			var set *telemetry.Set
			if telemetryDir != "" {
				set = telemetry.New(telemetry.Options{})
			}
			m, err := measureAtLoad(cfg, tr, loads[i], set)
			return sweepCell{m: m, set: set}, err
		})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	fmt.Fprintln(w, "trace\tload%\tIOPS\tMBPS\twatts\tIOPS/W\tMBPS/kW")
	for _, c := range cells {
		m := c.m
		fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.3f\t%.1f\t%.3f\t%.2f\n",
			filepath.Base(path), m.Load*100, m.Result.IOPS, m.Result.MBPS, m.Power,
			m.Eff.IOPSPerWatt, m.Eff.MBPSPerKW)
	}
	for i, c := range cells {
		if c.set == nil {
			continue
		}
		dir := filepath.Join(telemetryDir, fmt.Sprintf("load%03.0f", loads[i]*100))
		if err := c.set.WriteDir(dir); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		fmt.Fprintf(w, "telemetry: %s\n", dir)
	}
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracer-bench", flag.ContinueOnError)
	names := fs.String("run", "all", "comma-separated experiment names or 'all'")
	duration := fs.Duration("duration", 2*time.Second, "per-trace collection duration (virtual time)")
	outdir := fs.String("outdir", "", "also write one .txt per experiment into this directory")
	workers := fs.Int("workers", 0, "parallel simulation cells (0 = all cores, 1 = sequential)")
	list := fs.Bool("list", false, "list experiment names and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	traceFile := fs.String("trace", "", "sweep experiment: replay this .replay trace instead of the synthetic grid")
	telDir := fs.String("telemetry-dir", "", "sweep experiment: export per-load telemetry artifacts under this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sweepTrace = *traceFile
	telemetryDir = *telDir
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tracer-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tracer-bench: memprofile:", err)
			}
		}()
	}
	if *list {
		for _, e := range table {
			fmt.Fprintln(out, e.name)
		}
		return nil
	}
	cfg := experiments.DefaultConfig()
	cfg.CollectDuration = simtime.FromStd(*duration)
	cfg.Workers = *workers

	want := map[string]bool{}
	all := *names == "all"
	for _, n := range strings.Split(*names, ",") {
		want[strings.TrimSpace(n)] = true
	}
	ran := 0
	var failures []error
	var failedNames []string
	for _, e := range table {
		if !all && !want[e.name] {
			continue
		}
		// "sweep" is heavyweight and "workload" prints wall-clock
		// measurements (nondeterministic output): only on explicit
		// request.
		if all && (e.name == "sweep" || e.name == "workload") {
			continue
		}
		start := time.Now()
		var sink io.Writer = out
		var file *os.File
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				return err
			}
			var err error
			file, err = os.Create(filepath.Join(*outdir, e.name+".txt"))
			if err != nil {
				return err
			}
			sink = io.MultiWriter(out, file)
		}
		fmt.Fprintf(out, "=== %s ===\n", e.name)
		ran++
		// A failing experiment no longer aborts the table: the rest
		// still regenerate, and the joined summary error below keeps
		// the exit non-zero (wrapping each cause for errors.Is).
		if err := e.fn(cfg, sink); err != nil {
			if file != nil {
				file.Close()
			}
			fmt.Fprintf(out, "FAIL %s: %v\n\n", e.name, err)
			failures = append(failures, fmt.Errorf("%s: %w", e.name, err))
			failedNames = append(failedNames, e.name)
			continue
		}
		if file != nil {
			if err := file.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "(%s in %.1fs)\n\n", e.name, time.Since(start).Seconds())
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q (use -list)", *names)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d of %d experiments failed (%s): %w",
			len(failures), ran, strings.Join(failedNames, ", "), errors.Join(failures...))
	}
	return nil
}
