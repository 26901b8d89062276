package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/synth"
)

// Artifact is one regenerable artifact of the paper's evaluation: a
// name and the function that runs its experiment and renders the
// result in the paper's layout.
type Artifact struct {
	Name   string
	Render func(cfg Config, w io.Writer) error
}

// artifact pairs an experiment with its renderer.
func artifact[R any](name string, run func(Config) (R, error), render func(io.Writer, R)) Artifact {
	return Artifact{Name: name, Render: func(cfg Config, w io.Writer) error {
		r, err := run(cfg)
		if err != nil {
			return err
		}
		render(w, r)
		return nil
	}}
}

// Artifacts returns the paper's artifact table in print order: Figs.
// 7–12, Tables III–V, the VI-G SSD study, the ablations and extension
// studies, the scaled mode sweep and the workload characterization
// study.  Every entry's output is a pure function of the Config: it
// holds no wall-clock reading and is byte-identical at any worker
// count.
func Artifacts() []Artifact {
	return []Artifact{
		artifact("fig7", func(cfg Config) (*Fig7Result, error) { return Fig7(cfg, 6) }, RenderFig7),
		artifact("fig8", Fig8, RenderFig8),
		artifact("fig9", Fig9, RenderFig9),
		artifact("fig10", Fig10, RenderFig10),
		artifact("fig11", Fig11, RenderFig11),
		artifact("fig12", Fig12, RenderFig12),
		artifact("tableIII", TableIII, RenderTableIII),
		artifact("tableIV", TableIV, RenderAccuracyTable),
		artifact("tableV", TableV, RenderAccuracyTable),
		artifact("ssd", SSDStudy, RenderSSDStudy),
		{Name: "ablations", Render: renderAblations},
		artifact("conserve", ConservationStudy, RenderConservationStudy),
		artifact("thermal", ThermalStudy, RenderThermalStudy),
		artifact("degraded", DegradedStudy, RenderDegradedStudy),
		artifact("scheduler", SchedulerStudy, RenderSchedulerStudy),
		artifact("eraid", ERAIDStudy, RenderERAIDStudy),
		artifact("sweep", Sweep, RenderSweep),
		artifact("workload", WorkloadStudy, RenderWorkloadStudy),
	}
}

// RenderArtifacts runs each artifact in order and writes its output
// between a "=== name ===" line and a blank line.  A failing artifact
// prints a FAIL line in its place and the rest still run; the returned
// error names every failure and wraps each cause.
func RenderArtifacts(w io.Writer, cfg Config, arts []Artifact) error {
	var failures []error
	var failed []string
	for _, a := range arts {
		fmt.Fprintf(w, "=== %s ===\n", a.Name)
		if err := a.Render(cfg, w); err != nil {
			fmt.Fprintf(w, "FAIL %s: %v\n", a.Name, err)
			failures = append(failures, fmt.Errorf("%s: %w", a.Name, err))
			failed = append(failed, a.Name)
		}
		fmt.Fprintln(w)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d of %d experiments failed (%s): %w",
			len(failures), len(arts), strings.Join(failed, ", "), errors.Join(failures...))
	}
	return nil
}

// renderAblations runs the four ablation studies DESIGN.md calls out:
// filter choice, group size, filter versus scaler, and write paths.
func renderAblations(cfg Config, w io.Writer) error {
	fc, err := CompareFilters(cfg, 0.2)
	if err != nil {
		return err
	}
	RenderFilterComparison(w, fc)
	gs, err := GroupSizeSweep(cfg)
	if err != nil {
		return err
	}
	RenderGroupSizeSweep(w, gs)
	sc, err := CompareScaler(cfg, 0.5)
	if err != nil {
		return err
	}
	RenderScalerComparison(w, sc)
	wp, err := WritePathStudy(cfg)
	if err != nil {
		return err
	}
	RenderWritePathStudy(w, wp)
	return nil
}

// SweepResult is the scaled mode sweep: every mode's peak trace
// measured at every load level, mode-major.
type SweepResult struct {
	Modes []synth.Mode
	Loads []float64
	Cells []Measurement
}

// Sweep is the scaled 125-trace sweep of Section VI step 1: a 3x3x3
// grid of request size, read ratio and random ratio, each mode's peak
// trace collected on the HDD array and measured at 4 load levels.
// Longer -duration and a denser grid scale it up to the paper's full
// 1250 runs.  It runs in two parallel phases: every mode's trace is
// collected first, then the whole (trace, load) grid fans across the
// worker pool as one cell list.
func Sweep(cfg Config) (*SweepResult, error) {
	cfg = cfg.normalize()
	sizes := []int64{4 << 10, 64 << 10, 1 << 20}
	ratios := []float64{0, 0.5, 1}
	r := &SweepResult{Loads: []float64{0.25, 0.5, 0.75, 1.0}}
	for _, size := range sizes {
		for _, rd := range ratios {
			for _, rn := range ratios {
				r.Modes = append(r.Modes, synth.Mode{RequestBytes: size, ReadRatio: rd, RandomRatio: rn})
			}
		}
	}
	traces, err := pmap(cfg, len(r.Modes),
		func(i int) string { return fmt.Sprintf("collect %s", r.Modes[i]) },
		func(i int) (*blktrace.Trace, error) { return collectTrace(cfg, HDDArray, r.Modes[i]) })
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	nLoads := len(r.Loads)
	r.Cells, err = pmap(cfg, len(r.Modes)*nLoads,
		func(i int) string { return fmt.Sprintf("%s load %v", r.Modes[i/nLoads], r.Loads[i%nLoads]) },
		func(i int) (Measurement, error) {
			m, err := measureAtLoad(cfg, HDDArray, traces[i/nLoads], r.Loads[i%nLoads])
			if err != nil {
				return Measurement{}, err
			}
			return *m, nil
		})
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return r, nil
}

// RenderSweep prints one row per (mode, load) cell.
func RenderSweep(w io.Writer, r *SweepResult) {
	fmt.Fprintln(w, "mode\tload%\tIOPS\tMBPS\twatts\tIOPS/W\tMBPS/kW")
	for i, m := range r.Cells {
		fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.3f\t%.1f\t%.3f\t%.2f\n",
			r.Modes[i/len(r.Loads)], m.Load*100, m.Result.IOPS, m.Result.MBPS, m.Power.Watts,
			m.Eff.IOPSPerWatt, m.Eff.MBPSPerKW)
	}
	fmt.Fprintf(w, "%d runs (paper's full grid: 125 modes x 10 loads = 1250)\n", len(r.Cells))
}
