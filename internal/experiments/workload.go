package experiments

import (
	"fmt"
	"io"

	"repro/internal/blktrace"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/workload"
)

// WorkloadVariant is one perturbation of a profiled workload.
type WorkloadVariant struct {
	// Label names the variant in the rendered table.
	Label string
	// LoadScale multiplies the arrival rate (1 = reproduce).
	LoadScale float64
	// ReadRatio overrides the mix when in [0,1]; negative keeps the
	// profile's mix.
	ReadRatio float64
}

// DefaultWorkloadVariants is the perturbation family the study
// measures: faithful reproduction, load halving/boosting, and mix
// inversion in both directions.
func DefaultWorkloadVariants() []WorkloadVariant {
	return []WorkloadVariant{
		{Label: "reproduce", LoadScale: 1, ReadRatio: -1},
		{Label: "load-50%", LoadScale: 0.5, ReadRatio: -1},
		{Label: "load-150%", LoadScale: 1.5, ReadRatio: -1},
		{Label: "read-90%", LoadScale: 1, ReadRatio: 0.9},
		{Label: "read-10%", LoadScale: 1, ReadRatio: 0.1},
	}
}

// WorkloadRow is one variant's measured outcome in the paper's LP/A
// form: the synthetic trace's IOPS relative to the original replay,
// judged against the configured proportion (the load scale).
type WorkloadRow struct {
	Variant      WorkloadVariant
	IOPS         float64
	MBPS         float64
	Eff          metrics.Efficiency
	MeasuredLP   float64
	ConfiguredLP float64
	Accuracy     float64
	ErrRate      float64
}

// WorkloadStudyResult bundles the study: the source trace's profile and
// replay baseline plus one row per synthesized variant.
type WorkloadStudyResult struct {
	Source  string
	Profile *workload.Profile
	// Baseline is the original trace's replay on the HDD array.
	Baseline Measurement
	Rows     []WorkloadRow
}

// WorkloadStudy exercises the characterization→synthesis loop end to
// end: synthesize a web-server-like source trace, profile it, generate
// the variant family, and replay everything on the golden HDD array.
// Variant cells fan across the worker pool.
func WorkloadStudy(cfg Config) (*WorkloadStudyResult, error) {
	cfg = cfg.normalize()
	wp := synth.DefaultWebServer()
	wp.Seed = cfg.Seed
	wp.Duration = 10 * cfg.CollectDuration
	// Keep the offered rate well under the HDD array's random-read
	// capacity so the boosted variant measures load proportion, not
	// saturation.
	wp.MeanIOPS = 200
	source := synth.WebServerTrace(wp)

	profile, err := workload.Analyze(source, "web")
	if err != nil {
		return nil, err
	}
	variants := DefaultWorkloadVariants()
	traces := make([]*blktrace.Trace, len(variants))
	for i, v := range variants {
		traces[i], err = workload.Synthesize(profile, workload.SynthOptions{
			Seed:      cfg.Seed,
			LoadScale: v.LoadScale,
			ReadRatio: v.ReadRatio,
		})
		if err != nil {
			return nil, fmt.Errorf("workload study: variant %s: %w", v.Label, err)
		}
	}

	// Cell 0 is the original trace's baseline replay; cells 1..n are
	// the variants.
	cells, err := pmap(cfg, len(variants)+1,
		func(i int) string {
			if i == 0 {
				return "workload baseline"
			}
			return "workload " + variants[i-1].Label
		},
		func(i int) (Measurement, error) {
			tr := source
			if i > 0 {
				tr = traces[i-1]
			}
			m, err := measureAtLoad(cfg, HDDArray, tr, 1.0)
			if err != nil {
				return Measurement{}, err
			}
			return *m, nil
		})
	if err != nil {
		return nil, err
	}

	out := &WorkloadStudyResult{Source: source.Device, Profile: profile, Baseline: cells[0]}
	for i, v := range variants {
		m := cells[i+1]
		lp := metrics.LoadProportion(out.Baseline.Result.IOPS, m.Result.IOPS)
		acc := metrics.Accuracy(lp, v.LoadScale)
		out.Rows = append(out.Rows, WorkloadRow{
			Variant:      v,
			IOPS:         m.Result.IOPS,
			MBPS:         m.Result.MBPS,
			Eff:          m.Eff,
			MeasuredLP:   lp,
			ConfiguredLP: v.LoadScale,
			Accuracy:     acc,
			ErrRate:      metrics.ErrorRate(acc),
		})
	}
	return out, nil
}

// RenderWorkloadStudy prints the study the way the paper's accuracy
// tables read.
func RenderWorkloadStudy(w io.Writer, r *WorkloadStudyResult) {
	fmt.Fprintf(w, "workload characterization study — source %s (%d bunches, %d IOs, seq %.0f%%, zipf %.2f)\n",
		r.Source, r.Profile.Bunches, r.Profile.IOs, r.Profile.Spatial.SeqRatio*100, r.Profile.Spatial.ZipfTheta)
	fmt.Fprintf(w, "baseline\t%.1f IOPS\t%.3f MBPS\t%.1f W\t%.3f IOPS/W\n",
		r.Baseline.Result.IOPS, r.Baseline.Result.MBPS, r.Baseline.Power.Watts, r.Baseline.Eff.IOPSPerWatt)
	fmt.Fprintln(w, "variant\tIOPS\tMBPS\tIOPS/W\tLP\tLP_config\tA\terr%")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%.1f\t%.3f\t%.3f\t%.3f\t%.2f\t%.3f\t%.2f\n",
			row.Variant.Label, row.IOPS, row.MBPS, row.Eff.IOPSPerWatt,
			row.MeasuredLP, row.ConfiguredLP, row.Accuracy, row.ErrRate*100)
	}
}
