package experiments

import (
	"fmt"
	"io"

	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/synth"
	"repro/internal/thermal"
)

// ThermalRow is one load level's temperature outcome.
type ThermalRow struct {
	Load float64
	// MeanWatts is array wall power over the run (context).
	MeanWatts float64
	// HottestC is the hottest member disk's final temperature.
	HottestC float64
	// MeanC is the average member temperature at the end of the run.
	MeanC float64
	// SteadyHottestC extrapolates the hottest member to steady state
	// at its mean power — what a long run would settle at.
	SteadyHottestC float64
}

// ThermalResult is the temperature-vs-load study.
type ThermalResult struct {
	// Ambient is the modelled inlet temperature.
	Ambient float64
	Rows    []ThermalRow
}

// ThermalStudy implements the paper's first future-work item: add
// temperature as an evaluation metric.  The 4 KB random workload is
// replayed at each load proportion and every member disk's RC thermal
// model integrates its power timeline.  Because experiment workloads
// are scaled from the paper's minutes to seconds of virtual time, the
// thermal time constant is scaled proportionally (tau = duration/4) so
// the transient is visible; SteadyHottestC reports the unscaled
// long-run settling temperature.
func ThermalStudy(cfg Config) (*ThermalResult, error) {
	cfg = cfg.normalize()
	mode := synth.Mode{RequestBytes: 4096, ReadRatio: 0.5, RandomRatio: 1}
	trace, err := collectTrace(cfg, HDDArray, mode)
	if err != nil {
		return nil, err
	}
	model := thermal.HDDModel()
	rows, err := pmap(cfg, len(cfg.Loads),
		func(i int) string { return fmt.Sprintf("load %v", cfg.Loads[i]) },
		func(i int) (ThermalRow, error) {
			load := cfg.Loads[i]
			s, err := Build(cfg, StackSpec{Kind: HDDArray})
			if err != nil {
				return ThermalRow{}, err
			}
			array := s.Array
			r, err := replay.ReplayFiltered(s.Engine, array, trace, replay.UniformFilter{Proportion: load}, replay.Options{})
			if err != nil {
				return ThermalRow{}, err
			}
			m := model
			if tau := r.Duration() / 4; tau > 0 && tau < m.Tau {
				m.Tau = tau
			}
			row := ThermalRow{Load: load, MeanWatts: array.PowerSource().MeanWatts(r.Start, r.End)}
			var sum float64
			for _, disk := range array.Disks() {
				tl := disk.Timeline()
				temp, err := m.At(tl, r.End)
				if err != nil {
					return ThermalRow{}, err
				}
				sum += temp
				if temp > row.HottestC {
					row.HottestC = temp
					row.SteadyHottestC = model.SteadyStateC(tl.MeanWatts(r.Start, r.End))
				}
			}
			row.MeanC = sum / float64(len(array.Disks()))
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	return &ThermalResult{Ambient: model.AmbientC, Rows: rows}, nil
}

// RenderThermalStudy prints the sweep.
func RenderThermalStudy(w io.Writer, r *ThermalResult) {
	fmt.Fprintf(w, "Temperature vs load (future-work metric; ambient %.0f C)\n", r.Ambient)
	fmt.Fprintln(w, "load%\tarray-W\thottest-disk(C)\tmean-disk(C)\tsteady-hottest(C)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%.0f\t%.1f\t%.2f\t%.2f\t%.2f\n",
			row.Load*100, row.MeanWatts, row.HottestC, row.MeanC, row.SteadyHottestC)
	}
}

var _ = simtime.Second // referenced by companion files
