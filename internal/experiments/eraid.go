package experiments

import (
	"fmt"
	"io"

	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// ERAIDRow is one configuration's outcome under the sparse workload.
type ERAIDRow struct {
	Config string
	// EnergyJ, MeanWatts and SavingsPct mirror the conservation study.
	EnergyJ, MeanWatts, SavingsPct float64
	// MeanResponseMs and P99Ms expose the reconstruction cost.
	MeanResponseMs, P99Ms float64
	IOPS                  float64
}

// ERAIDResult compares an always-on RAID-5 with the eRAID policy.
type ERAIDResult struct {
	Rows []ERAIDRow
	// ReconstructReads counts eRAID reads served by XOR reconstruction.
	ReconstructReads int64
	// Offlines counts rest cycles the policy executed.
	Offlines int64
}

// ERAIDStudy evaluates redundancy-based power saving (eRAID, Table I):
// under a sparse workload the policy rests one RAID-5 member, serving
// its reads by reconstruction, and wakes it when load returns.
func ERAIDStudy(cfg Config) (*ERAIDResult, error) {
	cfg = cfg.normalize()
	wp := synth.DefaultWebServer()
	wp.Seed = cfg.Seed
	wp.Duration = 10 * simtime.Minute
	wp.MeanIOPS = 4
	wp.FootprintBytes = 1 << 30
	trace := synth.WebServerTrace(wp)

	// Both configurations replay in parallel cells; the eRAID cell also
	// carries back its reconstruction counters, and savings relative to
	// always-on are derived afterwards.
	configs := []string{"always-on", "eraid"}
	type cell struct {
		row                        ERAIDRow
		reconstructReads, offlines int64
	}
	cells, err := pmap(cfg, len(configs),
		func(i int) string { return configs[i] },
		func(i int) (cell, error) {
			config := configs[i]
			spec := StackSpec{Kind: HDDArray}
			if config == "eraid" {
				spec.Conserve.Technique = "eraid"
			}
			s, err := Build(cfg, spec)
			if err != nil {
				return cell{}, err
			}
			m, err := Measure(s, trace, replay.UniformFilter{Proportion: 1.0}, nil)
			if err != nil {
				return cell{}, err
			}
			r := m.Result
			c := cell{row: ERAIDRow{
				Config:         config,
				EnergyJ:        m.Eff.EnergyJ,
				MeanWatts:      m.Power.Watts,
				MeanResponseMs: r.MeanResponse.Seconds() * 1000,
				P99Ms:          r.P99Response.Seconds() * 1000,
				IOPS:           r.IOPS,
			}}
			if s.ERAID != nil {
				c.reconstructReads = s.ERAID.Array().Stats().ReconstructReads
				c.offlines = s.ERAID.Stats().Offlines
			}
			return c, nil
		})
	if err != nil {
		return nil, err
	}

	res := &ERAIDResult{}
	var baseJ float64
	for _, c := range cells {
		row := c.row
		if row.Config == "always-on" {
			baseJ = row.EnergyJ
		} else if baseJ > 0 {
			row.SavingsPct = (1 - row.EnergyJ/baseJ) * 100
		}
		if row.Config == "eraid" {
			res.ReconstructReads = c.reconstructReads
			res.Offlines = c.offlines
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RenderERAIDStudy prints the comparison.
func RenderERAIDStudy(w io.Writer, r *ERAIDResult) {
	fmt.Fprintln(w, "eRAID — redundancy-based power saving on RAID-5 (sparse workload)")
	fmt.Fprintln(w, "config\tenergy(J)\twatts\tsavings%\tmean-resp(ms)\tp99(ms)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.1f\t%.2f\t%.1f\n",
			row.Config, row.EnergyJ, row.MeanWatts, row.SavingsPct, row.MeanResponseMs, row.P99Ms)
	}
	fmt.Fprintf(w, "reconstruction reads: %d, rest cycles: %d\n", r.ReconstructReads, r.Offlines)
}
