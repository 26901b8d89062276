package experiments

import (
	"fmt"
	"io"

	"repro/internal/conserve"
	"repro/internal/powersim"
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
			engine := simtime.NewEngine()
			var src powersim.Source
			var c cell
			var r *replay.Result
			if config == "always-on" {
				e2, array, err := NewSystem(cfg, HDDArray)
				if err != nil {
					return cell{}, err
				}
				engine = e2
				src = array.PowerSource()
				if r, err = replay.ReplayAtLoad(engine, array, trace, 1.0, replay.Options{}); err != nil {
					return cell{}, err
				}
			} else {
				arr, err := conserve.NewERAIDArray(engine, conserve.DefaultERAIDParams())
				if err != nil {
					return cell{}, err
				}
				src = arr.PowerSource()
				if r, err = replay.ReplayAtLoad(engine, arr, trace, 1.0, replay.Options{}); err != nil {
					return cell{}, err
				}
				c.reconstructReads = arr.Array().Stats().ReconstructReads
				c.offlines = arr.Stats().Offlines
			}
			meter := powersim.DefaultMeter(src)
			meter.Seed = cfg.Seed
			samples := meter.Measure(r.Start, r.End)
			c.row = ERAIDRow{
				Config:         config,
				EnergyJ:        powersim.EnergyJ(samples),
				MeanWatts:      powersim.MeanWatts(samples),
				MeanResponseMs: r.MeanResponse.Seconds() * 1000,
				P99Ms:          r.P99Response.Seconds() * 1000,
				IOPS:           r.IOPS,
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
