package experiments

import (
	"fmt"
	"io"

	"repro/internal/conserve"
	"repro/internal/replay"
)

// ConservationRow is one (technique, load) measurement: the columns
// the surveyed systems in the paper's Table I report — response time,
// energy savings, throughput.
type ConservationRow struct {
	Technique string
	Load      float64
	// EnergyJ and MeanWatts are over the replay window.
	EnergyJ, MeanWatts float64
	// SavingsPct is energy saved relative to the always-on baseline at
	// the same load.
	SavingsPct float64
	// MeanResponseMs and MaxResponseMs expose the latency cost of
	// spin-ups.
	MeanResponseMs, MaxResponseMs float64
	// IOPS confirms all techniques served the same workload.
	IOPS float64
}

// ConservationResult is the full comparison.
type ConservationResult struct {
	Rows []ConservationRow
	// CacheHitRate is MAID's read hit rate at full load.
	CacheHitRate float64
}

// ConservationStudy applies TRACER to compare energy-conservation
// techniques (the paper's motivating use case and Section VII's future
// work): a sparse web-server-like workload is replayed at several load
// proportions against an always-on JBOD, a TPM (timeout spin-down)
// JBOD, and a MAID, all with identical block placement.
func ConservationStudy(cfg Config) (*ConservationResult, error) {
	cfg = cfg.normalize()
	// A sparse archival-style workload over ten virtual minutes: real
	// idle gaps, and a hot working set small enough that MAID's cache
	// absorbs essentially all reads once warm.  This is the regime the
	// surveyed techniques (Table I) target.
	trace := ConservationTrace(cfg.Seed)

	// Flatten technique x load into one parallel cell list; energy
	// savings relative to the always-on baseline are derived in a
	// sequential post-pass so the parallel cells stay independent.
	techniques := []string{"always-on", "tpm", "drpm", "pdc", "maid"}
	loads := []float64{0.1, 0.5, 1.0}
	nLoads := len(loads)
	type cell struct {
		row     ConservationRow
		hitRate float64
		hasHit  bool
	}
	cells, err := pmap(cfg, len(techniques)*nLoads,
		func(i int) string { return fmt.Sprintf("%s load %v", techniques[i/nLoads], loads[i%nLoads]) },
		func(i int) (cell, error) {
			technique, load := techniques[i/nLoads], loads[i%nLoads]
			s, err := Build(cfg, StackSpec{Conserve: conserve.Spec{Technique: technique}})
			if err != nil {
				return cell{}, err
			}
			m, err := Measure(s, trace, replay.UniformFilter{Proportion: load}, nil)
			if err != nil {
				return cell{}, err
			}
			r := m.Result
			c := cell{row: ConservationRow{
				Technique:      technique,
				Load:           load,
				EnergyJ:        m.Eff.EnergyJ,
				MeanWatts:      m.Power.Watts,
				MeanResponseMs: r.MeanResponse.Seconds() * 1000,
				MaxResponseMs:  r.MaxResponse.Seconds() * 1000,
				IOPS:           r.IOPS,
			}}
			if s.MAID != nil && load == 1.0 {
				st := s.MAID.Stats()
				if total := st.ReadHits + st.ReadMisses; total > 0 {
					c.hitRate = float64(st.ReadHits) / float64(total)
					c.hasHit = true
				}
			}
			return c, nil
		})
	if err != nil {
		return nil, err
	}

	res := &ConservationResult{}
	baseline := map[float64]float64{}
	for _, c := range cells {
		row := c.row
		if row.Technique == "always-on" {
			baseline[row.Load] = row.EnergyJ
		} else if b := baseline[row.Load]; b > 0 {
			row.SavingsPct = (1 - row.EnergyJ/b) * 100
		}
		res.Rows = append(res.Rows, row)
		if c.hasHit {
			res.CacheHitRate = c.hitRate
		}
	}
	return res, nil
}

// RenderConservationStudy prints the comparison.
func RenderConservationStudy(w io.Writer, r *ConservationResult) {
	fmt.Fprintln(w, "TRACER applied to energy-conservation techniques (sparse web workload)")
	fmt.Fprintln(w, "technique\tload%\tenergy(J)\twatts\tsavings%\tmean-resp(ms)\tmax-resp(ms)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.1f\t%.1f\t%.2f\t%.0f\n",
			row.Technique, row.Load*100, row.EnergyJ, row.MeanWatts,
			row.SavingsPct, row.MeanResponseMs, row.MaxResponseMs)
	}
	fmt.Fprintf(w, "MAID read cache hit rate at full load: %.1f%%\n", r.CacheHitRate*100)
}
