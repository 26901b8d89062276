package experiments

import (
	"fmt"
	"io"

	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// SSDStudyResult reproduces Section VI-G: energy behaviour of the
// 4x Memoright SLC RAID-5 array versus the HDD array.
type SSDStudyResult struct {
	// IdleWatts is the SSD array's idle wall power; the paper measured
	// 195.8 W.
	IdleWatts float64
	// RandomSweep is efficiency vs random ratio (read 100%, 4KB):
	// high random ratio should depress efficiency, but far less than
	// on the HDD array.
	RandomSweep []Fig10Point
	// ReadSweep is efficiency vs read ratio (random 0%, 16KB).
	ReadSweep []Fig11Point
	// HDDvsSSD compares the two arrays on identical workload modes.
	HDDvsSSD []HDDvsSSDRow
}

// HDDvsSSDRow compares efficiency of the two arrays under one mode.
type HDDvsSSDRow struct {
	Mode synth.Mode
	HDD  Measurement
	SSD  Measurement
}

// SSDStudy runs the Section VI-G experiments.
func SSDStudy(cfg Config) (*SSDStudyResult, error) {
	cfg = cfg.normalize()
	res := &SSDStudyResult{}

	// Idle power.
	{
		s, err := Build(cfg, StackSpec{Kind: SSDArray})
		if err != nil {
			return nil, err
		}
		s.Engine.RunUntil(simtime.Time(10 * simtime.Second))
		res.IdleWatts = powersim.Read(s.PowerSource(), cfg.Seed, 0, s.Engine.Now()).Watts
	}

	// The random-ratio sweep, read-ratio sweep and HDD-vs-SSD
	// head-to-head are flattened into one (kind, mode) cell list; each
	// cell collects its own peak trace and replays it at 100% load.
	ratios := []float64{0, 0.25, 0.5, 0.75, 1.0}
	h2h := []synth.Mode{
		{RequestBytes: 4 << 10, ReadRatio: 1, RandomRatio: 1},
		{RequestBytes: 4 << 10, ReadRatio: 0, RandomRatio: 1},
		{RequestBytes: 64 << 10, ReadRatio: 0.5, RandomRatio: 0},
	}
	type spec struct {
		kind ArrayKind
		mode synth.Mode
	}
	var specs []spec
	// Write-heavy 256 KB requests expose the flash-level cost of
	// randomness (steady-state garbage collection); small random *reads*
	// actually gain from RAID striping parallelism, an artifact
	// discussed in EXPERIMENTS.md.
	for _, rnd := range ratios {
		specs = append(specs, spec{SSDArray, synth.Mode{RequestBytes: 256 << 10, ReadRatio: 0, RandomRatio: rnd}})
	}
	for _, rd := range ratios {
		specs = append(specs, spec{SSDArray, synth.Mode{RequestBytes: 16 << 10, ReadRatio: rd, RandomRatio: 0}})
	}
	for _, mode := range h2h {
		specs = append(specs, spec{HDDArray, mode}, spec{SSDArray, mode})
	}

	cells, err := pmap(cfg, len(specs),
		func(i int) string { return fmt.Sprintf("%s %s", specs[i].kind, specs[i].mode) },
		func(i int) (Measurement, error) {
			trace, err := collectTrace(cfg, specs[i].kind, specs[i].mode)
			if err != nil {
				return Measurement{}, err
			}
			m, err := measureAtLoad(cfg, specs[i].kind, trace, 1.0)
			if err != nil {
				return Measurement{}, err
			}
			return *m, nil
		})
	if err != nil {
		return nil, err
	}

	nR := len(ratios)
	for i, rnd := range ratios {
		res.RandomSweep = append(res.RandomSweep, Fig10Point{RandomRatio: rnd, Meas: cells[i]})
	}
	for i, rd := range ratios {
		res.ReadSweep = append(res.ReadSweep, Fig11Point{ReadRatio: rd, Meas: cells[nR+i]})
	}
	for i, mode := range h2h {
		res.HDDvsSSD = append(res.HDDvsSSD, HDDvsSSDRow{
			Mode: mode,
			HDD:  cells[2*nR+2*i],
			SSD:  cells[2*nR+2*i+1],
		})
	}
	return res, nil
}

// RenderSSDStudy prints the study.
func RenderSSDStudy(w io.Writer, r *SSDStudyResult) {
	fmt.Fprintln(w, "Section VI-G — SSD-based RAID-5")
	fmt.Fprintf(w, "idle power: %.1f W (paper: 195.8 W)\n", r.IdleWatts)
	fmt.Fprintln(w, "random%\tIOPS\tIOPS/Watt (256KB writes, load 100%)")
	for _, p := range r.RandomSweep {
		fmt.Fprintf(w, "%.0f\t%.0f\t%.3f\n", p.RandomRatio*100, p.Meas.Result.IOPS, p.Meas.Eff.IOPSPerWatt)
	}
	fmt.Fprintln(w, "read%\tMBPS\tMBPS/kW (16KB sequential, load 100%)")
	for _, p := range r.ReadSweep {
		fmt.Fprintf(w, "%.0f\t%.2f\t%.2f\n", p.ReadRatio*100, p.Meas.Result.MBPS, p.Meas.Eff.MBPSPerKW)
	}
	fmt.Fprintln(w, "HDD vs SSD (IOPS/Watt)")
	for _, row := range r.HDDvsSSD {
		fmt.Fprintf(w, "%s\tHDD %.3f\tSSD %.3f\t(x%.1f)\n",
			row.Mode, row.HDD.Eff.IOPSPerWatt, row.SSD.Eff.IOPSPerWatt,
			row.SSD.Eff.IOPSPerWatt/row.HDD.Eff.IOPSPerWatt)
	}
}
