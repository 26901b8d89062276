package experiments

import (
	"fmt"
	"io"

	"repro/internal/blktrace"
	"repro/internal/disksim"
	"repro/internal/metrics"
	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// Fig7Row is one point of Fig. 7: idle wall power versus populated
// disk count.
type Fig7Row struct {
	Disks int
	Watts float64
}

// Fig7Result carries the sweep plus derived quantities.
type Fig7Result struct {
	Rows []Fig7Row
	// ChassisWatts is the 0-disk wall power (non-disk components).
	ChassisWatts float64
	// PerDiskWatts is the mean increment per added disk.
	PerDiskWatts float64
	// DisksDominateAt is the smallest disk count whose disks draw more
	// than the chassis (paper: beyond three disks).
	DisksDominateAt int
}

// Fig7 measures idle power of the HDD array populated with 0..maxDisks
// drives (paper Section VI-A), one parallel cell per disk count.
func Fig7(cfg Config, maxDisks int) (*Fig7Result, error) {
	cfg = cfg.normalize()
	if maxDisks <= 0 {
		maxDisks = 6
	}
	res := &Fig7Result{DisksDominateAt: -1}
	const idleWindow = 10 * simtime.Second
	rows, err := pmap(cfg, maxDisks+1,
		func(n int) string { return fmt.Sprintf("%d disks", n) },
		func(n int) (Fig7Row, error) {
			var watts float64
			if n == 0 {
				ch := raid.HDDChassis()
				src := powersim.PSU{
					Source:     powersim.Sum{powersim.NewTimeline(ch.BaseW)},
					Efficiency: ch.PSUEfficiency,
					StandbyW:   ch.PSUStandbyW,
				}
				watts = powersim.Read(src, cfg.Seed, 0, simtime.Time(idleWindow)).Watts
			} else {
				e := simtime.NewEngine()
				params := raid.DefaultParams()
				params.Level = raid.RAID0 // idle measurement; level is irrelevant
				a, err := raid.NewHDDArray(e, params, n, disksim.Seagate7200())
				if err != nil {
					return Fig7Row{}, err
				}
				e.RunUntil(simtime.Time(idleWindow))
				watts = powersim.Read(a.PowerSource(), cfg.Seed, 0, e.Now()).Watts
			}
			return Fig7Row{Disks: n, Watts: watts}, nil
		})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.ChassisWatts = res.Rows[0].Watts
	res.PerDiskWatts = (res.Rows[maxDisks].Watts - res.Rows[0].Watts) / float64(maxDisks)
	for _, r := range res.Rows {
		if r.Watts-res.ChassisWatts > res.ChassisWatts {
			res.DisksDominateAt = r.Disks
			break
		}
	}
	return res, nil
}

// RenderFig7 prints the sweep.
func RenderFig7(w io.Writer, r *Fig7Result) {
	fmt.Fprintln(w, "Fig. 7 — idle power vs number of disks (RAID enclosure)")
	fmt.Fprintln(w, "disks\twall-power(W)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d\t%.2f\n", row.Disks, row.Watts)
	}
	fmt.Fprintf(w, "chassis %.2f W, +%.2f W/disk, disks dominate at >= %d disks\n",
		r.ChassisWatts, r.PerDiskWatts, r.DisksDominateAt)
}

// Fig8Row is one point of Fig. 8: throughput and load-control accuracy
// at a configured load proportion.
type Fig8Row struct {
	ConfiguredLoad float64
	IOPS, MBPS     float64
	// MeasuredLoadIOPS/MBPS are LP(f,f') per Eq. 1.
	MeasuredLoadIOPS, MeasuredLoadMBPS float64
	// AccuracyIOPS/MBPS are A(f,f') per Eq. 2.
	AccuracyIOPS, AccuracyMBPS float64
}

// Fig8Result is the full accuracy curve.
type Fig8Result struct {
	Mode synth.Mode
	Rows []Fig8Row
	// MaxError is the worst |A-1| across rows and both units.
	MaxError float64
}

// Fig8 validates load-proportion control on a fixed-size synthetic
// trace (paper: 4 KB requests, 50% random, 0% read; error < 0.5%).
func Fig8(cfg Config) (*Fig8Result, error) {
	cfg = cfg.normalize()
	mode := synth.Mode{RequestBytes: 4096, ReadRatio: 0, RandomRatio: 0.5}
	return accuracySweep(cfg, mode)
}

// accuracySweep is shared by Fig8 and the ablations: replay trace at
// every load and compare measured against configured proportions.
func accuracySweep(cfg Config, mode synth.Mode) (*Fig8Result, error) {
	trace, err := collectTrace(cfg, HDDArray, mode)
	if err != nil {
		return nil, err
	}
	ms, err := loadSweep(cfg, HDDArray, trace)
	if err != nil {
		return nil, err
	}
	return accuracyFromSweep(mode, cfg.Loads, ms), nil
}

func accuracyFromSweep(mode synth.Mode, loads []float64, ms []Measurement) *Fig8Result {
	res := &Fig8Result{Mode: mode}
	full := ms[len(ms)-1] // highest configured load; loads are ascending
	for i, m := range ms {
		row := Fig8Row{
			ConfiguredLoad:   loads[i],
			IOPS:             m.Result.IOPS,
			MBPS:             m.Result.MBPS,
			MeasuredLoadIOPS: metrics.LoadProportion(full.Result.IOPS, m.Result.IOPS),
			MeasuredLoadMBPS: metrics.LoadProportion(full.Result.MBPS, m.Result.MBPS),
		}
		row.AccuracyIOPS = metrics.Accuracy(row.MeasuredLoadIOPS, row.ConfiguredLoad)
		row.AccuracyMBPS = metrics.Accuracy(row.MeasuredLoadMBPS, row.ConfiguredLoad)
		if e := metrics.ErrorRate(row.AccuracyIOPS); e > res.MaxError {
			res.MaxError = e
		}
		if e := metrics.ErrorRate(row.AccuracyMBPS); e > res.MaxError {
			res.MaxError = e
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// RenderFig8 prints the accuracy table under the figure.
func RenderFig8(w io.Writer, r *Fig8Result) {
	fmt.Fprintf(w, "Fig. 8 — load control accuracy (%s)\n", r.Mode)
	fmt.Fprintln(w, "configured%\tIOPS\tMBPS\tmeasured%(IOPS)\tacc(IOPS)\tmeasured%(MBPS)\tacc(MBPS)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%.0f\t%.1f\t%.2f\t%.3f\t%.4f\t%.3f\t%.4f\n",
			row.ConfiguredLoad*100, row.IOPS, row.MBPS,
			row.MeasuredLoadIOPS*100, row.AccuracyIOPS,
			row.MeasuredLoadMBPS*100, row.AccuracyMBPS)
	}
	fmt.Fprintf(w, "max error %.4f\n", r.MaxError)
}

// Fig9Series is one request-size (or read-ratio) curve of Fig. 9:
// efficiency versus load proportion.
type Fig9Series struct {
	Label  string
	Mode   synth.Mode
	Points []Measurement
}

// Fig9Result carries both subfigures.
type Fig9Result struct {
	// SubA: IOPS/Watt vs load for request sizes 512B..1MB (read 25%,
	// random 25%).
	SubA []Fig9Series
	// SubB: MBPS/kW vs load for read ratios 0..75% (16KB requests,
	// random 25%).
	SubB []Fig9Series
}

// Fig9 measures the impact of I/O load on energy efficiency
// (Section VI-C): efficiency grows roughly linearly with load, and
// small requests earn more IOPS/Watt than large ones.
//
// The mode x load grid is flattened into one cell list: first every
// mode's peak trace is collected in parallel, then all
// (mode, load) replay cells fan out together instead of nesting loops.
func Fig9(cfg Config) (*Fig9Result, error) {
	cfg = cfg.normalize()
	var modes []synth.Mode
	var labels []string
	for _, size := range []int64{512, 4 << 10, 64 << 10, 1 << 20} {
		modes = append(modes, synth.Mode{RequestBytes: size, ReadRatio: 0.25, RandomRatio: 0.25})
		labels = append(labels, sizeLabel(size))
	}
	nSubA := len(modes)
	for _, read := range []float64{0, 0.25, 0.5, 0.75} {
		modes = append(modes, synth.Mode{RequestBytes: 16 << 10, ReadRatio: read, RandomRatio: 0.25})
		labels = append(labels, fmt.Sprintf("read%.0f%%", read*100))
	}

	traces, err := pmap(cfg, len(modes),
		func(i int) string { return fmt.Sprintf("collect %s", modes[i]) },
		func(i int) (*blktrace.Trace, error) { return collectTrace(cfg, HDDArray, modes[i]) })
	if err != nil {
		return nil, err
	}

	nLoads := len(cfg.Loads)
	cells, err := pmap(cfg, len(modes)*nLoads,
		func(i int) string { return fmt.Sprintf("%s load %v", modes[i/nLoads], cfg.Loads[i%nLoads]) },
		func(i int) (Measurement, error) {
			m, err := measureAtLoad(cfg, HDDArray, traces[i/nLoads], cfg.Loads[i%nLoads])
			if err != nil {
				return Measurement{}, err
			}
			return *m, nil
		})
	if err != nil {
		return nil, err
	}

	res := &Fig9Result{}
	for mi, mode := range modes {
		s := Fig9Series{Label: labels[mi], Mode: mode, Points: cells[mi*nLoads : (mi+1)*nLoads]}
		if mi < nSubA {
			res.SubA = append(res.SubA, s)
		} else {
			res.SubB = append(res.SubB, s)
		}
	}
	return res, nil
}

// RenderFig9 prints both subfigures as series tables.
func RenderFig9(w io.Writer, r *Fig9Result) {
	fmt.Fprintln(w, "Fig. 9a — IOPS/Watt vs load proportion (read 25%, random 25%)")
	renderEffSeries(w, r.SubA, func(m Measurement) float64 { return m.Eff.IOPSPerWatt })
	fmt.Fprintln(w, "Fig. 9b — MBPS/kW vs load proportion (16KB, random 25%)")
	renderEffSeries(w, r.SubB, func(m Measurement) float64 { return m.Eff.MBPSPerKW })
}

func renderEffSeries(w io.Writer, series []Fig9Series, pick func(Measurement) float64) {
	fmt.Fprint(w, "load%")
	for _, s := range series {
		fmt.Fprintf(w, "\t%s", s.Label)
	}
	fmt.Fprintln(w)
	if len(series) == 0 {
		return
	}
	for i := range series[0].Points {
		fmt.Fprintf(w, "%.0f", series[0].Points[i].Load*100)
		for _, s := range series {
			fmt.Fprintf(w, "\t%.3f", pick(s.Points[i]))
		}
		fmt.Fprintln(w)
	}
}

// Fig10Series is one request-size curve of Fig. 10: efficiency versus
// random ratio at 100% load.
type Fig10Series struct {
	Label  string
	Points []Fig10Point
}

// Fig10Point is one (random ratio, efficiency) sample.
type Fig10Point struct {
	RandomRatio float64
	Meas        Measurement
}

// Fig10Result carries both subfigures.
type Fig10Result struct {
	// SubA: MBPS/kW vs random ratio, read 0%, sizes 512B..64KB.
	SubA []Fig10Series
	// SubB: IOPS/Watt vs random ratio, read 100%, sizes 512B..1MB.
	SubB []Fig10Series
}

// Fig10 measures the impact of random ratio on energy efficiency
// (Section VI-D): efficiency falls as random ratio rises — seeks burn
// power while throughput collapses — and flattens beyond ~30%.
//
// Both subfigures' (size, random ratio) grids are flattened into one
// cell list; each cell collects its own peak trace and replays it at
// 100% load on a fresh array.
func Fig10(cfg Config) (*Fig10Result, error) {
	cfg = cfg.normalize()
	randoms := []float64{0, 0.1, 0.3, 0.5, 0.75, 1.0}
	type spec struct {
		subB bool
		size int64
		read float64
	}
	var specs []spec
	for _, size := range []int64{512, 4 << 10, 64 << 10} {
		specs = append(specs, spec{subB: false, size: size, read: 0})
	}
	for _, size := range []int64{4 << 10, 64 << 10, 1 << 20} {
		specs = append(specs, spec{subB: true, size: size, read: 1})
	}

	nRnd := len(randoms)
	cells, err := pmap(cfg, len(specs)*nRnd,
		func(i int) string {
			sp := specs[i/nRnd]
			return fmt.Sprintf("%s read%.0f%% random%.0f%%", sizeLabel(sp.size), sp.read*100, randoms[i%nRnd]*100)
		},
		func(i int) (Fig10Point, error) {
			sp, rnd := specs[i/nRnd], randoms[i%nRnd]
			mode := synth.Mode{RequestBytes: sp.size, ReadRatio: sp.read, RandomRatio: rnd}
			trace, err := collectTrace(cfg, HDDArray, mode)
			if err != nil {
				return Fig10Point{}, err
			}
			m, err := measureAtLoad(cfg, HDDArray, trace, 1.0)
			if err != nil {
				return Fig10Point{}, err
			}
			return Fig10Point{RandomRatio: rnd, Meas: *m}, nil
		})
	if err != nil {
		return nil, err
	}

	res := &Fig10Result{}
	for si, sp := range specs {
		s := Fig10Series{Label: sizeLabel(sp.size), Points: cells[si*nRnd : (si+1)*nRnd]}
		if sp.subB {
			res.SubB = append(res.SubB, s)
		} else {
			res.SubA = append(res.SubA, s)
		}
	}
	return res, nil
}

// RenderFig10 prints both subfigures.
func RenderFig10(w io.Writer, r *Fig10Result) {
	fmt.Fprintln(w, "Fig. 10a — MBPS/kW vs random ratio (read 0%, load 100%)")
	renderFig10Series(w, r.SubA, func(m Measurement) float64 { return m.Eff.MBPSPerKW })
	fmt.Fprintln(w, "Fig. 10b — IOPS/Watt vs random ratio (read 100%, load 100%)")
	renderFig10Series(w, r.SubB, func(m Measurement) float64 { return m.Eff.IOPSPerWatt })
}

func renderFig10Series(w io.Writer, series []Fig10Series, pick func(Measurement) float64) {
	fmt.Fprint(w, "random%")
	for _, s := range series {
		fmt.Fprintf(w, "\t%s", s.Label)
	}
	fmt.Fprintln(w)
	if len(series) == 0 {
		return
	}
	for i := range series[0].Points {
		fmt.Fprintf(w, "%.0f", series[0].Points[i].RandomRatio*100)
		for _, s := range series {
			fmt.Fprintf(w, "\t%.3f", pick(s.Points[i].Meas))
		}
		fmt.Fprintln(w)
	}
}

// Fig11Series is one random-ratio curve of Fig. 11: throughput and
// efficiency versus read ratio.
type Fig11Series struct {
	RandomRatio float64
	Points      []Fig11Point
}

// Fig11Point is one (read ratio, measurement) sample.
type Fig11Point struct {
	ReadRatio float64
	Meas      Measurement
}

// Fig11Result carries the sweep.
type Fig11Result struct {
	Series []Fig11Series
}

// Fig11 measures the impact of read ratio (Section VI-E): with 16 KB
// requests, sequential workloads (random 0%) show a U-shaped curve —
// pure-read and pure-write streams beat mixes — while 50%/100% random
// workloads are insensitive to read ratio.
// The (random, read) grid is flattened into one parallel cell list;
// each cell collects and replays its own mode.
func Fig11(cfg Config) (*Fig11Result, error) {
	cfg = cfg.normalize()
	reads := []float64{0, 0.25, 0.5, 0.75, 1.0}
	randoms := []float64{0, 0.5, 1.0}
	nRd := len(reads)
	cells, err := pmap(cfg, len(randoms)*nRd,
		func(i int) string {
			return fmt.Sprintf("random%.0f%% read%.0f%%", randoms[i/nRd]*100, reads[i%nRd]*100)
		},
		func(i int) (Fig11Point, error) {
			rd := reads[i%nRd]
			mode := synth.Mode{RequestBytes: 16 << 10, ReadRatio: rd, RandomRatio: randoms[i/nRd]}
			trace, err := collectTrace(cfg, HDDArray, mode)
			if err != nil {
				return Fig11Point{}, err
			}
			m, err := measureAtLoad(cfg, HDDArray, trace, 1.0)
			if err != nil {
				return Fig11Point{}, err
			}
			return Fig11Point{ReadRatio: rd, Meas: *m}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}
	for ri, rnd := range randoms {
		res.Series = append(res.Series, Fig11Series{RandomRatio: rnd, Points: cells[ri*nRd : (ri+1)*nRd]})
	}
	return res, nil
}

// RenderFig11 prints throughput and efficiency tables.
func RenderFig11(w io.Writer, r *Fig11Result) {
	fmt.Fprintln(w, "Fig. 11 — read-ratio impact (16KB requests, load 100%)")
	fmt.Fprint(w, "read%")
	for _, s := range r.Series {
		fmt.Fprintf(w, "\tMBPS(rand%.0f%%)\tMBPS/kW(rand%.0f%%)", s.RandomRatio*100, s.RandomRatio*100)
	}
	fmt.Fprintln(w)
	if len(r.Series) == 0 {
		return
	}
	for i := range r.Series[0].Points {
		fmt.Fprintf(w, "%.0f", r.Series[0].Points[i].ReadRatio*100)
		for _, s := range r.Series {
			fmt.Fprintf(w, "\t%.2f\t%.2f", s.Points[i].Meas.Result.MBPS, s.Points[i].Meas.Eff.MBPSPerKW)
		}
		fmt.Fprintln(w)
	}
}

// Fig12Series is the per-interval throughput timeline of the web trace
// replayed at one load proportion.
type Fig12Series struct {
	Load      float64
	Intervals []replay.Interval
	Total     Measurement
}

// Fig12Result carries the timelines.
type Fig12Result struct {
	Series []Fig12Series
}

// Fig12 replays the web-server trace at 20..100% load and reports the
// per-interval IOPS/MBPS timelines (Section VI-F): the workload's shape
// must survive filtering.
func Fig12(cfg Config) (*Fig12Result, error) {
	cfg = cfg.normalize()
	wp := synth.DefaultWebServer()
	wp.Seed = cfg.Seed
	trace := synth.WebServerTrace(wp)
	loads := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	series, err := pmap(cfg, len(loads),
		func(i int) string { return fmt.Sprintf("load %v", loads[i]) },
		func(i int) (Fig12Series, error) {
			m, err := measureAtLoad(cfg, HDDArray, trace, loads[i])
			if err != nil {
				return Fig12Series{}, err
			}
			return Fig12Series{Load: loads[i], Intervals: m.Result.Intervals, Total: *m}, nil
		})
	if err != nil {
		return nil, err
	}
	return &Fig12Result{Series: series}, nil
}

// RenderFig12 prints a compact timeline table: each row is one 10 s
// bucket of sampling cycles, and each cell the bucket's IOs over the
// seconds it covers, so a short final cycle weighs by its length.  A
// bucket covering less than one sampling cycle (the drain after the
// trace ends) is left out, and a series without a row's bucket prints
// "-".
func RenderFig12(w io.Writer, r *Fig12Result) {
	fmt.Fprintln(w, "Fig. 12 — web trace replay timelines (per-interval mean IOPS, 10s buckets)")
	fmt.Fprint(w, "bucket")
	cols := make([][]float64, len(r.Series))
	rows := 0
	for i, s := range r.Series {
		fmt.Fprintf(w, "\tload%.0f%%", s.Load*100)
		cols[i] = fig12Buckets(s.Intervals)
		rows = max(rows, len(cols[i]))
	}
	fmt.Fprintln(w)
	for b := 0; b < rows; b++ {
		fmt.Fprintf(w, "%d", b)
		for _, col := range cols {
			if b < len(col) {
				fmt.Fprintf(w, "\t%.1f", col[b])
			} else {
				fmt.Fprint(w, "\t-")
			}
		}
		fmt.Fprintln(w)
	}
}

// fig12Buckets folds a timeline into 10-cycle buckets of time-weighted
// IOPS, dropping a final bucket shorter than one sampling cycle.  Every
// interval but the last spans exactly one cycle, so the first one's
// span is the cycle.
func fig12Buckets(ivs []replay.Interval) []float64 {
	if len(ivs) == 0 {
		return nil
	}
	cycle := ivs[0].End.Sub(ivs[0].Start).Seconds()
	var out []float64
	for b := 0; b < len(ivs); b += 10 {
		var ios int64
		var secs float64
		for _, iv := range ivs[b:min(b+10, len(ivs))] {
			ios += iv.IOs
			secs += iv.End.Sub(iv.Start).Seconds()
		}
		if secs < cycle {
			break
		}
		out = append(out, float64(ios)/secs)
	}
	return out
}
