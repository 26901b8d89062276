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

// DegradedRow compares one workload mode on a healthy versus a
// degraded (one member failed) RAID-5 array.
type DegradedRow struct {
	Mode              synth.Mode
	Healthy, Degraded Measurement
	// P99HealthyMs and P99DegradedMs expose the tail-latency cost.
	P99HealthyMs, P99DegradedMs float64
}

// DegradedResult is the degraded-mode study.
type DegradedResult struct {
	Rows []DegradedRow
}

// DegradedStudy measures how a single member failure changes the
// array's throughput, tail latency and energy efficiency — the
// reliability dimension PARAID's evaluation adds to Table I's metrics,
// reproduced here on the simulated array.
func DegradedStudy(cfg Config) (*DegradedResult, error) {
	cfg = cfg.normalize()
	modes := []synth.Mode{
		{RequestBytes: 4 << 10, ReadRatio: 1, RandomRatio: 1},
		{RequestBytes: 4 << 10, ReadRatio: 0, RandomRatio: 1},
		{RequestBytes: 64 << 10, ReadRatio: 1, RandomRatio: 0},
	}
	traces, err := pmap(cfg, len(modes),
		func(i int) string { return fmt.Sprintf("collect %s", modes[i]) },
		func(i int) (*blktrace.Trace, error) { return collectTrace(cfg, HDDArray, modes[i]) })
	if err != nil {
		return nil, err
	}

	// Flatten mode x {healthy, degraded} into one cell list: even cells
	// replay healthy, odd cells with member 0 failed.
	cells, err := pmap(cfg, len(modes)*2,
		func(i int) string {
			state := "healthy"
			if i%2 == 1 {
				state = "degraded"
			}
			return fmt.Sprintf("%s %s", modes[i/2], state)
		},
		func(i int) (Measurement, error) {
			fail := i%2 == 1
			engine, array, err := NewSystem(cfg, HDDArray)
			if err != nil {
				return Measurement{}, err
			}
			if fail {
				if err := array.FailDisk(0); err != nil {
					return Measurement{}, err
				}
			}
			r, err := replay.ReplayAtLoad(engine, array, traces[i/2], 1.0, replay.Options{})
			if err != nil {
				return Measurement{}, err
			}
			meter := powersim.DefaultMeter(array.PowerSource())
			meter.Seed = cfg.Seed
			samples := meter.Measure(r.Start, r.End)
			return Measurement{
				Load:   1.0,
				Result: r,
				Power:  powersim.MeanWatts(samples),
				Eff:    metrics.NewEfficiency(r.IOPS, r.MBPS, powersim.MeanWatts(samples), powersim.EnergyJ(samples)),
			}, nil
		})
	if err != nil {
		return nil, err
	}

	res := &DegradedResult{}
	for mi, mode := range modes {
		healthy, degraded := cells[mi*2], cells[mi*2+1]
		res.Rows = append(res.Rows, DegradedRow{
			Mode:          mode,
			Healthy:       healthy,
			Degraded:      degraded,
			P99HealthyMs:  healthy.Result.P99Response.Seconds() * 1000,
			P99DegradedMs: degraded.Result.P99Response.Seconds() * 1000,
		})
	}
	return res, nil
}

// RenderDegradedStudy prints the comparison.
func RenderDegradedStudy(w io.Writer, r *DegradedResult) {
	fmt.Fprintln(w, "Degraded-mode RAID-5 (one member failed) vs healthy")
	fmt.Fprintln(w, "mode\thealthy-IOPS\tdegraded-IOPS\thealthy-IOPS/W\tdegraded-IOPS/W\tp99 ms (h/d)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.3f\t%.3f\t%.1f/%.1f\n",
			row.Mode, row.Healthy.Result.IOPS, row.Degraded.Result.IOPS,
			row.Healthy.Eff.IOPSPerWatt, row.Degraded.Eff.IOPSPerWatt,
			row.P99HealthyMs, row.P99DegradedMs)
	}
}

// SchedulerRow is one disk-scheduler policy's outcome on a deep random
// workload.
type SchedulerRow struct {
	Scheduler string
	Meas      Measurement
	// MeanRespMs and P99Ms expose the reordering fairness trade.
	MeanRespMs, P99Ms float64
}

// SchedulerResult is the scheduler ablation.
type SchedulerResult struct {
	Rows []SchedulerRow
}

// SchedulerStudy compares per-drive queue scheduling policies (FIFO,
// SSTF, LOOK) under a random 4 KB workload replayed closed-loop at
// queue depth 32: seek-optimising schedulers raise both throughput and
// IOPS/Watt because arm travel is the dominant energy *and* time cost.
func SchedulerStudy(cfg Config) (*SchedulerResult, error) {
	cfg = cfg.normalize()
	mode := synth.Mode{RequestBytes: 4096, ReadRatio: 1, RandomRatio: 1}
	trace, err := collectTrace(cfg, HDDArray, mode)
	if err != nil {
		return nil, err
	}
	scheds := []disksim.Scheduler{disksim.FIFO, disksim.SSTF, disksim.LOOK}
	rows, err := pmap(cfg, len(scheds),
		func(i int) string { return scheds[i].String() },
		func(i int) (SchedulerRow, error) {
			engine := simtime.NewEngine()
			params := raid.DefaultParams()
			drive := disksim.Seagate7200()
			drive.Scheduler = scheds[i]
			array, err := raid.NewHDDArray(engine, params, cfg.HDDs, drive)
			if err != nil {
				return SchedulerRow{}, err
			}
			r, err := replay.ReplayClosedLoop(engine, array, trace, 32, replay.Options{})
			if err != nil {
				return SchedulerRow{}, err
			}
			meter := powersim.DefaultMeter(array.PowerSource())
			meter.Seed = cfg.Seed
			samples := meter.Measure(r.Start, r.End)
			return SchedulerRow{
				Scheduler:  scheds[i].String(),
				Meas:       Measurement{Load: 1, Result: r, Power: powersim.MeanWatts(samples), Eff: metrics.NewEfficiency(r.IOPS, r.MBPS, powersim.MeanWatts(samples), powersim.EnergyJ(samples))},
				MeanRespMs: r.MeanResponse.Seconds() * 1000,
				P99Ms:      r.P99Response.Seconds() * 1000,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &SchedulerResult{Rows: rows}, nil
}

// RenderSchedulerStudy prints the ablation.
func RenderSchedulerStudy(w io.Writer, r *SchedulerResult) {
	fmt.Fprintln(w, "Ablation — per-drive queue scheduling (random 4KB, closed loop QD32)")
	fmt.Fprintln(w, "scheduler\tIOPS\tIOPS/W\tmean-resp(ms)\tp99(ms)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.3f\t%.2f\t%.1f\n",
			row.Scheduler, row.Meas.Result.IOPS, row.Meas.Eff.IOPSPerWatt, row.MeanRespMs, row.P99Ms)
	}
}
