// Fleet benchmark: the "fleet" experiment measures the shared-clock
// fleet coordinator at several array and worker counts and writes
// BENCH_fleet.json, so coordinator scaling is diffable across commits
// the same way the kernel numbers are.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/simtime"
)

// fleetBenchOut is where the "fleet" experiment writes its JSON report;
// set by the -fleet-benchout flag.
var fleetBenchOut = "BENCH_fleet.json"

// warnSingleCPU flags benchmark runs where worker goroutines cannot
// actually overlap, so speedup columns read as ~1.0x by construction.
func warnSingleCPU(w io.Writer) {
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintln(w, "WARNING: GOMAXPROCS=1 — worker goroutines are serialized; speedup columns are meaningless on this host")
	}
}

// fleetBench is one row of BENCH_fleet.json.
type fleetBench struct {
	Arrays       int     `json:"arrays"`
	Workers      int     `json:"workers"`
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	IOsPerSec    float64 `json:"ios_per_sec"`
	// SpeedupVs1Worker is ns_per_op(1 worker, same fleet size) / ns_per_op.
	SpeedupVs1Worker float64 `json:"speedup_vs_1worker"`
}

// fleetGridRow pins the deterministic per-size run shape measured in
// the warm-up pass: every worker count replays exactly these events.
type fleetGridRow struct {
	Arrays    int   `json:"arrays"`
	Events    int64 `json:"events_per_run"`
	Offered   int64 `json:"offered_per_run"`
	Completed int64 `json:"completed_per_run"`
}

// fleetReport is the top-level BENCH_fleet.json document.  GOMAXPROCS
// and NumCPU lead the document: fleet workers only overlap when the
// host grants the process more than one CPU, so the speedup column is
// uninterpretable without them.
type fleetReport struct {
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"num_cpu"`
	Grid        []fleetGridRow `json:"grid"`
	Benchmarks  []fleetBench   `json:"benchmarks"`
	Environment string         `json:"environment_note"`
}

// fleetBenchStream is the canonical open-loop stream for one fleet
// size: offered load scales with the fleet so per-array work stays
// constant across sizes.
func fleetBenchStream(cfg experiments.Config, arrays int) *fleet.SynthStream {
	dur := cfg.CollectDuration
	if dur <= 0 {
		dur = 2 * simtime.Second
	}
	return fleet.NewSynthStream(fleet.SynthParams{
		Duration:   dur,
		MeanIOPS:   64 * float64(arrays),
		Clients:    1024,
		Size:       16 << 10,
		ReadRatio:  0.6,
		WorkingSet: cfg.WorkingSet,
		Seed:       cfg.Seed,
	})
}

// benchFleet measures the fleet coordinator over an
// {arrays} x {workers} grid and writes BENCH_fleet.json (path from
// -fleet-benchout).
func benchFleet(cfg experiments.Config, w io.Writer) error {
	warnSingleCPU(w)
	report := fleetReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Environment: "speedup_vs_1worker reflects wall-clock on this host; fleet workers " +
			"only run concurrently when GOMAXPROCS > 1",
	}

	arrayGrid := []int{64, 256}
	workerGrid := []int{1, 2, 4, 8}

	// One warm-up run per fleet size pins the deterministic event and IO
	// counts (identical at every worker count), so events/sec below is
	// events actually fired, not a guess.
	perRun := map[int]fleetGridRow{}
	for _, arrays := range arrayGrid {
		f, err := fleet.New(cfg, experiments.HDDArray, arrays, 1)
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		res, err := f.Run(fleetBenchStream(cfg, arrays), fleet.Options{})
		if err != nil {
			return fmt.Errorf("fleet: warm-up %d arrays: %w", arrays, err)
		}
		var events int64
		for _, e := range f.Engines() {
			events += int64(e.Fired())
		}
		row := fleetGridRow{Arrays: arrays, Events: events, Offered: res.Offered, Completed: res.Completed}
		perRun[arrays] = row
		report.Grid = append(report.Grid, row)
	}

	var benchErr error
	baseNs := map[int]float64{}
	for _, arrays := range arrayGrid {
		for _, workers := range workerGrid {
			arrays, workers := arrays, workers
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f, err := fleet.New(cfg, experiments.HDDArray, arrays, workers)
					if err != nil {
						benchErr = err
						b.FailNow()
					}
					if _, err := f.Run(fleetBenchStream(cfg, arrays), fleet.Options{}); err != nil {
						benchErr = err
						b.FailNow()
					}
				}
			})
			if benchErr != nil {
				return fmt.Errorf("fleet: benchmark %d arrays / %d workers: %w", arrays, workers, benchErr)
			}
			ns := float64(r.NsPerOp())
			row := fleetBench{
				Arrays:      arrays,
				Workers:     workers,
				NsPerOp:     ns,
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			if ns > 0 {
				row.EventsPerSec = float64(perRun[arrays].Events) / ns * 1e9
				row.IOsPerSec = float64(perRun[arrays].Completed) / ns * 1e9
			}
			if workers == 1 {
				baseNs[arrays] = ns
			}
			if base := baseNs[arrays]; base > 0 && ns > 0 {
				row.SpeedupVs1Worker = base / ns
			}
			report.Benchmarks = append(report.Benchmarks, row)
		}
	}

	fmt.Fprintf(w, "fleet coordinator (GOMAXPROCS=%d, NumCPU=%d)\n", report.GOMAXPROCS, report.NumCPU)
	fmt.Fprintf(w, "arrays\tworkers\tns/op\tallocs/op\tevents/sec\tIOs/sec\tspeedup\n")
	for _, b := range report.Benchmarks {
		fmt.Fprintf(w, "%d\t%d\t%.0f\t%d\t%.0f\t%.0f\t%.2fx\n",
			b.Arrays, b.Workers, b.NsPerOp, b.AllocsPerOp, b.EventsPerSec, b.IOsPerSec, b.SpeedupVs1Worker)
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(fleetBenchOut, blob, 0o644); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	fmt.Fprintf(w, "wrote %s\n", fleetBenchOut)
	return nil
}
