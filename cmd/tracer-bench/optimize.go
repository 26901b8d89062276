// Policy-search benchmark: the "optimize" experiment measures the grid
// driver's evaluation-cell throughput across worker counts and emits
// BENCH_optimize.json, so fan-out regressions in the search harness are
// diffable across commits.  Wall-clock output, so it only runs on
// explicit request (like kernel/workload/fleet).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/optimize"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// optimizeBenchOut is where the "optimize" experiment writes its JSON
// report; set by the -optimize-benchout flag.
var optimizeBenchOut = "BENCH_optimize.json"

// optimizeBenchWorkers are the fan-out widths measured.
var optimizeBenchWorkers = []int{1, 2, 4, 8}

// optimizeBenchMinSeconds is the least wall time each width measures:
// one grid takes a few milliseconds, too short for a stable cells/s.
const optimizeBenchMinSeconds = 0.25

// optimizeBenchRow is one worker-count measurement.
type optimizeBenchRow struct {
	Workers    int     `json:"workers"`
	Cells      int     `json:"cells"`
	Grids      int     `json:"grids"`
	Seconds    float64 `json:"seconds"`
	CellsPerS  float64 `json:"cells_per_s"`
	SpeedupX   float64 `json:"speedup_x"`
	BestPoint  string  `json:"best_point"`
	BestEquals bool    `json:"best_equals_serial"`
}

// optimizeBenchReport is the top-level BENCH_optimize.json document.
type optimizeBenchReport struct {
	Policy string             `json:"policy"`
	Rows   []optimizeBenchRow `json:"rows"`
}

// benchOptimize sweeps the committed DRPM grid (12 cells) on a short
// idle-heavy trace at each worker count, repeating it for at least
// optimizeBenchMinSeconds, reporting cells/s and checking every run
// elects the serial run's winner.
func benchOptimize(cfg experiments.Config, w io.Writer) error {
	wp := synth.DefaultWebServer()
	wp.Seed = cfg.Seed
	wp.Duration = 2 * simtime.Minute
	wp.MeanIOPS = 0.5
	wp.FootprintBytes = 4 << 20
	trace := synth.WebServerTrace(wp)

	space, err := optimize.DefaultSpace("drpm")
	if err != nil {
		return err
	}
	report := optimizeBenchReport{Policy: space.Policy}
	var serialBest string
	var serialRate float64
	fmt.Fprintln(w, "workers\tcells\tgrids\tseconds\tcells/s\tspeedup\twinner")
	for _, workers := range optimizeBenchWorkers {
		opts := optimize.Options{Config: cfg, Load: 0.25, Workers: workers}
		var res *optimize.SearchResult
		grids := 0
		start := time.Now()
		for grids == 0 || time.Since(start).Seconds() < optimizeBenchMinSeconds {
			if res, err = optimize.Grid(context.Background(), space, trace, opts); err != nil {
				return err
			}
			grids++
		}
		secs := time.Since(start).Seconds()
		rate := float64(res.Cells*grids) / secs
		best := res.Best.Point.String()
		if workers == optimizeBenchWorkers[0] {
			serialBest, serialRate = best, rate
		}
		row := optimizeBenchRow{
			Workers:    workers,
			Cells:      res.Cells,
			Grids:      grids,
			Seconds:    secs,
			CellsPerS:  rate,
			SpeedupX:   rate / serialRate,
			BestPoint:  best,
			BestEquals: best == serialBest,
		}
		if !row.BestEquals {
			return fmt.Errorf("optimize bench: workers %d elected %q, serial elected %q", workers, best, serialBest)
		}
		report.Rows = append(report.Rows, row)
		fmt.Fprintf(w, "%d\t%d\t%d\t%.3f\t%.1f\t%.2fx\t%s\n",
			row.Workers, row.Cells, row.Grids, row.Seconds, row.CellsPerS, row.SpeedupX, row.BestPoint)
	}

	f, err := os.Create(optimizeBenchOut)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "report written to %s\n", optimizeBenchOut)
	return nil
}
