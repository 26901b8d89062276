// Regression sentinel: -compare re-runs every benchmark family against
// its committed BENCH_*.json baseline in the working directory,
// redirecting the fresh reports to a temp dir, and diffs throughput row
// by row.  A missing baseline fails the run before any benchmark starts,
// so no family drops out of the gate unnoticed.  A
// report whose rows lose more than the tolerance (default 15%) of
// their committed events/sec on geometric mean fails the run — CI's
// guard against a silent performance regression riding in with a
// functional change.  The geomean, not any single row, is the gate:
// individual wall-clock rows on a shared single-CPU runner swing far
// more than 15% run to run, and a real regression in the code moves
// the whole family, not one lucky row.
//
// Only throughput gates.  Speedup columns (speedup_vs_1worker) are
// never compared: they measure goroutine overlap, which the committed
// single-CPU baselines cannot exhibit, so gating on them would reward
// noise.  Wall-clock benchmarks are noisy in the other direction too —
// a row can only fail by regressing, never by being "too fast".
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// compareTol is the fractional events/sec loss a row may show before
// the sentinel fails; set by the -compare-tol flag.
const defaultCompareTol = 0.15

// benchKeys are the identifying (non-metric) fields a benchmark row is
// matched by across the committed and fresh reports, in key order.
var benchKeys = []string{"name", "config", "tier", "arrays", "workers", "target_hit_rate"}

// benchThroughput lists the throughput fields gated, in preference
// order; the first one present and positive in both reports wins.
var benchThroughput = []string{"events_per_sec", "events_per_s", "ios_per_sec", "ios_per_s", "cells_per_s"}

// compareFamily binds one benchmark experiment to the committed
// baseline file it refreshes and the output-path variable that
// redirects the fresh report.
type compareFamily struct {
	exp       string
	committed string
	out       *string
}

func compareFamilies() []compareFamily {
	return []compareFamily{
		{"kernel", "BENCH_kernel.json", &benchOut},
		{"fleet", "BENCH_fleet.json", &fleetBenchOut},
		{"optimize", "BENCH_optimize.json", &optimizeBenchOut},
		{"cache", "BENCH_cache.json", &cacheBenchOut},
	}
}

// runCompare is the -compare mode: re-run every family, then gate fresh
// throughput against its committed baseline.
func runCompare(cfg experiments.Config, tol float64, w io.Writer) error {
	families := compareFamilies()
	var missing []string
	for _, fam := range families {
		if _, err := os.Stat(fam.committed); err != nil {
			missing = append(missing, fam.committed)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("compare: no committed baseline %s in the working directory (record one with -run <family>)", strings.Join(missing, ", "))
	}
	fmt.Fprintf(w, "compare: GOMAXPROCS=%d, NumCPU=%d — wall-clock rows; speedup columns are not gated\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintln(w, "compare: single-CPU host: multi-worker rows measure scheduling overhead, not parallel speedup")
	}
	tmp, err := os.MkdirTemp("", "tracer-bench-compare")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bench := map[string]func(experiments.Config, io.Writer) error{
		"kernel": benchKernel, "fleet": benchFleet, "optimize": benchOptimize, "cache": benchCache,
	}
	for _, fam := range families {
		*fam.out = filepath.Join(tmp, filepath.Base(fam.committed))
		fmt.Fprintf(w, "=== compare: %s ===\n", fam.exp)
		if err := bench[fam.exp](cfg, w); err != nil {
			return fmt.Errorf("compare: %s: %w", fam.exp, err)
		}
	}

	regressed, compared := 0, 0
	var failedFiles []string
	fmt.Fprintf(w, "\nfile\trow\tcommitted\tfresh\tdelta\n")
	for _, fam := range families {
		base, err := loadBenchRows(fam.committed)
		if err != nil {
			return fmt.Errorf("compare: %w", err)
		}
		fresh, err := loadBenchRows(*fam.out)
		if err != nil {
			return fmt.Errorf("compare: %w", err)
		}
		keys := make([]string, 0, len(base))
		for k := range base {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		logSum := 0.0
		for _, k := range keys {
			bv := base[k]
			fv, ok := fresh[k]
			if !ok {
				return fmt.Errorf("compare: %s: row %q missing from the fresh run", fam.committed, k)
			}
			compared++
			logSum += math.Log(fv / bv)
			fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%+.1f%%\n", fam.committed, k, bv, fv, (fv/bv-1)*100)
		}
		geo := math.Exp(logSum / float64(len(keys)))
		verdict := ""
		if geo < 1-tol {
			verdict = "\tREGRESSION"
			regressed++
			failedFiles = append(failedFiles, fam.committed)
		}
		fmt.Fprintf(w, "%s\tgeomean over %d rows\t\t\t%+.1f%%%s\n", fam.committed, len(keys), (geo-1)*100, verdict)
	}
	if compared == 0 {
		return fmt.Errorf("compare: no comparable rows between committed and fresh reports")
	}
	if regressed > 0 {
		return fmt.Errorf("compare: %d report(s) regressed more than %.0f%% events/sec on geomean vs the committed baseline (%s)",
			regressed, tol*100, strings.Join(failedFiles, ", "))
	}
	fmt.Fprintf(w, "compare: %d rows, every report geomean within %.0f%% of its committed baseline\n", compared, tol*100)
	return nil
}

// loadBenchRows flattens one BENCH_*.json into row-key -> throughput.
// The reports differ in shape (benchmarks vs rows arrays, per-family
// field names), so rows are matched generically: the key is built from
// whichever identifying fields the row carries, and the value is the
// first throughput field present.
func loadBenchRows(path string) (map[string]float64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, field := range []string{"benchmarks", "rows"} {
		arr, ok := doc[field].([]any)
		if !ok {
			continue
		}
		for i, el := range arr {
			row, ok := el.(map[string]any)
			if !ok {
				continue
			}
			key := benchRowKey(row)
			if key == "" {
				key = fmt.Sprintf("row%d", i)
			}
			val, ok := benchRowThroughput(row)
			if !ok {
				continue // grid/config rows without a throughput column
			}
			if _, dup := out[key]; dup {
				return nil, fmt.Errorf("%s: duplicate benchmark row key %q", path, key)
			}
			out[key] = val
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark rows with a throughput column", path)
	}
	return out, nil
}

func benchRowKey(row map[string]any) string {
	key := ""
	for _, k := range benchKeys {
		v, ok := row[k]
		if !ok {
			continue
		}
		if key != "" {
			key += "/"
		}
		switch t := v.(type) {
		case string:
			key += t
		case float64:
			key += fmt.Sprintf("%s=%g", k, t)
		default:
			key += fmt.Sprintf("%s=%v", k, t)
		}
	}
	return key
}

func benchRowThroughput(row map[string]any) (float64, bool) {
	for _, k := range benchThroughput {
		if v, ok := row[k].(float64); ok && v > 0 {
			return v, true
		}
	}
	return 0, false
}
