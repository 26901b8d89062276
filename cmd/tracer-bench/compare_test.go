package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestLoadBenchRows pins the generic row matcher against the four
// report shapes -compare must read: kernel-style named rows (some with
// only an IOs/sec column), fleet-style keyed rows, cache-style "rows"
// arrays with per_s field names, and optimize-style rows keyed by
// worker count that carry only cells/s.
func TestLoadBenchRows(t *testing.T) {
	dir := t.TempDir()
	write := func(name, blob string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	kernel := write("kernel.json", `{"benchmarks":[
		{"name":"schedule-run/closure","events_per_sec":100},
		{"name":"end-to-end-replay","ios_per_sec":42}]}`)
	rows, err := loadBenchRows(kernel)
	if err != nil {
		t.Fatal(err)
	}
	if rows["schedule-run/closure"] != 100 || rows["end-to-end-replay"] != 42 {
		t.Fatalf("kernel rows = %v", rows)
	}

	cache := write("cache.json", `{"tier":"dram","rows":[
		{"config":"uncached","target_hit_rate":0,"events_per_s":500},
		{"config":"uncached","target_hit_rate":0.5,"events_per_s":400}]}`)
	rows, err = loadBenchRows(cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows["uncached/target_hit_rate=0.5"] != 400 {
		t.Fatalf("cache rows = %v", rows)
	}

	// Grid rows without a throughput column are skipped, not zeroes.
	fleet := write("fleet.json", `{"grid":[{"arrays":64,"events_per_run":17553}],
		"benchmarks":[{"arrays":64,"workers":1,"events_per_sec":7}]}`)
	rows, err = loadBenchRows(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows["arrays=64/workers=1"] != 7 {
		t.Fatalf("fleet rows = %v", rows)
	}

	optimize := write("optimize.json", `{"policy":"drpm","rows":[
		{"workers":1,"cells":12,"seconds":0.5,"cells_per_s":24,"speedup_x":1},
		{"workers":2,"cells":12,"seconds":0.3,"cells_per_s":40,"speedup_x":1.7}]}`)
	rows, err = loadBenchRows(optimize)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows["workers=1"] != 24 || rows["workers=2"] != 40 {
		t.Fatalf("optimize rows = %v", rows)
	}

	if _, err := loadBenchRows(write("empty.json", `{"benchmarks":[]}`)); err == nil {
		t.Fatal("empty report accepted")
	}
	if _, err := loadBenchRows(write("dup.json",
		`{"benchmarks":[{"name":"a","events_per_sec":1},{"name":"a","events_per_sec":2}]}`)); err == nil {
		t.Fatal("duplicate row keys accepted")
	}
}

// TestCompareFailsOnMissingBaseline: a family without a committed
// baseline fails -compare before any benchmark runs, naming the file,
// instead of dropping out of the gate.
func TestCompareFailsOnMissingBaseline(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	for _, fam := range compareFamilies() {
		if fam.exp == "optimize" {
			continue
		}
		blob := `{"benchmarks":[{"name":"row","events_per_sec":1}]}`
		if err := os.WriteFile(filepath.Join(dir, fam.committed), []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	err = runCompare(experiments.DefaultConfig(), defaultCompareTol, &out)
	if err == nil || !strings.Contains(err.Error(), "BENCH_optimize.json") {
		t.Fatalf("missing BENCH_optimize.json: error %v, want one naming the file", err)
	}
	if out.Len() > 0 {
		t.Fatalf("benchmarks ran before the missing baseline was reported:\n%s", out.String())
	}
}
