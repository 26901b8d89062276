package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadBenchRows pins the generic row matcher against the three
// report shapes -compare must read: kernel-style named rows (some with
// only an IOs/sec column), fleet-style keyed rows, and cache-style
// "rows" arrays with per_s field names.
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

	if _, err := loadBenchRows(write("empty.json", `{"benchmarks":[]}`)); err == nil {
		t.Fatal("empty report accepted")
	}
	if _, err := loadBenchRows(write("dup.json",
		`{"benchmarks":[{"name":"a","events_per_sec":1},{"name":"a","events_per_sec":2}]}`)); err == nil {
		t.Fatal("duplicate row keys accepted")
	}
}
