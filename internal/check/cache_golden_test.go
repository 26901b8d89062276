package check

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestCacheCorpus runs the full cache conformance pass: the committed
// replay goldens rebuilt through a zero-capacity cache byte for byte,
// and the committed cache fixture through the determinism and
// efficiency gates (or regenerates the golden under -update, sharing
// the golden corpus flag).
func TestCacheCorpus(t *testing.T) {
	var buf bytes.Buffer
	err := verifyCache("testdata/golden/cache", "testdata/golden",
		VerifyOptions{Update: *update}, &buf)
	t.Log("\n" + buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PASS passthrough/") {
		t.Fatalf("pass-through gate did not run:\n%s", buf.String())
	}
}

// TestCacheDRAMBeatsUncached pins the acceptance criterion in the
// committed artifact itself: at every recorded load, the DRAM gate
// column hits >= 90% and strictly beats the uncached baseline on
// IOPS/Watt.
func TestCacheDRAMBeatsUncached(t *testing.T) {
	g, err := readGolden[CacheGolden](filepath.Join("testdata/golden/cache", "idle-web"+CacheGoldenSuffix))
	if err != nil {
		t.Fatal(err)
	}
	gate := cacheGateSpec().Label()
	checked := 0
	for _, load := range g.Loads {
		var base, dram float64
		var hit float64
		for _, r := range g.Rows {
			if r.Load != load {
				continue
			}
			switch r.Spec {
			case "uncached":
				base = r.IOPSPerWatt
			case gate:
				dram, hit = r.IOPSPerWatt, r.HitRate
			}
		}
		if base == 0 || dram == 0 {
			t.Fatalf("golden missing uncached or %s row at load %v", gate, load)
		}
		if hit < 0.9 {
			t.Errorf("load %v: %s hit rate %.4f below 0.9", load, gate, hit)
		}
		if dram <= base {
			t.Errorf("load %v: %s IOPS/Watt %.6g does not beat uncached %.6g", load, gate, dram, base)
		}
		checked++
	}
	if checked < 2 {
		t.Fatalf("golden records %d loads, want >= 2", checked)
	}
}

// TestCompareCacheGoldenCatchesDrift tampers with every field family of
// a loaded golden and requires exactly one labelled diff per tamper.
func TestCompareCacheGoldenCatchesDrift(t *testing.T) {
	g, err := readGolden[CacheGolden](filepath.Join("testdata/golden/cache", "idle-web"+CacheGoldenSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) == 0 {
		t.Fatal("golden has no rows")
	}
	// The hit-rate tamper must land on a cached row: multiplying an
	// uncached row's 0% hit rate changes nothing.
	cached := -1
	for i, r := range g.Rows {
		if r.HitRate > 0 {
			cached = i
			break
		}
	}
	if cached < 0 {
		t.Fatal("golden has no cached row with a nonzero hit rate")
	}
	tampers := []struct {
		name string
		mut  func(*CacheGolden)
		want string
	}{
		{"trace ios", func(c *CacheGolden) { c.Trace.IOs++ }, "trace.ios"},
		{"hit rate", func(c *CacheGolden) { c.Rows[cached].HitRate *= 1.5 }, "hit_rate"},
		{"iops per watt", func(c *CacheGolden) { c.Rows[1].IOPSPerWatt += 1 }, "iops_per_watt"},
		{"writebacks", func(c *CacheGolden) { c.Rows[1].Writebacks += 3 }, "writebacks"},
		{"spec rename", func(c *CacheGolden) { c.Rows[0].Spec = "ghost" }, "rows[0].spec"},
		{"row count", func(c *CacheGolden) { c.Rows = c.Rows[:1] }, "rows: want"},
		{"name", func(c *CacheGolden) { c.Name = "zzz" }, "name: want"},
		{"kind", func(c *CacheGolden) { c.Kind = "raid5-ssd" }, "kind: want"},
		{"seed", func(c *CacheGolden) { c.Seed++ }, "seed: want"},
		{"loads", func(c *CacheGolden) { c.Loads = []float64{0.5, 0.75} }, "loads[1]: want"},
	}
	for _, tc := range tampers {
		t.Run(tc.name, func(t *testing.T) {
			bad, err := readGolden[CacheGolden](filepath.Join("testdata/golden/cache", "idle-web"+CacheGoldenSuffix))
			if err != nil {
				t.Fatal(err)
			}
			tc.mut(bad)
			diffs := diffGolden(g, bad, DefaultTol)
			if len(diffs) != 1 {
				t.Fatalf("tamper produced %d diffs, want 1: %q", len(diffs), diffs)
			}
			if !strings.Contains(strings.Join(diffs, "\n"), tc.want) {
				t.Fatalf("diff %q does not mention %q", diffs, tc.want)
			}
		})
	}
}
