package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/replay"
)

// TestBuildPassThroughCacheIsReal: a disabled cache spec interposes a
// real pass-through tier, which forwards every replayed IO to the
// array — the cache study's uncached column and the pass-through gate
// measure through it, not around it.
func TestBuildPassThroughCacheIsReal(t *testing.T) {
	s, err := Build(DefaultConfig(), StackSpec{Kind: HDDArray, Cache: &CacheSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cache == nil || s.Device != s.Cache || !s.Cache.Passthrough() {
		t.Fatalf("disabled spec built device %T (cache %v), want a pass-through cache.Cache in front", s.Device, s.Cache)
	}
	m, err := Measure(s, telemetryTestTrace(), replay.UniformFilter{Proportion: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Cache.Stats()
	if m.Result.Completed == 0 || st.BackingReads+st.BackingWrites != m.Result.Completed {
		t.Fatalf("pass-through forwarded %d reads + %d writes for %d completed IOs",
			st.BackingReads, st.BackingWrites, m.Result.Completed)
	}
}

// TestBuildRejectsBadCacheCapacity: a capacity whose byte count is not
// a representable int64, or rounds to 0, fails with a labelled error
// naming the value, before any conversion; one larger than the array
// it fronts fails in cache.New, before a line is allocated.
func TestBuildRejectsBadCacheCapacity(t *testing.T) {
	for _, tc := range []struct {
		mb   float64
		want string
	}{
		{math.NaN(), "cache capacity NaN MiB"},
		{math.Inf(1), "cache capacity +Inf MiB"},
		{math.Inf(-1), "cache capacity -Inf MiB"},
		{-1, "cache capacity -1 MiB"},
		{1e300, "cache capacity 1e+300 MiB"},
		{1e-300, "cache capacity 1e-300 MiB rounds to 0 bytes"},
		{8796093022207, "cache: capacity 9223372036853727232 bytes exceeds the"},
	} {
		_, err := Build(DefaultConfig(), StackSpec{Kind: HDDArray, Cache: &CacheSpec{Tier: "dram", CapacityMB: tc.mb}})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("capacity %v: got error %v, want one containing %q", tc.mb, err, tc.want)
		}
	}
}
