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
// a representable int64 fails with a labelled error naming the value,
// before any conversion.
func TestBuildRejectsBadCacheCapacity(t *testing.T) {
	for _, tc := range []struct {
		mb   float64
		want string
	}{
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{-1, "-1"},
		{1e300, "1e+300"},
	} {
		_, err := Build(DefaultConfig(), StackSpec{Kind: HDDArray, Cache: &CacheSpec{Tier: "dram", CapacityMB: tc.mb}})
		if err == nil || !strings.Contains(err.Error(), "cache capacity "+tc.want+" MiB") {
			t.Errorf("capacity %v: got error %v, want one naming %s", tc.mb, err, tc.want)
		}
	}
}
