package experiments

import (
	"fmt"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/replay"
	"repro/internal/simtime"
)

// CacheSpec configures the cache tier a StackSpec fronts its base
// device with.  The zero value is a pass-through tier; MB/KB units keep
// CLI flags and optimizer parameters human-sized.
type CacheSpec struct {
	// Tier is "none", "dram" or "ssd".
	Tier string
	// CapacityMB is the cache size in MiB (default 32 for a real tier).
	CapacityMB float64
	// ExtentKB is the line granularity in KiB (default 64).
	ExtentKB int64
	// Ways is the set associativity (default 8).
	Ways int
	// Admission is "always", "zone" or "bypass-seq".
	Admission string
	// Eviction is "lru", "2q" or "clock".
	Eviction string
	// DirtyHighRatio, FlushInterval and IdleDrain tune the writeback
	// policies (see cache.Params).
	DirtyHighRatio float64
	FlushInterval  simtime.Duration
	IdleDrain      simtime.Duration
}

func (s CacheSpec) withDefaults() CacheSpec {
	if s.Tier == "" {
		s.Tier = cache.TierNone
	}
	if s.Tier != cache.TierNone && s.CapacityMB == 0 {
		s.CapacityMB = 32
	}
	return s
}

// Enabled reports whether the spec describes a real cache tier.
func (s CacheSpec) Enabled() bool {
	s = s.withDefaults()
	return s.Tier != cache.TierNone && s.CapacityMB > 0
}

// Params converts the spec to cache.Params.
func (s CacheSpec) Params() cache.Params {
	s = s.withDefaults()
	return cache.Params{
		Tier:           s.Tier,
		CapacityBytes:  int64(s.CapacityMB * float64(1<<20)),
		ExtentBytes:    s.ExtentKB << 10,
		Ways:           s.Ways,
		Admission:      s.Admission,
		Eviction:       s.Eviction,
		DirtyHighRatio: s.DirtyHighRatio,
		FlushInterval:  s.FlushInterval,
		IdleDrain:      s.IdleDrain,
	}
}

// maxCapacityMB bounds CapacityMB so its byte count fits an int64.
const maxCapacityMB = 1 << 43

// Validate rejects a spec Build cannot honour in front of any device:
// a capacity that is NaN, infinite, negative, too large for int64 bytes
// or positive but under one byte, and anything cache.Params.Validate
// rejects.  Zero capacity is valid and selects the tier's default.
// Build also rejects a tier larger than the device it fronts.
func (s CacheSpec) Validate() error {
	if !(s.CapacityMB >= 0 && s.CapacityMB < maxCapacityMB) {
		return fmt.Errorf("experiments: cache capacity %v MiB is not a finite size in [0, 2^43) MiB", s.CapacityMB)
	}
	p := s.Params()
	if s.CapacityMB > 0 && p.CapacityBytes == 0 {
		return fmt.Errorf("experiments: cache capacity %v MiB rounds to 0 bytes", s.CapacityMB)
	}
	return p.Validate()
}

// Label names the spec for tables and fixtures, e.g. "uncached" or
// "dram-32MB".
func (s CacheSpec) Label() string {
	s = s.withDefaults()
	if !s.Enabled() {
		return "uncached"
	}
	label := fmt.Sprintf("%s-%gMB", s.Tier, s.CapacityMB)
	var opts []string
	if s.Eviction != "" && s.Eviction != "lru" {
		opts = append(opts, s.Eviction)
	}
	if s.Admission != "" && s.Admission != "always" {
		opts = append(opts, s.Admission)
	}
	if len(opts) > 0 {
		label += "/" + strings.Join(opts, "/")
	}
	return label
}

// CacheStudyRow is one cell of the cache study: a (spec, load) pair
// with its hit rate, performance, power and efficiency.
type CacheStudyRow struct {
	// Spec and Tier identify the cache configuration.
	Spec string  `json:"spec"`
	Tier string  `json:"tier"`
	Load float64 `json:"load"`
	// HitRate is hits over extent accesses (0 for uncached).
	HitRate float64 `json:"hit_rate"`
	// IOPS, MeanWatts and IOPSPerWatt are the Pareto axes.
	IOPS        float64 `json:"iops"`
	MeanWatts   float64 `json:"mean_watts"`
	IOPSPerWatt float64 `json:"iops_per_watt"`
	// MeanMs and P99Ms report the latency cost dimension.
	MeanMs float64 `json:"mean_ms"`
	P99Ms  float64 `json:"p99_ms"`
	// EnergyJ is total metered energy over the run.
	EnergyJ float64 `json:"energy_j"`
	// Cache traffic accounting (all zero for uncached).
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Writebacks     int64 `json:"writebacks"`
	WritebackBytes int64 `json:"writeback_bytes"`
}

// DefaultCacheStudySpecs returns the study's standard columns: the
// uncached baseline, a DRAM tier and an SSD tier.
func DefaultCacheStudySpecs() []CacheSpec {
	return []CacheSpec{
		{},
		{Tier: cache.TierDRAM, CapacityMB: 32},
		{Tier: cache.TierSSD, CapacityMB: 256},
	}
}

// CacheStudy sweeps spec x load and reports the hit-rate/IOPS/Watt
// Pareto table.  Every cell is an independent fresh system, fanned
// across cfg.Workers goroutines with deterministic ordering — results
// are byte-identical at any worker count.
func CacheStudy(cfg Config, kind ArrayKind, trace *blktrace.Trace, specs []CacheSpec) ([]CacheStudyRow, error) {
	cfg = cfg.normalize()
	if len(specs) == 0 {
		specs = DefaultCacheStudySpecs()
	}
	loads := cfg.Loads
	n := len(specs) * len(loads)
	return pmap(cfg, n,
		func(i int) string {
			return fmt.Sprintf("cache %s load %v", specs[i/len(loads)].Label(), loads[i%len(loads)])
		},
		func(i int) (CacheStudyRow, error) {
			spec, load := specs[i/len(loads)], loads[i%len(loads)]
			s, err := Build(cfg, StackSpec{Kind: kind, Cache: &spec})
			if err != nil {
				return CacheStudyRow{}, err
			}
			m, err := Measure(s, trace, replay.UniformFilter{Proportion: load}, nil)
			if err != nil {
				return CacheStudyRow{}, err
			}
			st := s.Cache.Stats()
			return CacheStudyRow{
				Spec:           spec.Label(),
				Tier:           spec.withDefaults().Tier,
				Load:           load,
				HitRate:        st.HitRate(),
				IOPS:           m.Result.IOPS,
				MeanWatts:      m.Power.Watts,
				IOPSPerWatt:    m.Eff.IOPSPerWatt,
				MeanMs:         m.Result.MeanResponse.Seconds() * 1000,
				P99Ms:          m.Result.P99Response.Seconds() * 1000,
				EnergyJ:        m.Eff.EnergyJ,
				Hits:           st.Hits,
				Misses:         st.Misses,
				Writebacks:     st.Writebacks,
				WritebackBytes: st.WritebackBytes,
			}, nil
		})
}

// RenderCacheStudy prints the study as a Pareto table grouped by spec.
func RenderCacheStudy(rows []CacheStudyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %6s %8s %10s %10s %12s %9s %9s\n",
		"cache", "load", "hit%", "IOPS", "watts", "IOPS/W", "mean ms", "p99 ms")
	last := ""
	for _, r := range rows {
		if r.Spec != last && last != "" {
			b.WriteString("\n")
		}
		last = r.Spec
		fmt.Fprintf(&b, "%-18s %5.0f%% %7.1f%% %10.1f %10.2f %12.2f %9.3f %9.3f\n",
			r.Spec, r.Load*100, r.HitRate*100, r.IOPS, r.MeanWatts, r.IOPSPerWatt, r.MeanMs, r.P99Ms)
	}
	return b.String()
}
