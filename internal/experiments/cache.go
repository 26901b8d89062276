package experiments

import (
	"fmt"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// CacheSpec configures the cache tier of a cached experiment system.
// The zero value is "no cache"; MB/KB units keep CLI flags and
// optimizer parameters human-sized.
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
	// DRAMWattsPerGB overrides the DRAM static power coefficient.
	DRAMWattsPerGB float64
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
		DRAMWattsPerGB: s.DRAMWattsPerGB,
	}
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

// NewCachedSystem provisions a pristine array of the given kind with a
// cache tier in front on a fresh engine.  A disabled spec yields a
// pass-through cache whose behaviour — event sequence, power samples,
// replay results — is byte-identical to the bare NewSystem array.
func NewCachedSystem(cfg Config, kind ArrayKind, spec CacheSpec) (*simtime.Engine, *cache.Cache, *raid.Array, error) {
	e, a, err := NewSystem(cfg, kind)
	if err != nil {
		return nil, nil, nil, err
	}
	c, err := cache.New(e, a, a.PowerSource(), spec.Params())
	if err != nil {
		return nil, nil, nil, err
	}
	return e, c, a, nil
}

// CachedMeasurement is a Measurement plus the cache tier's accounting.
type CachedMeasurement struct {
	Measurement
	// Spec labels the cache configuration.
	Spec string
	// Cache holds the tier's counters at end of run.
	Cache cache.Stats
}

// MeasureCachedAtLoad replays trace through a cached system at the
// given load and meters wall power (backing plus tier).
func MeasureCachedAtLoad(cfg Config, kind ArrayKind, spec CacheSpec, trace *blktrace.Trace, load float64) (*CachedMeasurement, error) {
	cfg = cfg.normalize()
	e, c, _, err := NewCachedSystem(cfg, kind, spec)
	if err != nil {
		return nil, err
	}
	res, err := replay.ReplayAtLoad(e, c, trace, load, replay.Options{})
	if err != nil {
		return nil, err
	}
	meter := powersim.DefaultMeter(c.PowerSource())
	meter.Seed = cfg.Seed
	samples := meter.Measure(res.Start, res.End)
	watts := powersim.MeanWatts(samples)
	return &CachedMeasurement{
		Measurement: Measurement{
			Load:   load,
			Result: res,
			Power:  watts,
			Eff:    metrics.NewEfficiency(res.IOPS, res.MBPS, watts, powersim.EnergyJ(samples)),
		},
		Spec:  spec.Label(),
		Cache: c.Stats(),
	}, nil
}

// MeasureCachedAtLoadTelemetry is MeasureCachedAtLoad with full
// instrumentation: engine, array, replay and cache probes plus "wall"
// and (for a real tier) "cache" power channels.
func MeasureCachedAtLoadTelemetry(cfg Config, kind ArrayKind, spec CacheSpec, trace *blktrace.Trace, load float64, set *telemetry.Set) (*CachedMeasurement, error) {
	cfg = cfg.normalize()
	e, c, a, err := NewCachedSystem(cfg, kind, spec)
	if err != nil {
		return nil, err
	}
	telemetry.WireEngine(set, e)
	a.AttachTelemetry(set)
	c.AttachTelemetry(set)
	probe := telemetry.NewReplayProbe(set)

	f := replay.UniformFilter{Proportion: load}
	filtered := f.Apply(trace)
	probe.OnFilter(filtered.NumIOs(), trace.NumIOs()-filtered.NumIOs())

	start := e.Now()
	horizon := start.Add(filtered.Duration() + 2*set.Cadence())
	meter := powersim.DefaultMeter(c.PowerSource())
	meter.Seed = cfg.Seed
	set.AddPowerChannel(e, "wall", meter, horizon)
	if tier := c.TierSource(); tier != nil {
		set.AddPowerChannel(e, "cache", powersim.DefaultMeter(tier), horizon)
	}
	set.StartSampling(e, horizon)

	res, err := replay.Replay(e, c, filtered, replay.Options{Telemetry: probe})
	if err != nil {
		return nil, err
	}
	res.Filter = f.Name()
	set.Flush(e.Now())

	samples := meter.Measure(res.Start, res.End)
	watts := powersim.MeanWatts(samples)
	return &CachedMeasurement{
		Measurement: Measurement{
			Load:   load,
			Result: res,
			Power:  watts,
			Eff:    metrics.NewEfficiency(res.IOPS, res.MBPS, watts, powersim.EnergyJ(samples)),
		},
		Spec:  spec.Label(),
		Cache: c.Stats(),
	}, nil
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
			m, err := MeasureCachedAtLoad(cfg, kind, spec, trace, load)
			if err != nil {
				return CacheStudyRow{}, err
			}
			return CacheStudyRow{
				Spec:           spec.Label(),
				Tier:           spec.withDefaults().Tier,
				Load:           load,
				HitRate:        m.Cache.HitRate(),
				IOPS:           m.Result.IOPS,
				MeanWatts:      m.Power,
				IOPSPerWatt:    m.Eff.IOPSPerWatt,
				MeanMs:         m.Result.MeanResponse.Seconds() * 1000,
				P99Ms:          m.Result.P99Response.Seconds() * 1000,
				EnergyJ:        m.Eff.EnergyJ,
				Hits:           m.Cache.Hits,
				Misses:         m.Cache.Misses,
				Writebacks:     m.Cache.Writebacks,
				WritebackBytes: m.Cache.WritebackBytes,
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
