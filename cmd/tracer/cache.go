package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/replay"
	"repro/internal/simtime"
)

// defaultCacheFixture is the committed cache golden trace the study
// defaults to; when absent (running outside the repo) the identical
// trace is synthesised from its pinned seed.
const defaultCacheFixture = "internal/check/testdata/golden/cache/idle-web.trace.txt"

// cacheFlags groups the -cache-* replay flags so cmdReplay and
// cmdCacheStudy share one spec builder and one validation pass.
type cacheFlags struct {
	tier      *string
	mb        *float64
	extentKB  *int64
	ways      *int
	admit     *string
	evict     *string
	flush     *time.Duration
	idleDrain *time.Duration
	dirtyHigh *float64
}

// registerCacheFlags declares the -cache-* flag family on fs.
func registerCacheFlags(fs *flag.FlagSet) *cacheFlags {
	var cf cacheFlags
	cf.tier = fs.String("cache-tier", "", "cache tier in front of the array: dram or ssd (empty = uncached)")
	cf.mb = fs.Float64("cache-mb", 32, "cache capacity in MiB")
	cf.extentKB = fs.Int64("cache-extent-kb", 64, "cache line (extent) size in KiB")
	cf.ways = fs.Int("cache-ways", 8, "set associativity")
	cf.admit = fs.String("cache-admit", "always", "admission policy: always, zone or bypass-seq")
	cf.evict = fs.String("cache-evict", "lru", "eviction policy: lru, 2q or clock")
	cf.flush = fs.Duration("cache-flush", time.Second, "periodic dirty-flush interval in sim time (negative disables)")
	cf.idleDrain = fs.Duration("cache-idle-drain", 500*time.Millisecond, "idle threshold before draining dirty lines (negative disables)")
	cf.dirtyHigh = fs.Float64("cache-dirty-high", 0.5, "dirty line ratio that triggers threshold writeback")
	return &cf
}

// validate rejects -cache-* flags given without -cache-tier: a tuning
// knob that silently does nothing would hide an operator typo.  With a
// tier, -cache-mb must be a finite size > 0 and the spec must pass
// experiments.CacheSpec.Validate.
func (cf *cacheFlags) validate(cmd string, fs *flag.FlagSet) error {
	if *cf.tier != "" {
		if !validCapacityMB(*cf.mb) {
			return fmt.Errorf("%s: bad -cache-mb %v (want a finite size > 0)", cmd, *cf.mb)
		}
		if err := cf.spec().Validate(); err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
		return nil
	}
	var stray string
	fs.Visit(func(f *flag.Flag) {
		if stray == "" && strings.HasPrefix(f.Name, "cache-") && f.Name != "cache-tier" {
			stray = f.Name
		}
	})
	if stray != "" {
		return fmt.Errorf("%s: -%s requires -cache-tier (dram or ssd)", cmd, stray)
	}
	return nil
}

// spec converts the flags to the experiment-layer cache spec; tier and
// policy names are validated by cache.New with labelled errors.
func (cf *cacheFlags) spec() experiments.CacheSpec {
	return experiments.CacheSpec{
		Tier:           *cf.tier,
		CapacityMB:     *cf.mb,
		ExtentKB:       *cf.extentKB,
		Ways:           *cf.ways,
		Admission:      *cf.admit,
		Eviction:       *cf.evict,
		DirtyHighRatio: *cf.dirtyHigh,
		FlushInterval:  simtime.FromStd(*cf.flush),
		IdleDrain:      simtime.FromStd(*cf.idleDrain),
	}
}

// validCapacityMB reports whether mb is a cache size a user may
// request: finite and > 0.  experiments.CacheSpec.Validate rejects
// sizes whose byte count does not fit an int64 or rounds to 0.
func validCapacityMB(mb float64) bool {
	return mb > 0 && !math.IsInf(mb, 1)
}

// parseCacheSpecs decodes the -specs column list: "uncached" or
// "tier:MB[:evict[:admit]]" per comma-separated entry, e.g.
// "uncached,dram:32,dram:32:2q:bypass-seq,ssd:256".
func parseCacheSpecs(s string) ([]experiments.CacheSpec, error) {
	var specs []experiments.CacheSpec
	for _, col := range strings.Split(s, ",") {
		col = strings.TrimSpace(col)
		if col == "" {
			continue
		}
		if col == "uncached" || col == cache.TierNone {
			specs = append(specs, experiments.CacheSpec{})
			continue
		}
		parts := strings.Split(col, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("cachestudy: bad spec %q (want tier:MB[:evict[:admit]] or uncached)", col)
		}
		mb, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || !validCapacityMB(mb) {
			return nil, fmt.Errorf("cachestudy: bad capacity %q in spec %q", parts[1], col)
		}
		spec := experiments.CacheSpec{Tier: parts[0], CapacityMB: mb}
		if len(parts) > 2 {
			spec.Eviction = parts[2]
		}
		if len(parts) > 3 {
			spec.Admission = parts[3]
		}
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("cachestudy: spec %q: %w", col, err)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("cachestudy: no cache specs given")
	}
	return specs, nil
}

// cmdCacheStudy sweeps cache configurations against load levels and
// prints the hit-rate / IOPS / Watt Pareto table — which tier (if any)
// earns its static power draw on this workload, and at what capacity.
func cmdCacheStudy(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cachestudy", flag.ContinueOnError)
	repoDir := fs.String("repo", "traces", "trace repository directory")
	name := fs.String("trace", "", "trace file name within the repository")
	in := fs.String("in", "", "trace file to study (default: committed cache golden fixture)")
	device := fs.String("device", "hdd", "backing array kind: hdd or ssd")
	loadsStr := fs.String("loads", "50,100", "comma-separated load percentages")
	specsStr := fs.String("specs", "", "cache columns 'tier:MB[:evict[:admit]]' or 'uncached' (default: uncached,dram:32,ssd:256)")
	seed := fs.Uint64("seed", 1, "simulation seed (drives power metering)")
	workers := fs.Int("workers", 0, "parallel study cells (0 = all cores, 1 = sequential)")
	jsonPath := fs.String("json", "", "also write the study rows as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := experiments.KindFromString(*device)
	if err != nil {
		return err
	}
	loads, err := replay.ParseLoads(*loadsStr)
	if err != nil {
		return err
	}
	specs := []experiments.CacheSpec(nil)
	if *specsStr != "" {
		if specs, err = parseCacheSpecs(*specsStr); err != nil {
			return err
		}
	}
	trace, err := loadCacheTrace(*repoDir, *name, *in)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Loads = loads
	cfg.Workers = *workers
	rows, err := experiments.CacheStudy(cfg, kind, trace, specs)
	if err != nil {
		return err
	}
	fmt.Fprint(out, experiments.RenderCacheStudy(rows))
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nstudy rows written to %s\n", *jsonPath)
	}
	return nil
}

// loadCacheTrace resolves the cachestudy trace like loadOptimizeTrace,
// defaulting to the committed cache fixture.
func loadCacheTrace(repoDir, name, in string) (*blktrace.Trace, error) {
	if in == "" && name == "" {
		if _, err := os.Stat(defaultCacheFixture); err == nil {
			return check.LoadFixtureTrace(defaultCacheFixture)
		}
		return check.CacheFixtureTrace(), nil
	}
	return loadOptimizeTrace(repoDir, name, in)
}
