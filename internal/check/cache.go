// Cache conformance: the writeback tier must be deterministic
// (byte-identical cachestudy tables at any worker count), invisible
// when disabled (a zero-capacity cache in front of an array rebuilds
// the committed replay goldens byte for byte), and actually worth its
// power draw on the committed fixture (the ≥90%-hit DRAM tier strictly
// beats the uncached baseline on IOPS/Watt at every load).  `tracer
// verify -cache` and the cache_golden_test.go driver re-run the
// committed fixture through CacheChecked and diff against the
// committed golden.
package check

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// CacheGoldenSuffix names the committed expected output of a cache
// fixture (separate from replay and optimize goldens so the corpora
// can share a testdata tree without colliding).
const CacheGoldenSuffix = ".cache.json"

// cacheConfig is the pinned evaluation cell for the cache gate: study
// seed 7 and the two golden loads, on the default six-disk HDD array —
// the regime where avoided disk activity is worth real watts.
func cacheConfig(workers int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Seed = 7
	cfg.Loads = []float64{0.5, 1.0}
	cfg.Workers = workers
	return cfg
}

// cacheGoldenKind is the backing array the cache gate runs against.
const cacheGoldenKind = experiments.HDDArray

// cacheStudySpecs are the committed study columns: the uncached
// baseline, the plain DRAM tier the acceptance gate reads, a DRAM
// variant exercising the 2Q/bypass policies, and an SSD tier.
func cacheStudySpecs() []experiments.CacheSpec {
	return []experiments.CacheSpec{
		{},
		{Tier: cache.TierDRAM, CapacityMB: 32},
		{Tier: cache.TierDRAM, CapacityMB: 32, Eviction: "2q", Admission: "bypass-seq"},
		{Tier: cache.TierSSD, CapacityMB: 256},
	}
}

// cacheGateSpec is the study column the hit-rate and strictly-beats
// assertions read (the plain DRAM tier above).
func cacheGateSpec() experiments.CacheSpec {
	return cacheStudySpecs()[1]
}

// CacheFixtureTrace synthesises the committed cache fixture: ten
// virtual minutes of web traffic over a 4 MiB footprint — 64 cache
// extents, so a 32 MiB DRAM tier converges to a ≥90% hit rate while
// the backing disks still see enough traffic for the power delta to
// be measurable.
func CacheFixtureTrace() *blktrace.Trace {
	wp := synth.DefaultWebServer()
	wp.Seed = 42
	wp.Duration = 10 * simtime.Minute
	wp.MeanIOPS = 4
	wp.FootprintBytes = 4 << 20
	return synth.WebServerTrace(wp)
}

// CacheGolden is the committed expected output for one cache fixture.
type CacheGolden struct {
	Name  string    `json:"name"`
	Trace TraceInfo `json:"trace"`
	Kind  string    `json:"kind"`
	Seed  uint64    `json:"seed"`
	Loads []float64 `json:"loads"`
	// Rows is the full cachestudy Pareto table, one row per
	// (spec, load) cell in study order.
	Rows []experiments.CacheStudyRow `json:"rows"`
}

// CacheChecked runs the full conformance gate on trace and returns the
// golden document to commit:
//
//   - the cachestudy table must be byte-identical at workers 1, 2, 8;
//   - the DRAM gate column must hit ≥90% and strictly beat the
//     uncached baseline on IOPS/Watt at every load;
//   - a checked replay through the DRAM tier must pass the invariant
//     suite (write conservation, no dirty extent lost, backing-array
//     algebra, energy conservation).
func CacheChecked(name string, trace *blktrace.Trace) (*CacheGolden, error) {
	rows, err := sameAtWorkers("cachestudy", func(w int) ([]experiments.CacheStudyRow, []byte, error) {
		return withJSON(experiments.CacheStudy(cacheConfig(w), cacheGoldenKind, trace, cacheStudySpecs()))
	})
	if err != nil {
		return nil, err
	}
	g := &CacheGolden{
		Name:  name,
		Trace: traceInfo(trace),
		Kind:  cacheGoldenKind.String(),
		Seed:  cacheConfig(1).Seed,
		Loads: cacheConfig(1).Loads,
		Rows:  rows,
	}

	// The tier must earn its power draw: at every load the plain DRAM
	// column hits ≥90% and strictly beats the uncached baseline.
	gate := cacheGateSpec().Label()
	for _, load := range g.Loads {
		var base, dram *experiments.CacheStudyRow
		for i := range g.Rows {
			r := &g.Rows[i]
			if r.Load != load {
				continue
			}
			switch r.Spec {
			case "uncached":
				base = r
			case gate:
				dram = r
			}
		}
		if base == nil || dram == nil {
			return nil, fmt.Errorf("study table missing uncached or %s row at load %v", gate, load)
		}
		if dram.HitRate < 0.9 {
			return nil, fmt.Errorf("%s hit rate %.4f below 0.9 at load %v", gate, dram.HitRate, load)
		}
		if dram.IOPSPerWatt <= base.IOPSPerWatt {
			return nil, fmt.Errorf("%s IOPS/Watt %.6g does not beat uncached %.6g at load %v",
				gate, dram.IOPSPerWatt, base.IOPSPerWatt, load)
		}
	}

	// Live invariant pass through the DRAM tier.
	gateSpec := cacheGateSpec()
	s, err := experiments.Build(cacheConfig(1), experiments.StackSpec{Kind: cacheGoldenKind, Cache: &gateSpec})
	if err != nil {
		return nil, err
	}
	res, err := ReplayChecked(s.Engine, s.Device, trace, Options{})
	if err != nil {
		return nil, err
	}
	if err := res.Report.Err(); err != nil {
		return nil, fmt.Errorf("cached replay invariants: %w", err)
	}
	return g, nil
}

// verifyCache runs the cache conformance pass:
//
//  1. Pass-through gate: every committed replay golden under corpusDir
//     is rebuilt with a zero-capacity cache interposed and must match
//     the committed JSON byte for byte — the disabled tier is invisible.
//  2. Fixture gate: every *.trace.txt under dir runs through
//     CacheChecked and is diffed against the committed *.cache.json.
//     With opts.Update the JSON is rewritten instead, and the canonical
//     fixture trace is bootstrapped if the directory is empty.
//
// On the first fixture diff failure a full telemetry export of the
// DRAM gate cell lands in opts.TelemetryDir (the artifact CI uploads).
func verifyCache(dir, corpusDir string, opts VerifyOptions, out io.Writer) error {
	passErr := walkFixtures("verify cache pass-through", corpusDir, out, func(name string, trace *blktrace.Trace) error {
		want, err := os.ReadFile(filepath.Join(corpusDir, name+GoldenSuffix))
		if err != nil {
			return nil // trace without a committed golden; nothing to cross-check
		}
		g, err := BuildGolden(name, trace, &experiments.CacheSpec{})
		if err != nil {
			return err
		}
		got, err := marshalGolden(g)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("zero-capacity cache output differs from committed %s", name+GoldenSuffix)
		}
		fmt.Fprintf(out, "PASS passthrough/%s (byte-identical)\n", name)
		return nil
	})
	return errors.Join(passErr, verifyGoldens(goldenGate[CacheGolden]{
		label:     "verify cache",
		suffix:    CacheGoldenSuffix,
		canonical: CacheFixtureTrace,
		tally:     func(g *CacheGolden) string { return fmt.Sprintf("%d rows", len(g.Rows)) },
		build: func(name string, trace *blktrace.Trace) (*CacheGolden, func(string, io.Writer), error) {
			g, err := CacheChecked(name, trace)
			return g, func(dir string, out io.Writer) {
				// The DRAM gate cell, with cache probes and the tier's
				// power channel, at the highest study load.
				cfg := cacheConfig(1)
				gateSpec := cacheGateSpec()
				spec := experiments.StackSpec{Kind: cacheGoldenKind, Cache: &gateSpec}
				exportTelemetry(dir, name, cfg, spec, cfg.Loads[len(cfg.Loads)-1], trace, out)
			}, err
		},
	}, dir, opts, out))
}
