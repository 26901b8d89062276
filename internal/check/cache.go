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
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// CacheGoldenSuffix names the committed expected output of a cache
// fixture (separate from replay and optimize goldens so the corpora
// can share a testdata tree without colliding).
const CacheGoldenSuffix = ".cache.json"

// cacheWorkerCounts are the fan-out widths the determinism gate
// cross-checks: every pair must produce byte-identical study tables.
var cacheWorkerCounts = []int{1, 2, 8}

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
	st := blktrace.ComputeStats(trace)
	g := &CacheGolden{
		Name: name,
		Trace: TraceInfo{
			Device:     trace.Device,
			Bunches:    st.Bunches,
			IOs:        st.IOs,
			TotalBytes: st.TotalBytes,
			DurationNs: int64(st.Duration),
		},
		Kind:  cacheGoldenKind.String(),
		Seed:  cacheConfig(1).Seed,
		Loads: cacheConfig(1).Loads,
	}

	// Determinism across worker counts.
	var blob []byte
	for _, w := range cacheWorkerCounts {
		rows, err := experiments.CacheStudy(cacheConfig(w), cacheGoldenKind, trace, cacheStudySpecs())
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(rows)
		if err != nil {
			return nil, err
		}
		if blob == nil {
			g.Rows, blob = rows, b
		} else if !bytes.Equal(blob, b) {
			return nil, fmt.Errorf("cachestudy not deterministic: workers %d and %d disagree", cacheWorkerCounts[0], w)
		}
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

// BuildGoldenCached rebuilds a replay golden with a cache of the given
// spec interposed at every (kind, load) cell.  With a disabled spec
// the result must be byte-identical to BuildGolden's — the pass-through
// gate VerifyCache runs over the committed replay corpus.
func BuildGoldenCached(name string, trace *blktrace.Trace, spec experiments.CacheSpec) (*Golden, error) {
	st := blktrace.ComputeStats(trace)
	g := &Golden{
		Name: name,
		Trace: TraceInfo{
			Device:     trace.Device,
			Bunches:    st.Bunches,
			IOs:        st.IOs,
			TotalBytes: st.TotalBytes,
			DurationNs: int64(st.Duration),
		},
	}
	cfg := experiments.DefaultConfig()
	for _, kind := range goldenKinds {
		for _, load := range goldenLoads {
			s, err := experiments.Build(cfg, experiments.StackSpec{Kind: kind, Cache: &spec})
			if err != nil {
				return nil, fmt.Errorf("golden %s: %w", name, err)
			}
			res, err := ReplayChecked(s.Engine, s.Device, trace, Options{Load: load})
			if err != nil {
				return nil, fmt.Errorf("golden %s %s load %v: %w", name, kind, load, err)
			}
			if err := res.Report.Err(); err != nil {
				return nil, fmt.Errorf("golden %s %s load %v: %w", name, kind, load, err)
			}
			st := s.Array.Stats()
			r := res.Replay
			eff := metrics.NewEfficiency(r.IOPS, r.MBPS, res.MeanWatts, res.EnergyJ)
			g.Runs = append(g.Runs, GoldenRun{
				Kind: kind.String(), Load: load,
				Issued: r.Issued, Completed: r.Completed, Bytes: r.Bytes,
				IOPS: r.IOPS, MBPS: r.MBPS,
				MeanResponseMs: r.MeanResponse.Seconds() * 1000,
				MaxResponseMs:  r.MaxResponse.Seconds() * 1000,
				P50ResponseMs:  r.P50Response.Seconds() * 1000,
				P95ResponseMs:  r.P95Response.Seconds() * 1000,
				P99ResponseMs:  r.P99Response.Seconds() * 1000,
				MeanWatts:      res.MeanWatts, EnergyJ: res.EnergyJ,
				IOPSPerWatt: eff.IOPSPerWatt, MBPSPerKW: eff.MBPSPerKW,
				DiskReads: st.DiskReads, DiskWrites: st.DiskWrites,
				ParityReads: st.ParityReads, ParityWrites: st.ParityWrites,
			})
		}
	}
	return g, nil
}

// CompareCacheGolden diffs got against want: strings and integers
// exactly, floats within tol.  One human-readable line per mismatch.
func CompareCacheGolden(want, got *CacheGolden, tol float64) []string {
	var diffs []string
	intf := func(field string, w, g int64) {
		if w != g {
			diffs = append(diffs, fmt.Sprintf("%s: want %d, got %d", field, w, g))
		}
	}
	flt := func(field string, w, g float64) {
		if !withinTol(w, g, tol) {
			diffs = append(diffs, fmt.Sprintf("%s: want %.9g, got %.9g (tol %g)", field, w, g, tol))
		}
	}
	if want.Trace.Device != got.Trace.Device {
		diffs = append(diffs, fmt.Sprintf("trace.device: want %q, got %q", want.Trace.Device, got.Trace.Device))
	}
	intf("trace.bunches", int64(want.Trace.Bunches), int64(got.Trace.Bunches))
	intf("trace.ios", int64(want.Trace.IOs), int64(got.Trace.IOs))
	intf("trace.total_bytes", want.Trace.TotalBytes, got.Trace.TotalBytes)
	intf("trace.duration_ns", want.Trace.DurationNs, got.Trace.DurationNs)
	if want.Kind != got.Kind {
		diffs = append(diffs, fmt.Sprintf("kind: want %q, got %q", want.Kind, got.Kind))
	}
	intf("seed", int64(want.Seed), int64(got.Seed))
	if len(want.Rows) != len(got.Rows) {
		diffs = append(diffs, fmt.Sprintf("rows: want %d, got %d", len(want.Rows), len(got.Rows)))
		return diffs
	}
	for i := range want.Rows {
		w, g := &want.Rows[i], &got.Rows[i]
		pfx := fmt.Sprintf("rows[%d] (%s load %v)", i, w.Spec, w.Load)
		if w.Spec != g.Spec || w.Tier != g.Tier {
			diffs = append(diffs, fmt.Sprintf("%s: spec changed to %s/%s", pfx, g.Spec, g.Tier))
			continue
		}
		flt(pfx+".load", w.Load, g.Load)
		flt(pfx+".hit_rate", w.HitRate, g.HitRate)
		flt(pfx+".iops", w.IOPS, g.IOPS)
		flt(pfx+".mean_watts", w.MeanWatts, g.MeanWatts)
		flt(pfx+".iops_per_watt", w.IOPSPerWatt, g.IOPSPerWatt)
		flt(pfx+".mean_ms", w.MeanMs, g.MeanMs)
		flt(pfx+".p99_ms", w.P99Ms, g.P99Ms)
		flt(pfx+".energy_j", w.EnergyJ, g.EnergyJ)
		intf(pfx+".hits", w.Hits, g.Hits)
		intf(pfx+".misses", w.Misses, g.Misses)
		intf(pfx+".writebacks", w.Writebacks, g.Writebacks)
		intf(pfx+".writeback_bytes", w.WritebackBytes, g.WritebackBytes)
	}
	return diffs
}

// ReadCacheGolden loads a committed cache golden document.
func ReadCacheGolden(path string) (*CacheGolden, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g CacheGolden
	if err := json.Unmarshal(blob, &g); err != nil {
		return nil, fmt.Errorf("cache golden %s: %w", path, err)
	}
	return &g, nil
}

// WriteCacheGolden commits a cache golden document.
func WriteCacheGolden(path string, g *CacheGolden) error {
	blob, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// VerifyCache runs the cache conformance pass:
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
func VerifyCache(dir, corpusDir string, opts VerifyOptions, out io.Writer) error {
	tol := opts.Tol
	if tol <= 0 {
		tol = DefaultTol
	}
	failed, total := 0, 0
	var firstErr error
	fail := func(name string, err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
		fmt.Fprintf(out, "FAIL %s: %v\n", name, err)
	}

	// Pass-through gate over the replay corpus.
	if corpusDir != "" {
		paths, err := filepath.Glob(filepath.Join(corpusDir, "*"+TraceSuffix))
		if err != nil {
			return err
		}
		sort.Strings(paths)
		for _, tracePath := range paths {
			name := "passthrough/" + strings.TrimSuffix(filepath.Base(tracePath), TraceSuffix)
			goldenPath := strings.TrimSuffix(tracePath, TraceSuffix) + GoldenSuffix
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				continue // trace without a committed golden; nothing to cross-check
			}
			total++
			trace, err := LoadFixtureTrace(tracePath)
			if err != nil {
				fail(name, err)
				continue
			}
			g, err := BuildGoldenCached(strings.TrimSuffix(filepath.Base(tracePath), TraceSuffix), trace, experiments.CacheSpec{})
			if err != nil {
				fail(name, err)
				continue
			}
			got, err := json.MarshalIndent(g, "", "  ")
			if err != nil {
				fail(name, err)
				continue
			}
			got = append(got, '\n')
			if !bytes.Equal(want, got) {
				fail(name, fmt.Errorf("zero-capacity cache output differs from committed %s", filepath.Base(goldenPath)))
				continue
			}
			fmt.Fprintf(out, "PASS %s (byte-identical)\n", name)
		}
	}

	// Fixture gate.
	paths, err := filepath.Glob(filepath.Join(dir, "*"+TraceSuffix))
	if err != nil {
		return err
	}
	if len(paths) == 0 && opts.Update {
		path := filepath.Join(dir, "idle-web"+TraceSuffix)
		if err := writeFixtureTrace(path, CacheFixtureTrace()); err != nil {
			return err
		}
		fmt.Fprintf(out, "CREATED %s\n", path)
		paths = []string{path}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return fmt.Errorf("verify cache: no %s fixtures under %s (run with -update to bootstrap)", TraceSuffix, dir)
	}
	artifactDone := false
	for _, tracePath := range paths {
		total++
		name := strings.TrimSuffix(filepath.Base(tracePath), TraceSuffix)
		goldenPath := strings.TrimSuffix(tracePath, TraceSuffix) + CacheGoldenSuffix
		trace, err := LoadFixtureTrace(tracePath)
		if err != nil {
			fail(name, err)
			continue
		}
		got, err := CacheChecked(name, trace)
		if err != nil {
			fail(name, err)
			continue
		}
		if opts.Update {
			if err := WriteCacheGolden(goldenPath, got); err != nil {
				fail(name, err)
				continue
			}
			fmt.Fprintf(out, "UPDATED %s (%d rows)\n", name, len(got.Rows))
			continue
		}
		want, err := ReadCacheGolden(goldenPath)
		if err != nil {
			fail(name, fmt.Errorf("%w (run with -update to create)", err))
			continue
		}
		diffs := CompareCacheGolden(want, got, tol)
		if len(diffs) == 0 {
			fmt.Fprintf(out, "PASS %s (%d rows)\n", name, len(got.Rows))
			continue
		}
		fail(name, fmt.Errorf("%d mismatch(es)", len(diffs)))
		for _, d := range diffs {
			fmt.Fprintf(out, "  %s\n", d)
		}
		if opts.TelemetryDir != "" && !artifactDone {
			artifactDone = true
			writeCacheFailureTelemetry(opts.TelemetryDir, name, trace, out)
		}
	}
	if failed > 0 {
		return fmt.Errorf("verify cache: %d of %d checks failed: %w", failed, total, firstErr)
	}
	return nil
}

// writeCacheFailureTelemetry re-runs a failing fixture's DRAM gate
// cell with full instrumentation (cache probes, tier power channel)
// and exports the artifact directory.  Export problems are reported
// but never mask the verification failure.
func writeCacheFailureTelemetry(dir, name string, trace *blktrace.Trace, out io.Writer) {
	set := telemetry.New(telemetry.Options{})
	cfg := cacheConfig(1)
	load := cfg.Loads[len(cfg.Loads)-1]
	gateSpec := cacheGateSpec()
	s, err := experiments.Build(cfg, experiments.StackSpec{Kind: cacheGoldenKind, Cache: &gateSpec})
	if err == nil {
		_, err = experiments.Measure(s, trace, replay.UniformFilter{Proportion: load}, set)
	}
	if err != nil {
		fmt.Fprintf(out, "  telemetry capture for %s failed: %v\n", name, err)
		return
	}
	if err := set.WriteDir(dir); err != nil {
		fmt.Fprintf(out, "  telemetry export for %s failed: %v\n", name, err)
		return
	}
	fmt.Fprintf(out, "  telemetry for %s (%s load %v) written to %s\n", name, cacheGateSpec().Label(), load, dir)
}
