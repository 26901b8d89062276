// Cache-tier benchmark: the "cache" experiment measures replay
// event throughput with the writeback cache on and off, across pinned
// hit-rate levels, and emits BENCH_cache.json so overhead regressions
// in the cache front end are diffable across commits.  Wall-clock
// output, so it only runs on explicit request (like kernel/workload).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// cacheBenchOut is where the "cache" experiment writes its JSON
// report; set by the -cache-benchout flag.
var cacheBenchOut = "BENCH_cache.json"

// cacheBenchIOs is the access count per measured replay.
const cacheBenchIOs = 20000

// cacheBenchRow is one measured configuration.
type cacheBenchRow struct {
	Config    string  `json:"config"`
	TargetHit float64 `json:"target_hit_rate"`
	HitRate   float64 `json:"hit_rate"`
	IOs       int64   `json:"ios"`
	Events    uint64  `json:"events"`
	Seconds   float64 `json:"seconds"`
	EventsPS  float64 `json:"events_per_s"`
	IOsPS     float64 `json:"ios_per_s"`
}

// cacheBenchReport is the top-level BENCH_cache.json document.
type cacheBenchReport struct {
	IOs  int             `json:"ios"`
	Tier string          `json:"tier"`
	MB   float64         `json:"capacity_mb"`
	Rows []cacheBenchRow `json:"rows"`
}

// cacheBenchTrace builds a deterministic 4 KiB read stream whose
// steady-state hit rate is pinned by construction: a round-robin hot
// set small enough to stay resident supplies the hits, and a monotone
// cold stream of never-reused extents supplies the misses.  target 0
// yields the all-miss stream; target h inserts one cold access every
// round(1/(1-h)) accesses.
func cacheBenchTrace(target float64) *blktrace.Trace {
	const extent = cache.DefaultExtentBytes
	const hotExtents = 32 // 2 MiB hot set, far under the 32 MiB tier
	missEvery := 1
	if target > 0 {
		missEvery = int(math.Round(1 / (1 - target)))
	}
	tr := &blktrace.Trace{Device: fmt.Sprintf("cache-bench-h%02.0f", target*100)}
	cold, hot := int64(0), int64(0)
	for i := 0; i < cacheBenchIOs; i++ {
		var sector int64
		if (i+1)%missEvery == 0 {
			// Cold extents start beyond the hot set and never repeat.
			sector = (hotExtents + cold) * extent / storage.SectorSize
			cold++
		} else {
			sector = (hot % hotExtents) * extent / storage.SectorSize
			hot++
		}
		tr.Bunches = append(tr.Bunches, blktrace.Bunch{
			Time:     simtime.Duration(i) * simtime.Millisecond,
			Packages: []blktrace.IOPackage{{Sector: sector, Size: 4 << 10, Op: storage.Read}},
		})
	}
	return tr
}

// benchCache replays each pinned-hit-rate stream through the bare HDD
// array and through the same array behind the 32 MiB DRAM tier,
// reporting simulation events/s and checking every measured hit rate
// lands on its target.
func benchCache(cfg experiments.Config, w io.Writer) error {
	spec := experiments.CacheSpec{Tier: cache.TierDRAM, CapacityMB: 32}
	report := cacheBenchReport{IOs: cacheBenchIOs, Tier: spec.Tier, MB: spec.CapacityMB}
	targets := []float64{0, 0.5, 0.95}

	fmt.Fprintln(w, "config\ttarget%\thit%\tevents\tseconds\tevents/s\tIOs/s")
	row := func(r cacheBenchRow) {
		report.Rows = append(report.Rows, r)
		fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%d\t%.3f\t%.0f\t%.0f\n",
			r.Config, r.TargetHit*100, r.HitRate*100, r.Events, r.Seconds, r.EventsPS, r.IOsPS)
	}
	for _, target := range targets {
		tr := cacheBenchTrace(target)

		// Uncached baseline.
		s, err := experiments.Build(cfg, experiments.StackSpec{Kind: experiments.HDDArray})
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := replay.Replay(s.Engine, s.Device, tr, replay.Options{})
		if err != nil {
			return err
		}
		secs := time.Since(start).Seconds()
		row(cacheBenchRow{
			Config: "uncached", TargetHit: target,
			IOs: res.Completed, Events: s.Engine.Fired(), Seconds: secs,
			EventsPS: float64(s.Engine.Fired()) / secs,
			IOsPS:    float64(res.Completed) / secs,
		})

		// Cached run on a fresh system.
		if s, err = experiments.Build(cfg, experiments.StackSpec{Kind: experiments.HDDArray, Cache: &spec}); err != nil {
			return err
		}
		start = time.Now()
		res, err = replay.Replay(s.Engine, s.Device, tr, replay.Options{})
		if err != nil {
			return err
		}
		secs = time.Since(start).Seconds()
		stats := s.Cache.Stats()
		r := cacheBenchRow{
			Config: spec.Label(), TargetHit: target, HitRate: stats.HitRate(),
			IOs: res.Completed, Events: s.Engine.Fired(), Seconds: secs,
			EventsPS: float64(s.Engine.Fired()) / secs,
			IOsPS:    float64(res.Completed) / secs,
		}
		// The pinned streams must land on their targets, or the bench is
		// not measuring what its config column claims.
		if math.Abs(r.HitRate-target) > 0.03 {
			return fmt.Errorf("cache bench: target hit rate %.0f%% measured %.1f%%", target*100, r.HitRate*100)
		}
		row(r)
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cacheBenchOut, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "report written to %s\n", cacheBenchOut)
	return nil
}
