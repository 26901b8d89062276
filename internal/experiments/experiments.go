// Package experiments regenerates every table and figure of the
// paper's evaluation (Section VI) on the simulated testbed.  Each
// experiment function returns structured rows/series; Render* helpers
// print them in the shape the paper reports, and bench_test.go at the
// repository root exposes one testing.B benchmark per experiment.
//
// Durations are scaled down from the paper's minutes to seconds of
// virtual time by default — the simulated array is deterministic, so
// shorter runs measure the same steady-state behaviour.  Use Config to
// lengthen runs for tighter statistics.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/blktrace"
	"repro/internal/metrics"
	"repro/internal/parsweep"
	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// Config scales the experiments.
type Config struct {
	// CollectDuration is the virtual time each synthetic peak trace is
	// collected for (paper: ~2 minutes; default here: 2 s).
	CollectDuration simtime.Duration
	// QueueDepth is the IOmeter-style outstanding-IO count.
	QueueDepth int
	// HDDs and SSDs are the member counts of the two arrays under
	// test (paper: 6 HDDs, 4 SSDs).
	HDDs, SSDs int
	// WorkingSet bounds the address region the generators exercise.
	WorkingSet int64
	// Loads are the configured load proportions of the sweep
	// experiments (paper: 10%..100%).
	Loads []float64
	// Seed drives every generator in the experiment.
	Seed uint64
	// Workers bounds the parallel sweep executor: independent
	// simulation cells (one fresh engine + array each) fan out across
	// this many goroutines.  0 uses GOMAXPROCS; 1 forces sequential
	// execution.  Results are identical at any setting — every cell is
	// seeded and self-contained, and parsweep.Map orders results by
	// cell index.
	Workers int
}

// DefaultConfig returns the scaled-down defaults used by tests and
// benches.
func DefaultConfig() Config {
	return Config{
		CollectDuration: 2 * simtime.Second,
		QueueDepth:      8,
		HDDs:            6,
		SSDs:            4,
		WorkingSet:      8 << 30,
		Loads:           []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		Seed:            1,
	}
}

// normalize fills zero fields with defaults.
func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.CollectDuration <= 0 {
		c.CollectDuration = d.CollectDuration
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.HDDs <= 0 {
		c.HDDs = d.HDDs
	}
	if c.SSDs <= 0 {
		c.SSDs = d.SSDs
	}
	if c.WorkingSet <= 0 {
		c.WorkingSet = d.WorkingSet
	}
	if len(c.Loads) == 0 {
		c.Loads = d.Loads
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// ArrayKind selects the system under test.
type ArrayKind int

const (
	// HDDArray is the 6x Seagate 7200.12 RAID-5 of Table II.
	HDDArray ArrayKind = iota
	// SSDArray is the 4x Memoright SLC RAID-5 of Section VI-G.
	SSDArray
)

// String names the kind.
func (k ArrayKind) String() string {
	if k == SSDArray {
		return "raid5-ssd"
	}
	return "raid5-hdd"
}

// NewSystem provisions a pristine simulated array of the given kind on
// a fresh engine; commands and examples share it with the experiment
// harnesses.  It is fleet member 0 (see NewFleetMember).
func NewSystem(cfg Config, kind ArrayKind) (*simtime.Engine, *raid.Array, error) {
	return NewFleetMember(cfg, kind, 0)
}

// KindFromString parses "hdd"/"ssd" (or the full array labels).
func KindFromString(s string) (ArrayKind, error) {
	switch s {
	case "hdd", "raid5-hdd", "":
		return HDDArray, nil
	case "ssd", "raid5-ssd":
		return SSDArray, nil
	default:
		return 0, fmt.Errorf("unknown array kind %q (want hdd or ssd)", s)
	}
}

// collectTrace collects a peak trace for mode on a pristine array.
func collectTrace(cfg Config, kind ArrayKind, mode synth.Mode) (*blktrace.Trace, error) {
	e, a, err := NewSystem(cfg, kind)
	if err != nil {
		return nil, err
	}
	return synth.Collect(e, a, synth.CollectParams{
		Mode:            mode,
		Duration:        cfg.CollectDuration,
		QueueDepth:      cfg.QueueDepth,
		WorkingSetBytes: cfg.WorkingSet,
		Seed:            cfg.Seed,
	})
}

// Measurement is one (load level, trace) replay measurement with power.
type Measurement struct {
	// Load is the configured load proportion.
	Load float64
	// Result is the replay's performance outcome.
	Result *replay.Result
	// Power is the metered mean wall power over the run.
	Power float64
	// Eff derives the paper's combined metrics.
	Eff metrics.Efficiency
}

// measureReplay replays trace on a fresh array at the given load and
// meters wall power over the run.
func measureReplay(cfg Config, kind ArrayKind, trace *blktrace.Trace, f replay.Filter) (*Measurement, error) {
	e, a, err := NewSystem(cfg, kind)
	if err != nil {
		return nil, err
	}
	res, err := replay.ReplayFiltered(e, a, trace, f, replay.Options{})
	if err != nil {
		return nil, err
	}
	meter := powersim.DefaultMeter(a.PowerSource())
	meter.Seed = cfg.Seed
	samples := meter.Measure(res.Start, res.End)
	watts := powersim.MeanWatts(samples)
	m := &Measurement{
		Result: res,
		Power:  watts,
		Eff:    metrics.NewEfficiency(res.IOPS, res.MBPS, watts, powersim.EnergyJ(samples)),
	}
	if uf, ok := f.(replay.UniformFilter); ok {
		m.Load = uf.Proportion
	}
	return m, nil
}

// measureAtLoad is measureReplay with the paper's uniform filter.
func measureAtLoad(cfg Config, kind ArrayKind, trace *blktrace.Trace, load float64) (*Measurement, error) {
	return measureReplay(cfg, kind, trace, replay.UniformFilter{Proportion: load})
}

// pmap fans n independent simulation cells across cfg.Workers
// goroutines via the parsweep executor; results come back ordered by
// cell index, so output is identical to a sequential run.
func pmap[T any](cfg Config, n int, label func(i int) string, fn func(i int) (T, error)) ([]T, error) {
	opts := parsweep.Options{Workers: cfg.Workers, Label: label}
	return parsweep.Map(context.Background(), opts, n, fn)
}

// loadSweep measures the trace at every configured load level, one
// parallel cell per level.
func loadSweep(cfg Config, kind ArrayKind, trace *blktrace.Trace) ([]Measurement, error) {
	return pmap(cfg, len(cfg.Loads),
		func(i int) string { return fmt.Sprintf("load %v", cfg.Loads[i]) },
		func(i int) (Measurement, error) {
			m, err := measureAtLoad(cfg, kind, trace, cfg.Loads[i])
			if err != nil {
				return Measurement{}, err
			}
			return *m, nil
		})
}

// CollectModeTrace collects a peak trace for mode on a pristine array —
// the exported building block sweep tools use to fan trace collection
// across cores.
func CollectModeTrace(cfg Config, kind ArrayKind, mode synth.Mode) (*blktrace.Trace, error) {
	return collectTrace(cfg.normalize(), kind, mode)
}

// MeasureAtLoad replays trace on a fresh array at the given load
// proportion and meters wall power — the exported per-cell measurement
// sweep tools fan out with CollectModeTrace.
func MeasureAtLoad(cfg Config, kind ArrayKind, trace *blktrace.Trace, load float64) (*Measurement, error) {
	return measureAtLoad(cfg.normalize(), kind, trace, load)
}

// ModeSweep collects a peak trace for mode on a pristine array of the
// given kind and measures it at every configured load level — the
// building block of the paper's 125-trace x 10-load sweep (Section VI
// step 1).
func ModeSweep(cfg Config, kind ArrayKind, mode synth.Mode) ([]Measurement, error) {
	cfg = cfg.normalize()
	trace, err := collectTrace(cfg, kind, mode)
	if err != nil {
		return nil, err
	}
	return loadSweep(cfg, kind, trace)
}

// sizeLabel renders request sizes the way the paper's legends do.
func sizeLabel(bytes int64) string {
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%dMB", bytes>>20)
	case bytes >= 1<<10:
		return fmt.Sprintf("%dKB", bytes>>10)
	default:
		return fmt.Sprintf("%dB", bytes)
	}
}
