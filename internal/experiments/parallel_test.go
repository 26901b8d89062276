package experiments

import (
	"reflect"
	"testing"

	"repro/internal/simtime"
	"repro/internal/synth"
)

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

// parallelTestConfig is a scaled-down config for the determinism
// regression tests: enough cells to keep several workers busy, short
// enough to stay fast under -race.  Workers is explicit because
// GOMAXPROCS may be 1 on small CI runners, which would silently turn
// Workers:0 into the sequential path and test nothing.
func parallelTestConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.CollectDuration = 500 * simtime.Millisecond
	cfg.Loads = []float64{0.25, 0.5, 1.0}
	cfg.Workers = workers
	return cfg
}

// TestModeSweepParallelDeterminism asserts the tentpole guarantee:
// fanning the load sweep across a worker pool yields results deep-equal
// to the sequential path, at any worker count.
func TestModeSweepParallelDeterminism(t *testing.T) {
	mode := synth.Mode{RequestBytes: 16 << 10, ReadRatio: 0.5, RandomRatio: 0.5}
	seq, err := ModeSweep(parallelTestConfig(1), HDDArray, mode)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := ModeSweep(parallelTestConfig(workers), HDDArray, mode)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: ModeSweep diverged from sequential result", workers)
		}
	}
}

// TestFig9ParallelDeterminism covers the flattened mode x load grid:
// the two-phase fan-out (collect traces, then measure every cell) must
// reassemble into exactly the sequential figure.
func TestFig9ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure grid in -short mode")
	}
	seq, err := Fig9(parallelTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig9(parallelTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("workers=4: Fig9 diverged from sequential result")
	}
}

// TestModeSweepRunToRunDeterminism pins the kernel-swap guarantee: the
// closure-free event kernel preserves exact (at, seq) FIFO dispatch, so
// two independent full ModeSweep runs — fresh engines, arrays and
// traces each time — must be deep-equal.  Any tie-break or ordering
// drift in the kernel shows up here as diverging measurements.
func TestModeSweepRunToRunDeterminism(t *testing.T) {
	mode := synth.Mode{RequestBytes: 64 << 10, ReadRatio: 0.9, RandomRatio: 0.1}
	first, err := ModeSweep(parallelTestConfig(1), HDDArray, mode)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ModeSweep(parallelTestConfig(1), HDDArray, mode)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two identical ModeSweep runs diverged")
	}
}
