package check

// Fleet conformance: the fleet coordinator promises results — and the
// exported telemetry summary — byte-identical at any worker count,
// because every routing and admission decision happens on the
// coordinator at window barriers and each array's variate sequence is
// fixed by its fleet index.  FleetChecked runs a canonical fleet
// workload, validates the conservation and invariant gates, and hands
// back the summary.json bytes so the test can diff worker counts
// byte-for-byte.

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// FleetChecked runs the canonical fleet workload — least-loaded
// placement with a token bucket tight enough to reject — on a fleet of
// the given size, verifies the accounting and per-array invariants,
// and returns the run result plus the telemetry summary.json bytes.
func FleetChecked(arrays, workers int) (*fleet.Result, []byte, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = 7
	f, err := fleet.New(cfg, experiments.HDDArray, arrays, workers)
	if err != nil {
		return nil, nil, err
	}
	stream := fleet.NewSynthStream(fleet.SynthParams{
		Duration:   400 * simtime.Millisecond,
		MeanIOPS:   float64(16 * arrays),
		Clients:    256,
		Size:       16 << 10,
		ReadRatio:  0.6,
		WorkingSet: 1 << 30,
		Seed:       99,
	})
	set := telemetry.New(telemetry.Options{})
	res, err := f.Run(stream, fleet.Options{
		Policy:    fleet.NewLeastLoaded(),
		Admission: fleet.NewTokenBucket(float64(12*arrays), float64(arrays)),
		Telemetry: set,
	})
	if err != nil {
		return nil, nil, err
	}

	if res.Offered != res.Admitted+res.Rejected {
		return nil, nil, fmt.Errorf("fleet: offered %d != admitted %d + rejected %d",
			res.Offered, res.Admitted, res.Rejected)
	}
	if res.Admitted != res.Completed {
		return nil, nil, fmt.Errorf("fleet: admitted %d != completed %d", res.Admitted, res.Completed)
	}
	if res.Rejected == 0 {
		return nil, nil, fmt.Errorf("fleet: canonical workload should exercise rejection accounting")
	}
	for i, e := range f.Engines() {
		if n := e.Pending(); n != 0 {
			return nil, nil, fmt.Errorf("fleet: array %d: %d events pending after run", i, n)
		}
	}
	for i, a := range f.Arrays() {
		if err := a.CheckInvariants(); err != nil {
			return nil, nil, fmt.Errorf("fleet: array %d: %w", i, err)
		}
	}

	summary, err := exportSummary(set)
	if err != nil {
		return nil, nil, err
	}
	return res, summary, nil
}

// TestFleetDeterminismGate: the canonical 64-array fleet produces a
// byte-identical telemetry summary at every worker count.
func TestFleetDeterminismGate(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet gate is heavy; skipped in -short")
	}
	res, err := sameAtWorkers("summary.json", func(workers int) (*fleet.Result, []byte, error) {
		res, summary, err := FleetChecked(64, workers)
		if err != nil {
			return nil, nil, err
		}
		if res.Workers != workers {
			return nil, nil, fmt.Errorf("result workers %d, want %d", res.Workers, workers)
		}
		return res, fmt.Appendf(summary, "completed %d\n", res.Completed), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("canonical fleet completed nothing")
	}
}
