package check

import (
	"fmt"
	"testing"

	"repro/internal/fleet"
)

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
