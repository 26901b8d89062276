// Fleet conformance: the fleet coordinator promises results — and the
// exported telemetry summary — byte-identical at any worker count,
// because every routing and admission decision happens on the
// coordinator at window barriers and each array's variate sequence is
// fixed by its fleet index.  FleetChecked runs a canonical fleet
// workload, validates the conservation and invariant gates, and hands
// back the summary.json bytes so the test can diff worker counts
// byte-for-byte.
package check

import (
	"fmt"
	"os"
	"path/filepath"

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

	dir, err := os.MkdirTemp("", "check-fleet")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	if err := set.WriteDir(dir); err != nil {
		return nil, nil, err
	}
	summary, err := os.ReadFile(filepath.Join(dir, telemetry.SummaryFile))
	if err != nil {
		return nil, nil, err
	}
	return res, summary, nil
}
