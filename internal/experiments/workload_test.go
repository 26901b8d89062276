package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simtime"
)

func workloadCfg(workers int) Config {
	cfg := DefaultConfig()
	cfg.CollectDuration = simtime.Second
	cfg.Workers = workers
	return cfg
}

func TestWorkloadStudy(t *testing.T) {
	res, err := WorkloadStudy(workloadCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil || res.Profile.IOs == 0 {
		t.Fatalf("profile = %+v", res.Profile)
	}
	if res.Baseline.Result.IOPS <= 0 || res.Baseline.Power.Watts <= 0 {
		t.Fatalf("baseline = %+v", res.Baseline)
	}
	if len(res.Rows) != len(DefaultWorkloadVariants()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.IOPS <= 0 || row.Eff.IOPSPerWatt <= 0 {
			t.Fatalf("row %s = %+v", row.Variant.Label, row)
		}
		// No variant runs the array into saturation, so the measured
		// load proportion must track the configured one.
		if row.ErrRate > 0.10 {
			t.Errorf("%s: measured LP %.3f vs configured %.2f (err %.1f%%)",
				row.Variant.Label, row.MeasuredLP, row.ConfiguredLP, row.ErrRate*100)
		}
	}
	// The mix overrides must actually change the synthesized mix: on
	// RAID-5, write-heavy traffic costs parity work, so the read-heavy
	// variant cannot be slower than the write-heavy one.
	var readHeavy, writeHeavy WorkloadRow
	for _, row := range res.Rows {
		switch row.Variant.Label {
		case "read-90%":
			readHeavy = row
		case "read-10%":
			writeHeavy = row
		}
	}
	if readHeavy.Eff.MBPSPerKW < writeHeavy.Eff.MBPSPerKW {
		t.Errorf("read-heavy MBPS/kW %.3f < write-heavy %.3f",
			readHeavy.Eff.MBPSPerKW, writeHeavy.Eff.MBPSPerKW)
	}

	var buf bytes.Buffer
	RenderWorkloadStudy(&buf, res)
	out := buf.String()
	for _, want := range []string{"workload characterization study", "baseline", "reproduce", "load-50%", "read-10%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// The study must not depend on worker-pool scheduling: 1 worker and 8
// workers have to produce identical tables.
func TestWorkloadStudyDeterministicAcrossWorkers(t *testing.T) {
	seq, err := WorkloadStudy(workloadCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := WorkloadStudy(workloadCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Rows, par.Rows) {
		t.Fatalf("rows diverge across worker counts:\n1: %+v\n8: %+v", seq.Rows, par.Rows)
	}
	if math.Abs(seq.Baseline.Result.IOPS-par.Baseline.Result.IOPS) > 1e-9 {
		t.Fatalf("baseline diverges: %v vs %v", seq.Baseline.Result.IOPS, par.Baseline.Result.IOPS)
	}
}
