package check

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestGoldenRoundTripFidelity is the acceptance gate for the workload
// characterization subsystem: for every golden corpus trace,
// analyze → synthesize → replay on the golden HDD array must agree
// with the original trace's replay within 10% on IOPS, MBPS, IOPS/Watt
// and MBPS/Kilowatt.
func TestGoldenRoundTripFidelity(t *testing.T) {
	var buf bytes.Buffer
	if err := verifyFidelity("testdata/golden", &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if got := strings.Count(buf.String(), "PASS"); got != 3 {
		t.Fatalf("expected 3 fixture passes, got %d:\n%s", got, buf.String())
	}
}

// The SSD array must also round-trip: same traces, different physics.
func TestRoundTripFidelitySSD(t *testing.T) {
	trace, err := LoadFixtureTrace("testdata/golden/mixed-rw.trace.txt")
	if err != nil {
		t.Fatal(err)
	}
	res, err := roundTripFidelity(trace, "mixed-rw", experiments.SSDArray)
	if err != nil {
		t.Fatal(err)
	}
	if bad := res.offenders(); len(bad) > 0 {
		t.Fatalf("fidelity %s on %s:\n  %s", res.Name, res.Kind, strings.Join(bad, "\n  "))
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells: %+v", res.Cells)
	}
}

func TestVerifyFidelityEmptyCorpus(t *testing.T) {
	var buf bytes.Buffer
	if err := verifyFidelity(t.TempDir(), &buf); err == nil {
		t.Fatal("empty corpus accepted")
	}
}
