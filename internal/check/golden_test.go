package check

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// -update regenerates the committed golden JSON documents:
//
//	go test ./internal/check -run TestGoldenCorpus -update
var update = flag.Bool("update", false, "rewrite golden fixture outputs instead of diffing")

// TestGoldenCorpus re-runs every committed fixture and diffs against
// the committed outputs (or regenerates them under -update).
func TestGoldenCorpus(t *testing.T) {
	var buf bytes.Buffer
	err := verifyGolden("testdata/golden", VerifyOptions{Update: *update}, &buf)
	t.Log("\n" + buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if !*update && strings.Count(buf.String(), "PASS") < 3 {
		t.Fatalf("corpus smaller than expected:\n%s", buf.String())
	}
}

// copyCorpusTraces copies only the fixture traces (not the goldens)
// into a fresh directory.
func copyCorpusTraces(t *testing.T, dst string) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata/golden", "*"+TraceSuffix))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus traces: %v", err)
	}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(p)), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(paths)
}

// TestGoldenUpdateRegenerates exercises the full -update flow against a
// scratch copy of the corpus: regeneration creates goldens that then
// verify clean, and a tampered golden is caught with a field-level
// diff.
func TestGoldenUpdateRegenerates(t *testing.T) {
	dir := t.TempDir()
	n := copyCorpusTraces(t, dir)

	// Verifying without goldens fails and points at -update.
	if err := verifyGolden(dir, VerifyOptions{}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-update") {
		t.Fatalf("missing goldens not reported: %v", err)
	}

	var buf bytes.Buffer
	if err := verifyGolden(dir, VerifyOptions{Update: true}, &buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "UPDATED"); got != n {
		t.Fatalf("updated %d of %d fixtures:\n%s", got, n, buf.String())
	}
	if err := verifyGolden(dir, VerifyOptions{}, &bytes.Buffer{}); err != nil {
		t.Fatalf("freshly regenerated corpus does not verify: %v", err)
	}

	// Tamper one golden: a 1% IOPS shift must be flagged.
	goldens, err := filepath.Glob(filepath.Join(dir, "*"+GoldenSuffix))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no goldens written: %v", err)
	}
	g, err := readGolden[Golden](goldens[0])
	if err != nil {
		t.Fatal(err)
	}
	g.Runs[0].IOPS *= 1.01
	if err := writeGolden(goldens[0], g); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err = verifyGolden(dir, VerifyOptions{}, &buf)
	if err == nil || !strings.Contains(buf.String(), ".iops") {
		t.Fatalf("tampered golden not caught: err=%v\n%s", err, buf.String())
	}
}

// TestCompareGoldenTolerance pins the tolerance policy: floats within
// the relative tolerance pass, floats beyond it and any integer or
// string change fail, each with one diff naming the field.
func TestCompareGoldenTolerance(t *testing.T) {
	base := &Golden{
		Name:  "x",
		Trace: TraceInfo{Device: "d", Bunches: 2, IOs: 4, TotalBytes: 4096, DurationNs: 100},
		Runs: []GoldenRun{{
			Kind: "raid5-hdd", Load: 1, Issued: 4, Completed: 4, Bytes: 4096,
			IOPS: 100, MeanWatts: 50.5, EnergyJ: 12.25, DiskWrites: 8,
		}},
	}
	cases := []struct {
		name  string
		mut   func(*Golden)
		diffs int
		field string
	}{
		{"within tolerance", func(g *Golden) { g.Runs[0].IOPS *= 1 + 1e-8 }, 0, ""},
		{"out of tolerance", func(g *Golden) { g.Runs[0].IOPS *= 1 + 1e-4 }, 1, "runs[0].iops"},
		{"integer drift", func(g *Golden) { g.Runs[0].DiskWrites++ }, 1, "runs[0].disk_writes"},
		{"name", func(g *Golden) { g.Name = "zzz" }, 1, "name"},
	}
	for _, tc := range cases {
		clone := *base
		runs := make([]GoldenRun, len(base.Runs))
		copy(runs, base.Runs)
		clone.Runs = runs
		tc.mut(&clone)
		diffs := diffGolden(base, &clone, DefaultTol)
		if len(diffs) != tc.diffs || (tc.diffs > 0 && !strings.HasPrefix(diffs[0], tc.field+": ")) {
			t.Errorf("%s: diffs %q, want %d naming %q", tc.name, diffs, tc.diffs, tc.field)
		}
	}
}

// TestDiffGoldenReportsKindsWithoutARule pins that a field of a kind
// the diff has no rule for is reported even when both sides agree, so a
// golden struct can never gain a field the gate silently passes.
func TestDiffGoldenReportsKindsWithoutARule(t *testing.T) {
	type doc struct {
		On  bool `json:"on"`
		Any any  `json:"any"`
	}
	diffs := diffGolden(&doc{On: true, Any: 1}, &doc{On: true, Any: 1}, DefaultTol)
	if len(diffs) != 2 || !strings.HasPrefix(diffs[0], "on: ") || !strings.HasPrefix(diffs[1], "any: ") {
		t.Fatalf("diffs %q, want one per field without a rule", diffs)
	}
}

// TestVerifyGoldenEmptyDir requires a non-empty corpus.
func TestVerifyGoldenEmptyDir(t *testing.T) {
	if err := verifyGolden(t.TempDir(), VerifyOptions{}, &bytes.Buffer{}); err == nil {
		t.Fatal("empty corpus passed")
	}
}

// TestVerifyGoldenTruncatedFixture is the regression for the
// truncated-trace satellite: a fixture cut mid-bunch must surface as a
// labelled error naming the file, not a panic.
func TestVerifyGoldenTruncatedFixture(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "cut"+TraceSuffix)
	text := "# blktrace-text v1\ndevice cut\nB 0 3\n0 4096 R\n8 4096 R\n"
	if err := os.WriteFile(bad, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	err := verifyGolden(dir, VerifyOptions{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "cut"+TraceSuffix) {
		t.Fatalf("truncated fixture not labelled: %v", err)
	}
}

// TestVerifyGoldenContinuesPastFailure pins the partial-failure
// contract for every gate on the shared fixture walk: one broken
// fixture must not stop the rest of the corpus from verifying, and the
// summary error counts every failure.
func TestVerifyGoldenContinuesPastFailure(t *testing.T) {
	gates := []struct {
		name   string
		verify func(dir string, out io.Writer) error
	}{
		{"golden", func(dir string, out io.Writer) error { return verifyGolden(dir, VerifyOptions{}, out) }},
		{"fidelity", func(dir string, out io.Writer) error { return verifyFidelity(dir, out) }},
	}
	for _, gate := range gates {
		t.Run(gate.name, func(t *testing.T) {
			dir := t.TempDir()
			n := copyCorpusTraces(t, dir)
			if err := verifyGolden(dir, VerifyOptions{Update: true}, &bytes.Buffer{}); err != nil {
				t.Fatal(err)
			}
			// An unreadable fixture sorted first must not shadow the healthy rest.
			bad := filepath.Join(dir, "aaa-cut"+TraceSuffix)
			text := "# blktrace-text v1\ndevice cut\nB 0 3\n0 4096 R\n8 4096 R\n"
			if err := os.WriteFile(bad, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			err := gate.verify(dir, &buf)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("1 of %d fixtures failed", n+1)) {
				t.Fatalf("summary error = %v", err)
			}
			if got := strings.Count(buf.String(), "PASS"); got != n {
				t.Fatalf("healthy fixtures after the broken one: %d PASS, want %d\n%s", got, n, buf.String())
			}
			if !strings.Contains(buf.String(), "FAIL aaa-cut") {
				t.Fatalf("broken fixture not reported:\n%s", buf.String())
			}
		})
	}
}

// TestVerifyGoldenFailureTelemetry checks the diagnostic export: a
// diff failure with TelemetryDir set leaves a parseable artifact
// directory for the first failing fixture.
func TestVerifyGoldenFailureTelemetry(t *testing.T) {
	dir := t.TempDir()
	copyCorpusTraces(t, dir)
	if err := verifyGolden(dir, VerifyOptions{Update: true}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	goldens, err := filepath.Glob(filepath.Join(dir, "*"+GoldenSuffix))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no goldens written: %v", err)
	}
	g, err := readGolden[Golden](goldens[0])
	if err != nil {
		t.Fatal(err)
	}
	g.Runs[0].Completed++
	if err := writeGolden(goldens[0], g); err != nil {
		t.Fatal(err)
	}
	telDir := filepath.Join(t.TempDir(), "telemetry")
	var buf bytes.Buffer
	if err := verifyGolden(dir, VerifyOptions{TelemetryDir: telDir}, &buf); err == nil {
		t.Fatal("tampered corpus passed")
	}
	sum, err := telemetry.ReadSummary(telDir)
	if err != nil {
		t.Fatalf("failure telemetry not written: %v\n%s", err, buf.String())
	}
	if sum.Spans == 0 {
		t.Fatalf("failure telemetry has no spans: %+v", sum)
	}
	if !strings.Contains(buf.String(), telDir) {
		t.Fatalf("telemetry path not reported:\n%s", buf.String())
	}
}
