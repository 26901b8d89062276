package check

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperCorpus runs the paper gate once against a copy of the
// committed golden with one line altered.  The gate must render the
// artifact table identically at workers 1, 2 and 8, fail naming the
// altered line, and export fresh text equal to the committed golden
// byte for byte, which is the gate passing on the committed corpus.
// Under -update it rewrites the committed golden instead.
func TestPaperCorpus(t *testing.T) {
	committed := filepath.Join("testdata/golden/paper", paperGolden)
	if *update {
		var buf bytes.Buffer
		if err := verifyPaper(filepath.Dir(committed), VerifyOptions{Update: true}, &buf); err != nil {
			t.Fatal(err)
		}
		t.Log(buf.String())
		return
	}
	want, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(want), "\n")
	if len(lines) < 300 || lines[0] != "=== fig7 ===\n" {
		t.Fatalf("committed golden is not the full artifact table: %d lines, first %q", len(lines), lines[0])
	}
	dir := t.TempDir()
	lines[1] = "tampered\n"
	if err := os.WriteFile(filepath.Join(dir, paperGolden), []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	telDir := filepath.Join(t.TempDir(), "paper")
	var buf bytes.Buffer
	err = verifyPaper(dir, VerifyOptions{TelemetryDir: telDir}, &buf)
	if err == nil || !strings.Contains(err.Error(), `at line 2: want "tampered"`) {
		t.Fatalf("tampered golden: error %v, want the altered line named\n%s", err, buf.String())
	}
	fresh, err := os.ReadFile(filepath.Join(telDir, "paper.txt"))
	if err != nil {
		t.Fatalf("fresh text not exported: %v\n%s", err, buf.String())
	}
	if !bytes.Equal(fresh, want) {
		t.Fatalf("fresh paper text differs from %s: %v", committed, diffGoldenBytes(committed, fresh))
	}
}

// TestPaperEmptyDirNeedsUpdate: without a committed golden the gate
// fails before rendering anything, pointing at the bootstrap.
func TestPaperEmptyDirNeedsUpdate(t *testing.T) {
	err := verifyPaper(t.TempDir(), VerifyOptions{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-update") {
		t.Fatalf("missing golden: %v", err)
	}
}

// TestVerifyRunsEveryGate: one Verify pass runs every gate even when
// each one fails, and its error names them all.
func TestVerifyRunsEveryGate(t *testing.T) {
	var buf bytes.Buffer
	err := Verify(t.TempDir(), VerifyOptions{}, &buf)
	want := "6 of 6 gates failed (replay, cache, optimize, slo, fidelity, paper)"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want %q", err, want)
	}
	if got := strings.Count(buf.String(), "FAIL "); got != 6 || strings.Contains(buf.String(), "verified") {
		t.Fatalf("want one FAIL line per gate and none verified:\n%s", buf.String())
	}
}
