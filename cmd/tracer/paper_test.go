package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestPaperList(t *testing.T) {
	listed := strings.Fields(runOK(t, "paper", "-list"))
	want := []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "tableIII", "tableIV", "tableV", "ssd", "ablations", "conserve", "thermal", "degraded", "scheduler", "eraid", "sweep", "workload"}
	if !slices.Equal(listed, want) {
		t.Errorf("-list = %v, want %v", listed, want)
	}
}

// TestPaperMatchesGolden: the selected artifacts print in table order,
// whatever order -run names them in, and at the default duration they
// are exactly their sections of the committed paper golden.
func TestPaperMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join(goldenCorpusDir, "paper", "paper.golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want, _, ok := strings.Cut(string(golden), "=== fig9 ===\n")
	if !ok {
		t.Fatal("golden has no fig9 section")
	}
	for _, workers := range []string{"1", "2"} {
		if out := runOK(t, "paper", "-run", "fig8, fig7", "-workers", workers); out != want {
			t.Errorf("-workers %s: output differs from the golden's fig7 and fig8 sections:\n%s", workers, out)
		}
	}
}

func TestPaperShortDuration(t *testing.T) {
	out := runOK(t, "paper", "-run", "fig8,tableIII", "-duration", "1s")
	if !strings.Contains(out, "=== fig8 ===") || !strings.Contains(out, "=== tableIII ===") || !strings.Contains(out, "\tmeasured%(IOPS)\t") {
		t.Fatalf("output: %s", out)
	}
}

func TestPaperBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"paper", "-run", "fig99"},
		{"paper", "-run", "fig7,fig99"},
		{"paper", "-run", ""},
		{"paper", "-duration", "0s"},
		{"paper", "-outdir", "x"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		} else if buf.Len() != 0 {
			t.Errorf("run(%v) printed output before failing:\n%s", args, buf.String())
		}
	}
}
