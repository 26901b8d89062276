package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/simtime"
	"repro/internal/storage"
)

func TestListExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	listed := strings.Fields(buf.String())
	want := []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "tableIII", "tableIV", "tableV", "ssd", "ablations", "conserve", "thermal", "degraded", "scheduler", "eraid", "sweep", "workload"}
	if !slices.Equal(listed, want) {
		t.Errorf("-list = %v, want %v", listed, want)
	}
}

func TestRunSingleExperimentWithOutdir(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig7", "-outdir", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disks dominate") {
		t.Fatalf("output: %s", buf.String())
	}
	blob, err := os.ReadFile(filepath.Join(dir, "fig7.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "Fig. 7") {
		t.Fatal("outdir file incomplete")
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig8,tableIII", "-duration", "1s"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== fig8 ===") || !strings.Contains(out, "=== tableIII ===") {
		t.Fatalf("output: %s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig99"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig8", "-duration", "1s", "-cpuprofile", cpu, "-memprofile", mem}, &buf); err != nil {
		t.Fatal(err)
	}
	// The memprofile defer fires on return, so both files exist here.
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestSweepTraceFlagReplaysFile drives the sweep experiment from an
// on-disk .replay trace instead of the synthetic grid.
func TestSweepTraceFlagReplaysFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.replay")
	b := blktrace.NewBuilder("tiny")
	for i := 0; i < 20; i++ {
		if err := b.Record(simtime.Duration(i)*50*simtime.Millisecond, blktrace.IOPackage{
			Sector: int64(i) * 128, Size: 16 << 10, Op: storage.Read}); err != nil {
			t.Fatal(err)
		}
	}
	if err := blktrace.WriteFile(path, b.Trace()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-run", "sweep", "-trace", path, "-workers", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tiny.replay") || strings.Count(out, "\n") < 5 {
		t.Fatalf("sweep -trace output: %s", out)
	}
}

// TestSweepTraceFlagTruncated is the satellite regression: a .replay
// file cut mid-bunch must surface as a labelled error carrying
// blktrace.ErrBadFormat, never a panic.
func TestSweepTraceFlagTruncated(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-run", "sweep", "-trace", "../../internal/check/testdata/corrupt/truncated.replay"}, &buf)
	if err == nil {
		t.Fatal("sweep accepted a truncated trace")
	}
	if !errors.Is(err, blktrace.ErrBadFormat) {
		t.Fatalf("error does not wrap ErrBadFormat: %v", err)
	}
	if !strings.Contains(err.Error(), "truncated.replay") || !strings.Contains(err.Error(), "load trace") {
		t.Fatalf("error not labelled: %v", err)
	}
}

// TestFailingExperimentDoesNotAbortTable pins the partial-failure
// contract: an experiment that errors still lets the rest of the table
// run, and the summary error names it while keeping the exit non-zero.
func TestFailingExperimentDoesNotAbortTable(t *testing.T) {
	var buf bytes.Buffer
	// sweep fails (missing trace file); fig8 after it in the requested
	// set must still regenerate.
	err := run([]string{"-run", "sweep,fig8", "-duration", "1s", "-trace", "/nonexistent/nope.replay"}, &buf)
	if err == nil {
		t.Fatal("failing experiment did not fail the run")
	}
	if !strings.Contains(err.Error(), "1 of 2 experiments failed (sweep)") {
		t.Fatalf("summary error = %v", err)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("summary error does not wrap the cause: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "FAIL sweep:") || !strings.Contains(out, "=== fig8 ===") {
		t.Fatalf("output: %s", out)
	}
	if !strings.Contains(out, "(fig8 in ") {
		t.Fatalf("fig8 did not complete after the sweep failure: %s", out)
	}
}

// TestSweepTelemetryDirExportsPerLoad drives -telemetry-dir: every
// load level of the trace sweep leaves its own artifact directory.
func TestSweepTelemetryDirExportsPerLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.replay")
	b := blktrace.NewBuilder("tiny")
	for i := 0; i < 20; i++ {
		if err := b.Record(simtime.Duration(i)*50*simtime.Millisecond, blktrace.IOPackage{
			Sector: int64(i) * 128, Size: 16 << 10, Op: storage.Read}); err != nil {
			t.Fatal(err)
		}
	}
	if err := blktrace.WriteFile(path, b.Trace()); err != nil {
		t.Fatal(err)
	}
	telDir := filepath.Join(dir, "telemetry")
	var buf bytes.Buffer
	if err := run([]string{"-run", "sweep", "-trace", path, "-telemetry-dir", telDir, "-workers", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"load025", "load050", "load075", "load100"} {
		for _, f := range []string{"summary.json", "series.csv", "trace.json", "power_wall.csv"} {
			if _, err := os.Stat(filepath.Join(telDir, sub, f)); err != nil {
				t.Fatalf("artifact %s/%s missing: %v", sub, f, err)
			}
		}
	}
	if strings.Count(buf.String(), "telemetry: ") != 4 {
		t.Fatalf("telemetry lines: %s", buf.String())
	}
}
