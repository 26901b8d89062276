package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/optimize"
)

// optimizeArgs is the fast two-cell TPM search shared by the CLI tests:
// a custom space keeps the grid small while still exercising the full
// search → baseline → record pipeline on the committed fixture trace
// (synthesised from its pinned seed, since tests run outside repo root).
func optimizeArgs(extra ...string) []string {
	args := []string{"optimize", "-policy", "tpm", "-space", "timeout_s=10,60", "-workers", "2"}
	return append(args, extra...)
}

func TestOptimizeCommandLedgerAndWhatIf(t *testing.T) {
	dir := t.TempDir()
	out := runOK(t, optimizeArgs("-ledger-dir", dir)...)
	if !strings.Contains(out, "tpm: winner") || !strings.Contains(out, "beats paper default") {
		t.Fatalf("optimize output missing winner line: %s", out)
	}
	if !strings.Contains(out, "| policy |") {
		t.Fatalf("optimize output missing comparison table: %s", out)
	}

	if _, err := os.Stat(filepath.Join(dir, "LEDGER.md")); err != nil {
		t.Fatalf("LEDGER.md not written: %v", err)
	}
	ledgerPath := filepath.Join(dir, "tpm-decisions.jsonl")
	f, err := os.Open(ledgerPath)
	if err != nil {
		t.Fatalf("open ledger: %v", err)
	}
	h, decisions, err := optimize.ReadLedger(f)
	f.Close()
	if err != nil {
		t.Fatalf("ReadLedger: %v", err)
	}
	if h.Policy != "tpm" || len(decisions) == 0 {
		t.Fatalf("ledger header %+v with %d decisions", h, len(decisions))
	}

	list := runOK(t, "whatif", "-ledger", ledgerPath, "-list")
	if !strings.Contains(list, "replayable") {
		t.Fatalf("whatif -list output: %s", list)
	}
	lines := strings.Split(strings.TrimSpace(list), "\n")
	if len(lines) < 3 { // summary + column header + at least one decision
		t.Fatalf("whatif -list found no replayable decisions: %s", list)
	}
	seq, err := strconv.ParseInt(strings.Fields(lines[2])[0], 10, 64)
	if err != nil {
		t.Fatalf("parse seq from %q: %v", lines[2], err)
	}

	out = runOK(t, "whatif", "-ledger", ledgerPath, "-decision", strconv.FormatInt(seq, 10))
	if !strings.Contains(out, "delta (counterfactual - baseline):") {
		t.Fatalf("whatif output missing delta line: %s", out)
	}
	if !strings.Contains(out, "verdict:") {
		t.Fatalf("whatif output missing verdict: %s", out)
	}
}

func TestOptimizeCommandWorkerIdentity(t *testing.T) {
	serial := runOK(t, optimizeArgs()...)
	fanned := runOK(t, optimizeArgs()...)
	if serial != fanned {
		t.Fatalf("same-args reruns differ:\n%s\nvs\n%s", serial, fanned)
	}
	wide := runOK(t, "optimize", "-policy", "tpm", "-space", "timeout_s=10,60", "-workers", "4")
	if wide != serial {
		t.Fatalf("workers 4 output differs from workers 2:\n%s\nvs\n%s", wide, serial)
	}
}

func TestOptimizeCommandTelemetryArtifacts(t *testing.T) {
	dir := t.TempDir()
	out := runOK(t, optimizeArgs("-telemetry-dir", dir)...)
	if !strings.Contains(out, "telemetry artifacts written") {
		t.Fatalf("optimize output: %s", out)
	}
	for _, name := range []string{"tpm-decisions.jsonl", "optimize-table.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("telemetry artifact %s missing: %v", name, err)
		}
	}
}

func TestOptimizeEvolveDriver(t *testing.T) {
	out := runOK(t, "optimize", "-policy", "drpm", "-driver", "evolve",
		"-generations", "2", "-population", "4", "-evolve-seed", "3", "-workers", "2")
	if !strings.Contains(out, "drpm: winner") || !strings.Contains(out, "evolve") {
		t.Fatalf("evolve output: %s", out)
	}
}

func TestOptimizeBadInvocations(t *testing.T) {
	var buf bytes.Buffer
	// A search value the spec would replace with its default, truncate
	// or never run fails before a cell runs, naming the value.
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"whatif"}, ""},                            // -ledger required
		{[]string{"whatif", "-ledger", "no-such.file"}, ""}, // missing ledger file
		{[]string{"optimize", "-driver", "warp"}, ""},
		{[]string{"optimize", "-policy", "tpm,drpm", "-space", "timeout_s=10"}, ""},
		{[]string{"optimize", "-policy", "tpm", "-space", "timeout_s=ten"}, ""},
		{[]string{"optimize", "-load", "0"}, ""},
		{[]string{"optimize", "-load", "NaN"}, ""},
		{[]string{"optimize", "-w-p99-ms", "NaN"}, "-w-p99-ms NaN is not a finite non-negative weight"},
		{[]string{"optimize", "-w-iops-per-watt", "+Inf"}, "-w-iops-per-watt +Inf is not a finite non-negative weight"},
		{[]string{"optimize", "-w-spinup", "-0.5"}, "-w-spinup -0.5 is not a finite non-negative weight"},
		{[]string{"optimize", "-w-iops-per-watt", "0", "-w-p99-ms", "0", "-w-spinup", "0"}, "every fitness weight is 0"},
		{[]string{"optimize", "-driver", "evolve", "-generations", "-5", "-population", "-3"}, "-generations -5 is not positive"},
		{[]string{"optimize", "-driver", "evolve", "-population", "0"}, "-population 0 is not positive"},
		{[]string{"optimize", "-policy", "tpm", "-space", "timeout_s=-5,NaN,10,1e30"}, "timeout_s -5 is not"},
		{[]string{"optimize", "-policy", "tpm", "-space", "timeout_s=NaN"}, "timeout_s NaN is not"},
		{[]string{"optimize", "-policy", "tpm", "-space", "timeout_s=1e30"}, "timeout_s 1e+30 is not"},
		{[]string{"optimize", "-policy", "tpm", "-space", "timeout_s=1e-10"}, "timeout_s 1e-10 is not"},
		{[]string{"optimize", "-policy", "maid", "-space", "cache_disks=0,1;timeout_s=2"}, "cache_disks 0 is not"},
		{[]string{"optimize", "-policy", "maid", "-space", "cache_disks=1.5"}, "cache_disks 1.5 is not"},
		{[]string{"optimize", "-policy", "maid", "-space", "cache_disks=6"}, "cache_disks 6 is not"},
		{[]string{"optimize", "-policy", "pdc", "-space", "reorg_s=-1,5;timeout_s=10"}, "reorg_s -1 is not"},
		{[]string{"optimize", "-policy", "drpm", "-space", "stepdown_s=2;levels=2.9,2"}, "levels 2.9 is not"},
		{[]string{"optimize", "-policy", "eraid", "-space", "low_iops=0"}, "low_iops 0 is not"},
		{[]string{"optimize", "-policy", "eraid", "-space", "low_iops=10,100;high_iops=120,60"}, "thresholds inverted: low 100 >= high 60"},
		{[]string{"optimize", "-policy", "cache", "-space", "flush_s=0"}, "flush_s 0 is not"},
		{[]string{"optimize", "-policy", "cache", "-space", "idle_drain_s=-Inf"}, "idle_drain_s -Inf is not"},
		{[]string{"optimize", "-policy", "cache", "-space", "capacity_mb=1e-300"}, "rounds to 0 bytes"},
		{[]string{"optimize", "-policy", "tpm", "-space", "timeout_s=1,2;timeout_s=5"}, `dimension "timeout_s" given twice`},
		{[]string{"optimize", "-policy", "tpm", "-space", strings.Repeat("timeout_s=1,2;", 64)}, `dimension "timeout_s" given twice`},
	}
	for _, tc := range cases {
		buf.Reset()
		err := run(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): got error %v, want one containing %q", tc.args, err, tc.want)
		}
		if tc.want != "" && buf.Len() != 0 {
			t.Errorf("run(%v) printed output before failing:\n%s", tc.args, buf.String())
		}
	}
}
