package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/synth"
)

// small returns every workload at a size that runs in well under a
// second, through the same constructors the full sizes use.
func small() map[string]workload {
	loads := []float64{0.5, 1}
	dram := cache.Params{Tier: cache.TierDRAM, CapacityBytes: 4 << 20, Eviction: "2q"}
	ssd := cache.Params{Tier: cache.TierSSD, CapacityBytes: 32 << 20}
	return map[string]workload{
		"web-sweep": &sweep{
			trace: synth.WebServerParams{Duration: 10 * simtime.Second, MeanIOPS: 400, ReadRatio: 0.6, FootprintBytes: 64 << 20},
			cells: slices.Concat(loadCells("raid5-hdd", nil, loads), loadCells("dram", &dram, loads), loadCells("ssd", &ssd, loads)),
		},
		"fleet-storm": &fleetStorm{arrays: 16, workers: 2, perArrayIOPS: 64, dur: 2 * simtime.Second, faults: 2},
		"conserve-grid": &conserveGrid{
			trace:    synth.WebServerParams{Duration: 2 * simtime.Minute, MeanIOPS: 2, FootprintBytes: 4 << 20},
			policies: []string{"tpm", "maid"},
			workers:  2,
		},
	}
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runCLI executes w and returns the exit code, the final JSON report
// and the simulated digest from the summary header.
func runCLI(t *testing.T, w workload, seed uint64, traced bool) (int, report, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute("test", w, config{seed: seed, seconds: 1e-3, traced: traced, refSteps: 1000}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not a report: %v\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
	}
	_, dig, _ := strings.Cut(lines[0], "digest ")
	if code == 0 && stderr.Len() > 0 {
		t.Errorf("clean run wrote to stderr:\n%s", &stderr)
	}
	return code, rep, dig
}

func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	for name, w := range small() {
		t.Run(name, func(t *testing.T) {
			check := func(rep report, want []struct{ Name, Unit string }) {
				if len(rep.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			}
			code, rep, dig := runCLI(t, w, 1, false)
			if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("exit %d, report %+v", code, rep)
			}
			check(rep, d.EndToEnd)
			for _, m := range d.EndToEnd {
				if rep.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, rep.Metrics[m.Name].Value)
				}
			}

			// The traced run fails itself when its digest differs from the
			// untraced one, so a clean traced run proves they agree.
			code, traced, tracedDig := runCLI(t, w, 1, true)
			if code != 0 || traced.Failed != 0 {
				t.Fatalf("traced: exit %d, report %+v", code, traced)
			}
			check(traced, d.PerLayer)
			if tracedDig != dig {
				t.Errorf("seed 1 digest %s on one run, %s on the next", dig, tracedDig)
			}
			if _, _, other := runCLI(t, w, 2, false); other == dig {
				t.Errorf("seeds 1 and 2 share digest %s", dig)
			}
		})
	}
}

// dropOne swallows the completion of its n-th request.
type dropOne struct {
	storage.Device
	n int
}

func (d *dropOne) Submit(req storage.Request, done func(simtime.Time)) {
	d.n--
	if d.n == 0 {
		done = func(simtime.Time) {}
	}
	d.Device.Submit(req, done)
}

// doubleIssue serves its first request twice, behind the controller's
// back, so the members serve more operations than the array issued.
type doubleIssue struct {
	raid.Disk
	done bool
}

func (d *doubleIssue) Submit(req storage.Request, done func(simtime.Time)) {
	if !d.done {
		d.done = true
		d.Disk.Submit(req, func(simtime.Time) {})
	}
	d.Disk.Submit(req, done)
}

func TestFaultsAreCountedAndFailTheRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hooks hooks
	}{
		{"dropped completion", hooks{wrapFront: func(d storage.Device) storage.Device { return &dropOne{Device: d, n: 100} }}},
		{"raid accounting", hooks{wrapDisk: func(d raid.Disk) raid.Disk { return &doubleIssue{Disk: d} }}},
	} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s traced=%v", tc.name, traced), func(t *testing.T) {
				w := small()["web-sweep"].(*sweep)
				w.hooks = tc.hooks
				code, rep, _ := runCLI(t, w, 1, traced)
				if code == 0 || rep.Correct || rep.Failed == 0 || rep.Failed > rep.Attempted {
					t.Errorf("exit %d, report correct=%v failed=%d attempted=%d", code, rep.Correct, rep.Failed, rep.Attempted)
				}
			})
		}
	}
}

func TestCLIRejectsBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "web-sweep", "-trace", "2"},
		{"-workload", "web-sweep", "-seconds", "0"},
		{"-workload", "web-sweep", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code == 0 || stdout.Len() > 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, &stdout)
		}
	}
}
