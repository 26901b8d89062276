package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// TestCacheCapacityRejectedUpFront: every cache capacity a user can
// request must be a finite size > 0 whose byte count fits an int64 and
// is not 0, and no larger than the array it fronts.  Anything else
// fails with an error naming the value before a single cell runs.
// Most cases point at a trace that does not exist, so only a flag-time
// rejection can produce the expected message; a size larger than the
// array passes the flags and is rejected by experiments.Build before
// the replay starts.
func TestCacheCapacityRejectedUpFront(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.replay")
	tiny := filepath.Join(dir, "tiny.replay")
	p := synth.DefaultWebServer()
	p.Duration = simtime.Second
	if err := blktrace.WriteFile(tiny, synth.WebServerTrace(p)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"replay", "-in", missing, "-cache-tier", "dram", "-cache-mb", "0"}, "-cache-mb 0 "},
		{[]string{"replay", "-in", missing, "-cache-tier", "dram", "-cache-mb", "-1"}, "-cache-mb -1 "},
		{[]string{"replay", "-in", missing, "-cache-tier", "dram", "-cache-mb", "NaN"}, "-cache-mb NaN "},
		{[]string{"replay", "-in", missing, "-cache-tier", "dram", "-cache-mb", "Inf"}, "-cache-mb +Inf "},
		{[]string{"replay", "-in", tiny, "-cache-tier", "ssd", "-cache-mb", "1e300"}, "capacity 1e+300 MiB"},
		{[]string{"replay", "-in", missing, "-cache-tier", "dram", "-cache-mb", "1e-300"}, "capacity 1e-300 MiB rounds to 0 bytes"},
		{[]string{"replay", "-in", tiny, "-cache-tier", "dram", "-cache-mb", "8796093022207"}, "exceeds the"},
		{[]string{"cachestudy", "-in", tiny, "-specs", "dram:8796093022207"}, "exceeds the"},
		{[]string{"cachestudy", "-in", missing, "-specs", "dram:1e-300"}, "capacity 1e-300 MiB rounds to 0 bytes"},
		{[]string{"cachestudy", "-in", missing, "-specs", "uncached,dram:NaN"}, `capacity "NaN"`},
		{[]string{"cachestudy", "-in", missing, "-specs", "dram:Inf"}, `capacity "Inf"`},
		{[]string{"cachestudy", "-in", missing, "-specs", "dram:0"}, `capacity "0"`},
		{[]string{"optimize", "-policy", "cache", "-space", "capacity_mb=NaN"}, "capacity_mb NaN "},
		{[]string{"optimize", "-policy", "cache", "-space", "capacity_mb=-5"}, "capacity_mb -5 "},
		{[]string{"optimize", "-policy", "cache", "-space", "capacity_mb=0"}, "capacity_mb 0 "},
		{[]string{"optimize", "-policy", "cache", "-space", "capacity_mb=32,NaN"}, "capacity_mb NaN "},
	} {
		var buf bytes.Buffer
		err := run(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): got error %v, want one containing %q", tc.args, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("run(%v) printed output before failing:\n%s", tc.args, buf.String())
		}
	}
}
