package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/blktrace"
	"repro/internal/host"
	"repro/internal/replay"
	"repro/internal/repository"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/workload"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, buf.String())
	}
	return buf.String()
}

func TestCollectRepoStatsTestQueryFlow(t *testing.T) {
	dir := t.TempDir()
	repoDir := filepath.Join(dir, "traces")
	dbPath := filepath.Join(dir, "results.json")

	out := runOK(t, "collect", "-repo", repoDir, "-size", "4096", "-read", "0", "-random", "0.5", "-duration", "1s")
	if !strings.Contains(out, "collected") {
		t.Fatalf("collect output: %s", out)
	}

	out = runOK(t, "repo", "-repo", repoDir)
	if !strings.Contains(out, "rs4096_rd0_rn50") {
		t.Fatalf("repo output: %s", out)
	}
	traceName := strings.Fields(out)[0]

	out = runOK(t, "stats", "-repo", repoDir, "-trace", traceName)
	if !strings.Contains(out, "read ratio 0.00%") {
		t.Fatalf("stats output: %s", out)
	}

	out = runOK(t, "replay", "-repo", repoDir, "-trace", traceName, "-loads", "20,100", "-db", dbPath)
	if !strings.Contains(out, "IOPS/W") || !strings.Contains(out, "saved 2 records") {
		t.Fatalf("replay output: %s", out)
	}

	out = runOK(t, "query", "-db", dbPath)
	if !strings.Contains(out, "raid5-hdd") {
		t.Fatalf("query output: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 records
		t.Fatalf("query lines = %d: %s", len(lines), out)
	}

	// A cached run prints the tier's line under its row, and its record
	// names the tier, so a query can tell it from the uncached ones.
	out = runOK(t, "replay", "-repo", repoDir, "-trace", traceName, "-loads", "50", "-cache-tier", "dram", "-db", dbPath)
	if lines := strings.Split(out, "\n"); len(lines) < 3 || !strings.HasPrefix(lines[1], "50\t") || !strings.HasPrefix(lines[2], "cache: ") {
		t.Fatalf("cached replay output: %s", out)
	}
	out = runOK(t, "query", "-db", dbPath, "-device", "raid5-hdd+dram-32MB")
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 2 || !strings.HasPrefix(lines[1], "3\t") {
		t.Fatalf("query of the cached record: %s", out)
	}
}

func TestGenRealAndTest(t *testing.T) {
	dir := t.TempDir()
	repoDir := filepath.Join(dir, "traces")
	out := runOK(t, "gen-real", "-repo", repoDir, "-kind", "web")
	if !strings.Contains(out, "web-o4") {
		t.Fatalf("gen-real output: %s", out)
	}
	out = runOK(t, "gen-real", "-repo", repoDir, "-kind", "oltp")
	if !strings.Contains(out, "oltp") {
		t.Fatalf("gen-real oltp output: %s", out)
	}
	name := repository.RealName("raid5-hdd", "web-o4")
	out = runOK(t, "replay", "-repo", repoDir, "-trace", name, "-loads", "50")
	if !strings.Contains(out, "50\t") {
		t.Fatalf("replay output: %s", out)
	}
	// Without -telemetry-dir a replay writes no artifacts.
	if _, err := os.Stat("telemetry"); !os.IsNotExist(err) {
		t.Fatalf("replay without -telemetry-dir left ./telemetry behind (stat: %v)", err)
	}
}

// TestReplayLoadsWorkerIdentity: a list of loads fans out across the
// worker pool, uncached and behind a cache tier, and stdout and the
// stored records are the same at every worker count.
func TestReplayLoadsWorkerIdentity(t *testing.T) {
	dir := t.TempDir()
	repoDir := filepath.Join(dir, "traces")
	runOK(t, "gen-real", "-repo", repoDir, "-kind", "web")
	name := repository.RealName("raid5-hdd", "web-o4")
	for _, tc := range []struct {
		tier  string
		lines int // header, a row per load, a cache line per row, "saved"
	}{{"", 4}, {"dram", 6}} {
		var outs []string
		var dbs []host.Record
		for _, workers := range []string{"1", "4"} {
			dbPath := filepath.Join(dir, tc.tier+"results-"+workers+".json")
			args := []string{"replay", "-repo", repoDir, "-trace", name, "-loads", "20,100", "-workers", workers, "-db", dbPath}
			if tc.tier != "" {
				args = append(args, "-cache-tier", tc.tier)
			}
			out := runOK(t, args...)
			outs = append(outs, strings.Replace(out, dbPath, "DB", 1))
			db, err := host.LoadDB(dbPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range db.Select(host.Query{}) {
				r.TestTime = time.Time{}
				dbs = append(dbs, r)
			}
		}
		if lines := strings.Split(strings.TrimSpace(outs[0]), "\n"); len(lines) != tc.lines || !strings.HasPrefix(lines[1], "20\t") {
			t.Fatalf("replay output:\n%s", outs[0])
		}
		if outs[0] != outs[1] {
			t.Fatalf("stdout differs between 1 and 4 workers:\n%s\n---\n%s", outs[0], outs[1])
		}
		if len(dbs) != 4 || dbs[0] != dbs[2] || dbs[1] != dbs[3] {
			t.Fatalf("records differ between 1 and 4 workers: %+v", dbs)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	var buf bytes.Buffer
	repoDir := filepath.Join(t.TempDir(), "repo")
	// Every command that reads a trace file names a corrupt one, or a
	// directory, once.
	const truncated = "../../internal/check/testdata/corrupt/truncated.replay"
	const corrupt = "load trace " + truncated + ": blktrace: malformed trace file: bunch 17: package count 1 exceeds file size"
	dir := t.TempDir()
	cases := []struct {
		args []string
		want string
	}{
		{nil, ""},
		{[]string{"frobnicate"}, ""},
		{[]string{"stats"}, ""},
		{[]string{"test"}, `unknown subcommand "test"`},
		{[]string{"replay"}, "replay: exactly one of -trace or -in is required"},
		{[]string{"replay", "-trace", "x", "-loads", "abc"}, `replay: -loads: bad load level "abc"`},
		{[]string{"replay", "-trace", "x", "-loads", "0"}, `replay: -loads: bad load level "0"`},
		{[]string{"replay", "-trace", "x", "-loads", "NaN"}, `replay: -loads: bad load level "NaN"`},
		{[]string{"replay", "-trace", "x", "-telemetry-dir", dir, "-loads", "20,100"}, "replay: -telemetry-dir instruments one load, but -loads 20,100 names 2"},
		{[]string{"replay", "-trace", "x", "-device", "floppy"}, `unknown array kind "floppy"`},
		{[]string{"gen-real", "-kind", "nope", "-repo", repoDir}, ""},
		{[]string{"analyze", "-in", truncated}, corrupt},
		{[]string{"optimize", "-policy", "tpm", "-in", truncated}, corrupt},
		{[]string{"cachestudy", "-in", truncated}, corrupt},
		{[]string{"replay", "-in", truncated}, corrupt},
		{[]string{"analyze", "-in", dir}, "read " + dir + ": is a directory"},
		{[]string{"replay", "-in", dir}, "read " + dir + ": is a directory"},
	}
	for _, c := range cases {
		err := run(c.args, &buf)
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || c.want != "" && strings.Count(err.Error(), c.args[len(c.args)-1]) != 1 {
			t.Errorf("run(%v): %v, want an error containing %q that names the file once", c.args, err, c.want)
		}
	}
	// A rejected gen-real must not create its repository.
	if _, err := os.Stat(repoDir); !os.IsNotExist(err) {
		t.Errorf("gen-real with a bad -kind left %s behind (stat: %v)", repoDir, err)
	}
	// t.TempDir cleanup guards against stray writes from bad invocations.
	if err := run([]string{"help"}, &buf); err != nil {
		t.Fatalf("help: %v", err)
	}
}

func TestParseLoads(t *testing.T) {
	got, err := replay.ParseLoads("10, 50,100")
	if err != nil || len(got) != 3 || got[0] != 0.1 || got[2] != 1.0 {
		t.Fatalf("ParseLoads = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-5", "abc", "2000", "NaN", "nan", "50,NaN", "Inf"} {
		if _, err := replay.ParseLoads(bad); err == nil {
			t.Errorf("ParseLoads(%q) accepted", bad)
		}
	}
}

func TestTraceToolSubcommands(t *testing.T) {
	dir := t.TempDir()
	repoDir := filepath.Join(dir, "traces")
	runOK(t, "gen-real", "-repo", repoDir, "-kind", "web")
	name := repository.RealName("raid5-hdd", "web-o4")

	out := runOK(t, "slice", "-repo", repoDir, "-trace", name, "-from", "10s", "-to", "30s")
	if !strings.Contains(out, "sliced") {
		t.Fatalf("slice output: %s", out)
	}
	sliced := repository.RealName("raid5-hdd", strings.TrimSuffix(name, repository.Ext)+"-slice")

	out = runOK(t, "merge", "-repo", repoDir, "-traces", name+","+sliced, "-label", "combo")
	if !strings.Contains(out, "merged 2 traces") {
		t.Fatalf("merge output: %s", out)
	}

	out = runOK(t, "remap", "-repo", repoDir, "-trace", name, "-from-bytes", "1099511627776", "-to-bytes", "1073741824")
	if !strings.Contains(out, "remapped") {
		t.Fatalf("remap output: %s", out)
	}

	out = runOK(t, "dump", "-repo", repoDir, "-trace", name, "-n", "3")
	if !strings.Contains(out, "t=") || !strings.Contains(out, "more bunches") {
		t.Fatalf("dump output: %s", out)
	}
}

func TestTraceToolErrors(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"slice"}, // missing trace/to
		{"merge", "-traces", "onlyone"},
		{"remap", "-trace", "x"}, // missing capacities
		{"dump"},                 // missing trace
	}
	for _, args := range cases {
		if err := run(append(args, "-repo", t.TempDir()), &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// goldenCorpusDir is the committed conformance corpus, relative to this
// package's directory (the test working directory).
const goldenCorpusDir = "../../internal/check/testdata/golden"

// TestVerifyCommandPassesOnCommittedCorpus runs the one verify pass
// over the committed corpus: every gate must run and pass.
func TestVerifyCommandPassesOnCommittedCorpus(t *testing.T) {
	out := runOK(t, "verify", "-golden", goldenCorpusDir)
	for _, want := range []string{
		"golden corpus verified", "cache corpus verified", "optimize corpus verified",
		"slo corpus verified", "workload round-trip fidelity verified", "paper artifacts verified",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("verify output lacks %q", want)
		}
	}
	if t.Failed() || strings.Contains(out, "FAIL") {
		t.Fatalf("verify output: %s", out)
	}
}

// TestVerifyCommandUpdateRegenerates bootstraps a corpus from the
// replay fixture traces alone: -update must write every gate's golden
// and canonical fixture, and each file it writes must equal the
// committed one byte for byte, so the committed corpus is a fixed
// point of -update.
func TestVerifyCommandUpdateRegenerates(t *testing.T) {
	dir := t.TempDir()
	traces, err := filepath.Glob(filepath.Join(goldenCorpusDir, "*.trace.txt"))
	if err != nil || len(traces) == 0 {
		t.Fatalf("no corpus traces: %v", err)
	}
	for _, p := range traces {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := runOK(t, "verify", "-golden", dir, "-update")
	if !strings.Contains(out, "UPDATED paper.golden.txt") || !strings.Contains(out, "workload round-trip fidelity verified") {
		t.Fatalf("update output: %s", out)
	}
	written := 0
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		want, err := os.ReadFile(filepath.Join(goldenCorpusDir, rel))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: bootstrapped file differs from the committed one", rel)
		}
		written++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 replay traces and goldens, cache and optimize fixtures and
	// goldens, the SLO spec and two goldens, and the paper golden.
	if want := 2*len(traces) + 4 + 3 + 1; written != want {
		t.Fatalf("-update wrote %d files, want %d:\n%s", written, want, out)
	}
}

// TestReplayAndReportCommands drives the telemetry walkthrough the
// README documents: instrumented replay into an artifact directory,
// then `tracer report` over it.
func TestReplayAndReportCommands(t *testing.T) {
	dir := t.TempDir()
	repoDir := filepath.Join(dir, "traces")
	runOK(t, "gen-real", "-repo", repoDir, "-kind", "web")
	name := repository.RealName("raid5-hdd", "web-o4")
	telDir := filepath.Join(dir, "telemetry")

	out := runOK(t, "replay", "-repo", repoDir, "-trace", name, "-loads", "50", "-telemetry-dir", telDir)
	if !strings.Contains(out, "IOPS/W") || !strings.Contains(out, "tracer report") {
		t.Fatalf("replay output: %s", out)
	}
	for _, f := range []string{"summary.json", "series.csv", "events.jsonl", "trace.json", "power_wall.csv"} {
		if _, err := os.Stat(filepath.Join(telDir, f)); err != nil {
			t.Fatalf("artifact %s missing: %v", f, err)
		}
	}

	out = runOK(t, "report", "-dir", telDir)
	for _, want := range []string{"replay.issued", "HISTOGRAM", "POWER", "wall"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// A replay samples windows, so its per-window columns hold numbers.
	if f := reportRow(out, "replay.issued"); len(f) != 5 || f[3] == "-" || f[4] == "-" || f[4] == "0" {
		t.Fatalf("replay.issued row %q in report output:\n%s", f, out)
	}

	// The same trace as a file on disk, at another load point.
	fileTelDir := filepath.Join(dir, "telemetry-file")
	runOK(t, "replay", "-in", filepath.Join(repoDir, name), "-loads", "25", "-telemetry-dir", fileTelDir)
	if _, err := os.Stat(filepath.Join(fileTelDir, "summary.json")); err != nil {
		t.Fatalf("replay -in wrote no artifacts: %v", err)
	}
}

func TestReplayAndReportErrors(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"replay"},                            // neither -trace nor -in
		{"replay", "-trace", "a", "-in", "b"}, // both sources
		{"replay", "-in", "x.replay", "-loads", "0"},
		{"replay", "-in", "x.replay", "-device", "tape"},
		{"report", "-dir", filepath.Join(t.TempDir(), "missing")},
	}
	for _, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestReplayRejectsOversizePackage: a package larger than the whole
// array is rejected with a labelled error before the replay plans it;
// a 2^62-byte package used to exhaust memory splitting into stripes.
func TestReplayRejectsOversizePackage(t *testing.T) {
	in := filepath.Join(t.TempDir(), "huge.replay")
	tr := &blktrace.Trace{Device: "huge", Bunches: []blktrace.Bunch{
		{Time: 0, Packages: []blktrace.IOPackage{{Sector: 0, Size: 1 << 62, Op: storage.Read}}},
		{Time: simtime.Millisecond, Packages: []blktrace.IOPackage{{Sector: 8, Size: 4096, Op: storage.Read}}},
	}}
	if err := blktrace.WriteFile(in, tr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"replay", "-in", in, "-telemetry-dir", filepath.Join(t.TempDir(), "tel")}, &buf)
	if err == nil || !strings.Contains(err.Error(), "bunch 0 package 0: size 4611686018427387904 exceeds device capacity") {
		t.Fatalf("err = %v, want the oversize package named", err)
	}
}

// TestReplayRejectsBunchPastHorizon: a bunch near the end of int64
// would wrap its completion time and panic the engine; the replay
// fails with a labelled error instead, which main turns into exit 1.
func TestReplayRejectsBunchPastHorizon(t *testing.T) {
	in := filepath.Join(t.TempDir(), "far.replay")
	tr := &blktrace.Trace{Device: "far", Bunches: []blktrace.Bunch{
		{Time: 9223372036854775000, Packages: []blktrace.IOPackage{{Sector: 8, Size: 4096, Op: storage.Read}}},
	}}
	if err := blktrace.WriteFile(in, tr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"replay", "-in", in, "-telemetry-dir", filepath.Join(t.TempDir(), "tel")}, &buf)
	if err == nil || !strings.Contains(err.Error(), "bunch 0 at 2562047h47m16.854775s lies past the simulation horizon") {
		t.Fatalf("err = %v, want the bunch past the horizon named", err)
	}
}

// TestReplayTruncatedTraceFile: a .replay file cut mid-bunch is a
// labelled error carrying blktrace.ErrBadFormat, never a panic, and
// leaves no artifact directory behind.
func TestReplayTruncatedTraceFile(t *testing.T) {
	telDir := filepath.Join(t.TempDir(), "tel")
	var buf bytes.Buffer
	err := run([]string{"replay", "-in", "../../internal/check/testdata/corrupt/truncated.replay", "-telemetry-dir", telDir}, &buf)
	if !errors.Is(err, blktrace.ErrBadFormat) {
		t.Fatalf("error does not wrap ErrBadFormat: %v", err)
	}
	if !strings.Contains(err.Error(), "load trace ../../internal/check/testdata/corrupt/truncated.replay") {
		t.Fatalf("error not labelled: %v", err)
	}
	if _, err := os.Stat(telDir); !os.IsNotExist(err) {
		t.Fatalf("failed replay left %s behind (stat: %v)", telDir, err)
	}
}

func TestAnalyzeCommand(t *testing.T) {
	dir := t.TempDir()
	repoDir := filepath.Join(dir, "traces")
	runOK(t, "gen-real", "-repo", repoDir, "-kind", "web")
	name := repository.RealName("raid5-hdd", "web-o4")

	// Repository entry to a profile file.
	profilePath := filepath.Join(dir, "web.json")
	out := runOK(t, "analyze", "-repo", repoDir, "-trace", name, "-out", profilePath)
	if !strings.Contains(out, "analyzed") || !strings.Contains(out, profilePath) {
		t.Fatalf("analyze output: %s", out)
	}
	p, err := workload.ReadProfile(profilePath)
	if err != nil {
		t.Fatal(err)
	}
	// Default label comes from the file name.
	if p.Name != strings.TrimSuffix(name, repository.Ext) || p.IOs == 0 {
		t.Fatalf("profile = %+v", p)
	}

	// Direct file input with an explicit label, JSON to stdout.
	tracePath := filepath.Join(repoDir, name)
	out = runOK(t, "analyze", "-in", tracePath, "-name", "weblabel")
	p2, err := workload.Decode(strings.NewReader(out))
	if err != nil {
		t.Fatalf("stdout not a profile: %v\n%s", err, out)
	}
	if p2.Name != "weblabel" || p2.IOs != p.IOs {
		t.Fatalf("stdout profile = %+v", p2)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"analyze"},                            // neither -trace nor -in
		{"analyze", "-trace", "a", "-in", "b"}, // both sources
		{"analyze", "-in", filepath.Join(t.TempDir(), "missing.replay")},
	}
	for _, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestFleetCommand: the fleet subcommand runs end to end and its
// telemetry summary is byte-identical across worker counts.
func TestFleetCommand(t *testing.T) {
	dir := t.TempDir()
	var summaries [][]byte
	for i, workers := range []string{"1", "2"} {
		telDir := filepath.Join(dir, "tel"+workers)
		out := runOK(t, "fleet", "-arrays", "6", "-workers", workers,
			"-policy", "least-loaded", "-duration", "200ms", "-iops", "500",
			"-admit-rate", "400", "-power-cap", "3000", "-telemetry-dir", telDir)
		for _, want := range []string{"6 raid5-hdd arrays", "policy least-loaded", "rejected", "IOPS/W", "power cap 3000.0 W", "telemetry written"} {
			if !strings.Contains(out, want) {
				t.Fatalf("fleet output missing %q:\n%s", want, out)
			}
		}
		raw, err := os.ReadFile(filepath.Join(telDir, "summary.json"))
		if err != nil {
			t.Fatal(err)
		}
		summaries = append(summaries, raw)
		if i > 0 && !bytes.Equal(summaries[0], raw) {
			t.Fatalf("summary.json diverges between 1 and %s workers", workers)
		}
		// The fleet samples no telemetry windows, so the per-window
		// columns read "-", not a measured zero.
		rep := runOK(t, "report", "-dir", telDir)
		if f := reportRow(rep, "fleet.offered"); len(f) != 5 || f[2] == "0" || f[3] != "-" || f[4] != "-" {
			t.Fatalf("fleet.offered row %q in report output:\n%s", f, rep)
		}
	}
}

// reportRow returns the fields of the `tracer report` metric row named
// name, or nil.
func reportRow(report, name string) []string {
	for _, line := range strings.Split(report, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			return f
		}
	}
	return nil
}

// TestFleetCommandTraceStream: -trace replays a repository entry
// through the fleet router.
func TestFleetCommandTraceStream(t *testing.T) {
	repoDir := filepath.Join(t.TempDir(), "traces")
	runOK(t, "gen-real", "-repo", repoDir, "-kind", "web")
	out := runOK(t, "repo", "-repo", repoDir)
	traceName := strings.Fields(out)[0]
	out = runOK(t, "fleet", "-arrays", "3", "-workers", "2", "-policy", "affinity",
		"-repo", repoDir, "-trace", traceName)
	if !strings.Contains(out, "3 raid5-hdd arrays") || !strings.Contains(out, "rejected 0") {
		t.Fatalf("fleet trace output:\n%s", out)
	}
}

// TestFleetCommandErrors: flag validation, SLO specs whose defaulted
// eval interval is zero or whose slow window spans too many intervals,
// and faults the run cannot honour fail with a labelled error instead
// of a panic or a diluted run.
func TestFleetCommandErrors(t *testing.T) {
	dir := t.TempDir()
	spec := func(name, windows string) string {
		path := filepath.Join(dir, name)
		blob := `{"version":1,"name":"bad",` + windows + `,"classes":[{"name":"all","objectives":[{"name":"avail","kind":"availability","target":0.99}]}]}`
		if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	zeroInterval := spec("zero-interval.json", `"fast_window_ns":4`)
	hugeRing := spec("huge-ring.json", `"eval_interval_ns":1,"slow_window_ns":9223372036854775807`)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"fleet", "-arrays", "0"}, ""},
		{[]string{"fleet", "-policy", "nope"}, ""},
		{[]string{"fleet", "-device", "tape"}, ""},
		{[]string{"fleet", "-trace", "missing.replay", "-repo", t.TempDir()}, ""},
		{[]string{"fleet", "-arrays", "2", "-duration", "50ms", "-slo", zeroInterval}, "zero-interval.json: slo: eval interval is zero"},
		{[]string{"fleet", "-arrays", "2", "-duration", "50ms", "-slo", hugeRing}, "huge-ring.json: slo: slow window"},
		// Faults past the stream or on a missing disk fail before the run.
		{[]string{"fleet", "-arrays", "2", "-workers", "1", "-duration", "200ms", "-fail", "0@10s"}, "fleet: fault #0 at 10s is not before the stream's end at 200ms"},
		{[]string{"fleet", "-arrays", "2", "-workers", "1", "-duration", "200ms", "-fail", "0@300000h"}, "fleet: fault #0 at 300000h0m0s is not before the stream's end at 200ms"},
		{[]string{"fleet", "-arrays", "2", "-workers", "1", "-duration", "200ms", "-fail", "0@100ms:99"}, "fleet: fault #0 targets disk 99 of 6"},
	} {
		var buf bytes.Buffer
		err := run(c.args, &buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("run(%v) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}
