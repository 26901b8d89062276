package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/repository"
	"repro/internal/srt"
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

	out = runOK(t, "test", "-repo", repoDir, "-trace", traceName, "-loads", "20,100", "-db", dbPath)
	if !strings.Contains(out, "IOPS/W") || !strings.Contains(out, "saved 2 records") {
		t.Fatalf("test output: %s", out)
	}

	out = runOK(t, "query", "-db", dbPath)
	if !strings.Contains(out, "raid5-hdd") {
		t.Fatalf("query output: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 records
		t.Fatalf("query lines = %d: %s", len(lines), out)
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
	out = runOK(t, "test", "-repo", repoDir, "-trace", name, "-loads", "50")
	if !strings.Contains(out, "50\t") {
		t.Fatalf("test output: %s", out)
	}
}

func TestConvertCommand(t *testing.T) {
	dir := t.TempDir()
	srtPath := filepath.Join(dir, "in.srt")
	outPath := filepath.Join(dir, "out.replay")
	recs := []srt.Record{
		{Timestamp: 1.0, Device: "d0", StartByte: 0, Length: 4096, Op: storage.Read},
		{Timestamp: 1.5, Device: "d0", StartByte: 8192, Length: 512, Op: storage.Write},
	}
	f, err := os.Create(srtPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := srt.WriteRecords(f, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out := runOK(t, "convert", "-in", srtPath, "-out", outPath)
	if !strings.Contains(out, "2 IOs") {
		t.Fatalf("convert output: %s", out)
	}
	if _, err := os.Stat(outPath); err != nil {
		t.Fatal(err)
	}
}

func TestBadInvocations(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{},
		{"frobnicate"},
		{"stats"},
		{"test"},
		{"test", "-trace", "x", "-loads", "abc"},
		{"test", "-trace", "x", "-device", "floppy"},
		{"gen-real", "-kind", "nope", "-repo", "x"},
		{"convert"},
	}
	for _, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// t.TempDir cleanup guards against stray writes from bad invocations.
	if err := run([]string{"help"}, &buf); err != nil {
		t.Fatalf("help: %v", err)
	}
}

func TestParseLoads(t *testing.T) {
	got, err := parseLoads("10, 50,100")
	if err != nil || len(got) != 3 || got[0] != 0.1 || got[2] != 1.0 {
		t.Fatalf("parseLoads = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-5", "abc", "2000"} {
		if _, err := parseLoads(bad); err == nil {
			t.Errorf("parseLoads(%q) accepted", bad)
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

func TestVerifyCommandPassesOnCommittedCorpus(t *testing.T) {
	out := runOK(t, "verify", "-golden", goldenCorpusDir)
	if !strings.Contains(out, "golden corpus verified") || strings.Count(out, "PASS") < 3 {
		t.Fatalf("verify output: %s", out)
	}
}

func TestVerifyCommandUpdateRegenerates(t *testing.T) {
	dir := t.TempDir()
	traces, err := filepath.Glob(filepath.Join(goldenCorpusDir, "*.trace.txt"))
	if err != nil || len(traces) == 0 {
		t.Fatalf("no corpus traces: %v", err)
	}
	blob, err := os.ReadFile(traces[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(traces[0])), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "verify", "-golden", dir, "-update")
	if !strings.Contains(out, "UPDATED") {
		t.Fatalf("update output: %s", out)
	}
	out = runOK(t, "verify", "-golden", dir)
	if !strings.Contains(out, "golden corpus verified") {
		t.Fatalf("post-update verify output: %s", out)
	}
}

// TestVerifyCommandTruncatedFixture is the satellite regression: a
// fixture truncated mid-bunch must produce a labelled error and a
// non-zero exit path, not a panic.
func TestVerifyCommandTruncatedFixture(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "cut.trace.txt")
	text := "# blktrace-text v1\ndevice cut\nB 0 4\n0 4096 R\n8 4096 W\n"
	if err := os.WriteFile(bad, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"verify", "-golden", dir}, &buf)
	if err == nil {
		t.Fatal("verify accepted a truncated fixture")
	}
	if !strings.Contains(err.Error(), "cut.trace.txt") || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error not labelled: %v", err)
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

	out := runOK(t, "replay", "-repo", repoDir, "-trace", name, "-load", "50", "-telemetry-dir", telDir)
	if !strings.Contains(out, "replayed") || !strings.Contains(out, "tracer report") {
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
}

// TestMappedReplayMatchesBuffered drives -mmap through the CLI and
// requires an .rmap replay to report exactly what the same trace
// replayed from a .replay file reports — at full load, filtered, and
// behind a cache tier — and to export the same artifact set.
func TestMappedReplayMatchesBuffered(t *testing.T) {
	dir := t.TempDir()
	repoDir := filepath.Join(dir, "traces")
	runOK(t, "gen-real", "-repo", repoDir, "-kind", "web")
	name := repository.RealName("raid5-hdd", "web-o4")
	repo, err := repository.Open(repoDir)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := repo.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "t.replay")
	rmap := filepath.Join(dir, "t.rmap")
	if err := blktrace.WriteFile(bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := blktrace.WriteMappedFile(rmap, tr); err != nil {
		t.Fatal(err)
	}

	// Everything before the telemetry line (the result line, plus the
	// cache line with a tier) must be identical across trace formats.
	results := func(out string) string {
		j := strings.Index(out, "\ntelemetry written")
		if !strings.HasPrefix(out, "replayed ") || j < 0 {
			t.Fatalf("unexpected replay output: %s", out)
		}
		return out[:j]
	}
	for _, extra := range [][]string{nil, {"-load", "50"}, {"-cache-tier", "dram"}} {
		name := strings.Join(extra, " ")
		bufDir := filepath.Join(dir, "tel-replay", name)
		mapDir := filepath.Join(dir, "tel-rmap", name)
		want := runOK(t, append([]string{"replay", "-in", bin, "-telemetry-dir", bufDir}, extra...)...)
		got := runOK(t, append([]string{"replay", "-in", rmap, "-mmap", "-telemetry-dir", mapDir}, extra...)...)
		if results(got) != results(want) {
			t.Errorf("-mmap %s: results diverged from .replay:\n got %s\nwant %s", name, results(got), results(want))
		}
		for _, f := range []string{"summary.json", "series.csv", "power_wall.csv"} {
			if _, err := os.Stat(filepath.Join(mapDir, f)); err != nil {
				t.Errorf("-mmap %s: artifact %s missing: %v", name, f, err)
			}
		}
	}
}

func TestReplayAndReportErrors(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"replay"},                            // neither -trace nor -in
		{"replay", "-trace", "a", "-in", "b"}, // both sources
		{"replay", "-in", "x.replay", "-load", "0"},
		{"replay", "-in", "x.replay", "-device", "tape"},
		{"replay", "-trace", "a", "-mmap"}, // mmap needs -in
		{"report", "-dir", filepath.Join(t.TempDir(), "missing")},
	}
	for _, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
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

func TestVerifyFidelityCommand(t *testing.T) {
	out := runOK(t, "verify", "-golden", goldenCorpusDir, "-fidelity")
	if !strings.Contains(out, "workload round-trip fidelity verified") || strings.Count(out, "PASS") != 3 {
		t.Fatalf("fidelity output: %s", out)
	}
	var buf bytes.Buffer
	if err := run([]string{"verify", "-fidelity", "-update"}, &buf); err == nil {
		t.Fatal("-fidelity -update accepted")
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
		rep := runOK(t, "report", "-dir", telDir)
		if !strings.Contains(rep, "fleet.offered") {
			t.Fatalf("report output:\n%s", rep)
		}
	}
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

// TestFleetCommandErrors: flag validation.
func TestFleetCommandErrors(t *testing.T) {
	for _, args := range [][]string{
		{"fleet", "-arrays", "0"},
		{"fleet", "-policy", "nope"},
		{"fleet", "-device", "tape"},
		{"fleet", "-trace", "missing.replay", "-repo", t.TempDir()},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}
