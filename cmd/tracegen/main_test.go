package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/repository"
	"repro/internal/workload"
)

func TestGenerateBinaryTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.replay")
	var buf bytes.Buffer
	err := run([]string{"-out", out, "-size", "8192", "-read", "1", "-random", "0", "-duration", "1s"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote") {
		t.Fatalf("output: %s", buf.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := blktrace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	st := blktrace.ComputeStats(tr)
	if st.ReadRatio != 1 || st.AvgRequestBytes != 8192 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGenerateTextTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.txt")
	var buf bytes.Buffer
	if err := run([]string{"-out", out, "-text", "-duration", "500ms", "-device", "ssd"}, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := blktrace.ReadText(f); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{}, &buf); err == nil {
		t.Fatal("missing -out accepted")
	}
	if err := run([]string{"-out", "x", "-device", "zip"}, &buf); err == nil {
		t.Fatal("bad device accepted")
	}
	if err := run([]string{"-out", filepath.Join(t.TempDir(), "x"), "-size", "-4"}, &buf); err == nil {
		t.Fatal("bad size accepted")
	}

	// Profile synthesis: windows past the simulation horizon and
	// non-finite options fail before any trace is synthesized.
	dir := t.TempDir()
	profile := writeTestProfile(t, dir)
	window := func(name, period string) string {
		path := filepath.Join(dir, name)
		blob := `{"version":1,"name":"` + name + `","periods":[` + period + `]}`
		if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	farStart := window("far-start.json", `{"name":"w","start_ns":9223372036854775000,"duration_ns":1000000000,"load_scale":1,"read_ratio":-1}`)
	longWindow := window("long.json", `{"name":"w","start_ns":0,"duration_ns":9223372036854775000,"load_scale":1,"read_ratio":-1}`)
	// Two 2000 h windows: each needs about 2.9e9 bunches of the
	// profile's ~2.5 ms mean gap, under the cap, but not together.
	twoLong := window("two-long.json", `{"name":"a","start_ns":0,"duration_ns":7200000000000000,"load_scale":1,"read_ratio":-1},`+
		`{"name":"b","start_ns":7200000000000000,"duration_ns":7200000000000000,"load_scale":1,"read_ratio":-1}`)
	out := filepath.Join(dir, "out.replay")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-periods", farStart}, "workload: period w (start 2562047h47m16.854775s, duration 1s) ends past the simulation horizon"},
		{[]string{"-periods", longWindow}, "workload: period w (start 0s, duration 2562047h47m16.854775s) ends past the simulation horizon"},
		{[]string{"-scale", "NaN"}, "workload: non-finite load scale NaN"},
		{[]string{"-scale", "Inf"}, "workload: non-finite load scale +Inf"},
		{[]string{"-read-mix", "NaN"}, "workload: read ratio is NaN"},
		// Bunch counts past what a .replay file holds fail before
		// anything is allocated: the diurnal night window alone asks for
		// ~2.149e10 bunches.
		{[]string{"-periods", "diurnal", "-periods-duration", "300000h"}, "workload: period 0 (night) needs 2.149e+10 bunches, more than the 4294967295 a .replay file holds"},
		{[]string{"-periods", twoLong}, "workload: periods need 5.7"},
		{[]string{"-bunches", "4294967296"}, "workload: 4294967296 bunches exceed the 4294967295 a .replay file holds"},
	} {
		args := append([]string{"-from-profile", profile, "-out", out}, c.args...)
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected synthesis wrote %s (stat: %v)", out, err)
	}
}

// writeTestProfile builds a small profile by analyzing a parametric
// trace, giving the -from-profile tests a realistic input.
func writeTestProfile(t *testing.T, dir string) string {
	t.Helper()
	tracePath := filepath.Join(dir, "src.replay")
	var buf bytes.Buffer
	if err := run([]string{"-out", tracePath, "-duration", "1s"}, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := blktrace.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Analyze(tr, "src")
	if err != nil {
		t.Fatal(err)
	}
	profilePath := filepath.Join(dir, "src.json")
	if err := workload.WriteProfile(profilePath, p); err != nil {
		t.Fatal(err)
	}
	return profilePath
}

func TestGenerateFromProfile(t *testing.T) {
	dir := t.TempDir()
	profilePath := writeTestProfile(t, dir)
	outPath := filepath.Join(dir, "derived.replay")
	repoDir := filepath.Join(dir, "repo")

	var buf bytes.Buffer
	err := run([]string{"-from-profile", profilePath, "-out", outPath, "-repo", repoDir, "-seed", "7"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "synthesized") || !strings.Contains(buf.String(), "stored") {
		t.Fatalf("output: %s", buf.String())
	}
	tr, err := blktrace.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumBunches() == 0 {
		t.Fatal("empty derived trace")
	}
	// The repository copy sits under the derived-name scheme and holds
	// the same trace.
	repo, err := repository.Open(repoDir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := repo.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDerived() ||
		entries[0].ProfileLabel != "src" || entries[0].Seed != 7 {
		t.Fatalf("entries = %+v", entries)
	}
	stored, err := repo.Load(entries[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, stored) {
		t.Fatal("file and repository copies differ")
	}

	// Same profile, same seed: byte-identical output.
	outPath2 := filepath.Join(dir, "derived2.replay")
	if err := run([]string{"-from-profile", profilePath, "-out", outPath2, "-seed", "7"}, &buf); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(outPath2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same profile+seed produced different bytes")
	}

	// -scale and -bunches reshape the synthesis.
	outPath3 := filepath.Join(dir, "derived3.replay")
	if err := run([]string{"-from-profile", profilePath, "-out", outPath3, "-bunches", "10"}, &buf); err != nil {
		t.Fatal(err)
	}
	small, err := blktrace.ReadFile(outPath3)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumBunches() != 10 {
		t.Fatalf("bunches = %d, want 10", small.NumBunches())
	}
}

// TestGenerateFromUnsynthesizableProfile: a profile whose histogram
// counts overflow int64 or whose bunch sizes are not positive fails
// with the distribution named instead of panicking in synthesis.
func TestGenerateFromUnsynthesizableProfile(t *testing.T) {
	dir := t.TempDir()
	src, err := workload.ReadProfile(writeTestProfile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		mut  func(*workload.Profile)
		want string
	}{
		{"overflow", func(p *workload.Profile) {
			p.Spatial.RunIOs = workload.Distribution{Values: []int64{1, 2}, Counts: []int64{9223372036854775807, 1}}
		}, "workload: spatial.run_ios: histogram counts overflow int64"},
		{"negative-bunch", func(p *workload.Profile) {
			p.BunchSize = workload.Distribution{Quantiles: []int64{-1, 1}}
		}, "workload: bunch_size: a bunch must hold at least one IO"},
	} {
		p := *src
		c.mut(&p)
		path := filepath.Join(dir, c.name+".json")
		if err := workload.WriteProfile(path, &p); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err := run([]string{"-from-profile", path, "-out", filepath.Join(dir, c.name+".replay")}, &buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// Each generation source must reject the other source's flags with a
// clear error, one case per rejection.
func TestFlagSourceRejections(t *testing.T) {
	dir := t.TempDir()
	profilePath := writeTestProfile(t, dir)
	out := filepath.Join(dir, "o.replay")

	parametricWithProfile := [][]string{
		{"-from-profile", profilePath, "-out", out, "-device", "ssd"},
		{"-from-profile", profilePath, "-out", out, "-size", "8192"},
		{"-from-profile", profilePath, "-out", out, "-read", "1"},
		{"-from-profile", profilePath, "-out", out, "-random", "0"},
		{"-from-profile", profilePath, "-out", out, "-duration", "1s"},
		{"-from-profile", profilePath, "-out", out, "-qd", "4"},
	}
	for _, args := range parametricWithProfile {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil {
			t.Errorf("run(%v) succeeded, want conflict error", args)
			continue
		}
		if !strings.Contains(err.Error(), "conflict with -from-profile") {
			t.Errorf("run(%v) error not labelled: %v", args, err)
		}
	}

	profileWithoutProfile := [][]string{
		{"-out", out, "-scale", "2"},
		{"-out", out, "-bunches", "5"},
		{"-out", out, "-read-mix", "0.5"},
		{"-out", out, "-repo", dir},
	}
	for _, args := range profileWithoutProfile {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil {
			t.Errorf("run(%v) succeeded, want source error", args)
			continue
		}
		if !strings.Contains(err.Error(), "-from-profile") {
			t.Errorf("run(%v) error not labelled: %v", args, err)
		}
	}

	// A profile synthesis with no destination is an error too.
	var buf bytes.Buffer
	if err := run([]string{"-from-profile", profilePath}, &buf); err == nil {
		t.Error("destination-less -from-profile accepted")
	}
	// Common flags stay usable with both sources.
	if err := run([]string{"-from-profile", profilePath, "-out", out, "-seed", "3", "-text"}, &buf); err != nil {
		t.Errorf("common flags rejected: %v", err)
	}
}
