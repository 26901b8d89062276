package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/optimize"
)

// The CLI spec grammars either parse into something that runs or fail
// with a labelled error; they never panic.  Stacks are built only when
// their cache tier holds at most fuzzMaxBuildMB, to keep the fuzzer's
// memory bounded; a larger tier must still pass CacheSpec.Validate.
const (
	fuzzMaxBuildMB = 1024
	// fuzzMaxCells bounds the cells of one space the harness builds,
	// spread evenly over the grid.
	fuzzMaxCells = 16
)

var (
	fuzzPolicies = []string{"tpm", "drpm", "eraid", "pdc", "maid", "cache"}
	// labelled matches an error that names where it came from.
	labelled = regexp.MustCompile(`^[a-z]+: `)
)

// spaceText renders s as -space text.
func spaceText(s optimize.Space) string {
	dims := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		vals := make([]string, len(d.Values))
		for j, v := range d.Values {
			vals[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		dims[i] = d.Name + "=" + strings.Join(vals, ",")
	}
	return strings.Join(dims, ";")
}

// checkBuilds builds spec, or, for a cache tier too large to build
// here, asks its own validation.
func checkBuilds(t *testing.T, what string, spec experiments.StackSpec) {
	t.Helper()
	if spec.Cache != nil && spec.Cache.CapacityMB > fuzzMaxBuildMB {
		if err := spec.Cache.Validate(); err != nil && !labelled.MatchString(err.Error()) {
			t.Fatalf("%s: unlabelled error %q", what, err)
		}
		return
	}
	if _, err := experiments.Build(experiments.DefaultConfig(), spec); err != nil {
		t.Fatalf("%s parsed but does not build: %v", what, err)
	}
}

// FuzzParseSpace: a policy (by index) and -space text give a labelled
// error or a space whose cells all build.
func FuzzParseSpace(f *testing.F) {
	for i, policy := range fuzzPolicies {
		s, err := optimize.DefaultSpace(policy)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), spaceText(s))
	}
	f.Add(uint8(1), "stepdown_s=0.5,1,2,5;levels=2,3,4") // README
	f.Add(uint8(0), "timeout_s=10,60")
	f.Add(uint8(0), "timeout_s=-5,NaN,10,1e30")
	f.Add(uint8(4), "cache_disks=0,1;timeout_s=2")
	f.Add(uint8(3), "reorg_s=-1,5;timeout_s=10")
	f.Add(uint8(1), "stepdown_s=2;levels=2.9,2")
	f.Add(uint8(2), "low_iops=10,100;high_iops=120,60")
	f.Add(uint8(5), "capacity_mb=1e-300;flush_s=-1;idle_drain_s=0")
	f.Add(uint8(5), "capacity_mb=8796093022207")
	f.Add(uint8(0), strings.Repeat("timeout_s=1,2;", 64))
	f.Fuzz(func(t *testing.T, policy uint8, text string) {
		p := fuzzPolicies[int(policy)%len(fuzzPolicies)]
		space, err := parseSpace(p, text)
		if err != nil {
			if !labelled.MatchString(err.Error()) {
				t.Fatalf("parseSpace(%q, %q): unlabelled error %q", p, text, err)
			}
			return
		}
		n := space.Cells()
		for i := 0; i < n; i += n/fuzzMaxCells + 1 {
			pt := space.Point(i)
			spec, err := pt.Spec()
			if err != nil {
				t.Fatalf("validated space %q has a cell %s its spec rejects: %v", text, pt, err)
			}
			checkBuilds(t, fmt.Sprintf("cell %s", pt), spec)
		}
	})
}

// FuzzParseCacheSpecs: -specs text gives a labelled error or specs
// that all build in front of the study's array.
func FuzzParseCacheSpecs(f *testing.F) {
	cols := make([]string, 0, 3)
	for _, s := range experiments.DefaultCacheStudySpecs() {
		col := "uncached"
		if s.Enabled() {
			col = fmt.Sprintf("%s:%g", s.Tier, s.CapacityMB)
		}
		f.Add(col)
		cols = append(cols, col)
	}
	f.Add(strings.Join(cols, ","))                          // README
	f.Add("uncached,dram:32,dram:32:2q:bypass-seq,ssd:256") // the -specs usage
	f.Add("dram:32:2q")
	f.Add("dram:8796093022207")
	f.Add("dram:1e-300")
	f.Add("dram:NaN,ssd:Inf,dram:0,tape:32,dram:32:fifo,dram:32:lru:maybe")
	f.Fuzz(func(t *testing.T, text string) {
		specs, err := parseCacheSpecs(text)
		if err != nil {
			if !labelled.MatchString(err.Error()) {
				t.Fatalf("parseCacheSpecs(%q): unlabelled error %q", text, err)
			}
			return
		}
		for _, spec := range specs {
			checkBuilds(t, fmt.Sprintf("spec %s", spec.Label()), experiments.StackSpec{Cache: &spec})
		}
	})
}
