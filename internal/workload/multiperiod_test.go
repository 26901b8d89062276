package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/simtime"
	"repro/internal/storage"
)

func validPeriods() []Period {
	return []Period{
		{Name: "a", Start: 0, Duration: simtime.Minute, LoadScale: 1, ReadRatio: -1},
		{Name: "b", Start: simtime.Minute, Duration: simtime.Minute, LoadScale: 2, ReadRatio: -1},
	}
}

func TestMultiPeriodValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		spec MultiPeriodSpec
		want string
	}{
		{
			name: "no periods",
			spec: MultiPeriodSpec{Name: "empty"},
			want: "no periods",
		},
		{
			name: "zero duration",
			spec: MultiPeriodSpec{Periods: []Period{
				{Name: "z", Start: 0, Duration: 0, LoadScale: 1, ReadRatio: -1},
			}},
			want: "non-positive duration",
		},
		{
			name: "negative duration",
			spec: MultiPeriodSpec{Periods: []Period{
				{Name: "z", Start: 0, Duration: -simtime.Second, LoadScale: 1, ReadRatio: -1},
			}},
			want: "non-positive duration",
		},
		{
			name: "negative start",
			spec: MultiPeriodSpec{Periods: []Period{
				{Name: "z", Start: -simtime.Second, Duration: simtime.Second, LoadScale: 1, ReadRatio: -1},
			}},
			want: "negative start",
		},
		{
			name: "negative load scale",
			spec: MultiPeriodSpec{Periods: []Period{
				{Name: "z", Start: 0, Duration: simtime.Second, LoadScale: -0.5, ReadRatio: -1},
			}},
			want: "negative load scale",
		},
		{
			name: "read ratio above 1",
			spec: MultiPeriodSpec{Periods: []Period{
				{Name: "z", Start: 0, Duration: simtime.Second, LoadScale: 1, ReadRatio: 1.5},
			}},
			want: "read ratio",
		},
		{
			name: "overlapping windows",
			spec: MultiPeriodSpec{Periods: []Period{
				{Name: "a", Start: 0, Duration: 2 * simtime.Second, LoadScale: 1, ReadRatio: -1},
				{Name: "b", Start: simtime.Second, Duration: simtime.Second, LoadScale: 1, ReadRatio: -1},
			}},
			want: "overlaps",
		},
		{
			name: "bad version",
			spec: MultiPeriodSpec{Version: 99, Periods: validPeriods()},
			want: "version",
		},
		{
			name: "start past the horizon",
			spec: MultiPeriodSpec{Periods: []Period{
				{Name: "far", Start: 9223372036854775000, Duration: simtime.Second, LoadScale: 1, ReadRatio: -1},
			}},
			want: "ends past the simulation horizon",
		},
		{
			name: "duration past the horizon",
			spec: MultiPeriodSpec{Periods: []Period{
				{Name: "long", Start: 0, Duration: 9223372036854775000, LoadScale: 1, ReadRatio: -1},
			}},
			want: "ends past the simulation horizon",
		},
		{
			name: "end one past the horizon",
			spec: MultiPeriodSpec{Periods: []Period{
				{Name: "edge", Start: simtime.Duration(simtime.Horizon) - simtime.Second, Duration: simtime.Second + 1, LoadScale: 1, ReadRatio: -1},
			}},
			want: "ends past the simulation horizon",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
			// SynthesizeMulti must surface the same rejection.
			p, aerr := Analyze(fixedTrace(), "fix")
			if aerr != nil {
				t.Fatal(aerr)
			}
			if _, serr := SynthesizeMulti(p, tc.spec, SynthOptions{ReadRatio: -1}); serr == nil {
				t.Fatal("SynthesizeMulti accepted an invalid spec")
			}
		})
	}
}

// TestSynthesizeMultiRejectsTooManyBunches: a window, or all windows
// together, needing more bunches than a .replay file holds fails with
// a label before any window is synthesized.
func TestSynthesizeMultiRejectsTooManyBunches(t *testing.T) {
	p, err := Analyze(fixedTrace(), "fix")
	if err != nil {
		t.Fatal(err)
	}
	// A window of MaxBunches-1 mean gaps needs MaxBunches bunches, up
	// to rounding: at the cap, but not past it.
	capDur := simtime.Duration(float64(MaxBunches-1) * p.Gaps.MeanNs)
	for _, tc := range []struct {
		name    string
		periods []Period
		want    string
	}{
		{"one window", []Period{
			{Name: "w", Duration: 2 * capDur, LoadScale: 1, ReadRatio: -1},
		}, "workload: period 0 (w) needs 8.59e+09 bunches, more than the 4294967295 a .replay file holds"},
		{"load scale", []Period{
			{Name: "quiet", Duration: simtime.Second, LoadScale: 1, ReadRatio: -1},
			{Name: "w", Start: simtime.Second, Duration: capDur, LoadScale: 1.5, ReadRatio: -1},
		}, "workload: period 1 (w) needs 6.442e+09 bunches"},
		{"NaN load scale", []Period{
			{Name: "w", Duration: simtime.Second, LoadScale: math.NaN(), ReadRatio: -1},
		}, "workload: period 0 (w) needs NaN bunches"},
		{"together", []Period{
			{Name: "a", Duration: capDur, LoadScale: 1, ReadRatio: -1},
			{Name: "b", Start: capDur, Duration: simtime.Second, LoadScale: 1, ReadRatio: -1},
		}, "workload: periods need 4.295e+09 bunches together, more than the 4294967295 a .replay file holds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := SynthesizeMulti(p, MultiPeriodSpec{Periods: tc.periods}, SynthOptions{ReadRatio: -1})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("SynthesizeMulti = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// A window may end exactly at the horizon, and the spec's duration is
// then the horizon itself.
func TestMultiPeriodWindowEndingAtHorizon(t *testing.T) {
	h := simtime.Duration(simtime.Horizon)
	spec := MultiPeriodSpec{Periods: []Period{
		{Name: "first", Start: 0, Duration: simtime.Second, LoadScale: 1, ReadRatio: -1},
		{Name: "last", Start: h - simtime.Second, Duration: simtime.Second, LoadScale: 0, ReadRatio: -1},
	}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := spec.Duration(); got != h {
		t.Fatalf("Duration() = %v, want the horizon %v", got, h)
	}
}

func TestMultiPeriodPresets(t *testing.T) {
	for _, name := range []string{"diurnal", "flash-crowd", "multi-tenant"} {
		spec, err := PresetSpec(name, 10*simtime.Minute)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s preset invalid: %v", name, err)
		}
		if spec.Duration() != 10*simtime.Minute && name != "flash-crowd" {
			t.Fatalf("%s duration = %v, want 10m", name, spec.Duration())
		}
	}
	if _, err := PresetSpec("tide", simtime.Minute); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := PresetSpec("diurnal", 0); err == nil {
		t.Fatal("zero preset duration accepted")
	}
}

func TestSynthesizeMultiShape(t *testing.T) {
	p, err := Analyze(webTrace(), "web")
	if err != nil {
		t.Fatal(err)
	}
	spec := MultiPeriodSpec{
		Version: MultiPeriodVersion,
		Name:    "two-phase",
		Periods: []Period{
			{Name: "calm", Start: 0, Duration: 10 * simtime.Second, LoadScale: 0.5, ReadRatio: -1},
			{Name: "busy", Start: 10 * simtime.Second, Duration: 10 * simtime.Second, LoadScale: 3, ReadRatio: 0.1},
		},
	}
	tr, err := SynthesizeMulti(p, spec, SynthOptions{Seed: 7, ReadRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// The busy window must be denser than the calm one.
	var calm, busy int
	var busyReads, busyIOs int
	for _, b := range tr.Bunches {
		if b.Time < 10*simtime.Second {
			calm++
		} else {
			busy++
			for _, pkg := range b.Packages {
				busyIOs++
				if pkg.Op == storage.Read {
					busyReads++
				}
			}
		}
	}
	if calm == 0 || busy == 0 {
		t.Fatalf("windows empty: calm %d busy %d", calm, busy)
	}
	if busy < 3*calm {
		t.Fatalf("busy window (%d bunches) not ~6x denser than calm (%d)", busy, calm)
	}
	// The busy window's mix follows its ReadRatio override.
	if ratio := float64(busyReads) / float64(busyIOs); ratio > 0.3 {
		t.Fatalf("busy read ratio %v, want ~0.1", ratio)
	}
	if tr.Duration() > spec.Duration() {
		t.Fatalf("trace duration %v beyond spec %v", tr.Duration(), spec.Duration())
	}
}

func TestSynthesizeMultiDeterministic(t *testing.T) {
	p, err := Analyze(fixedTrace(), "fix")
	if err != nil {
		t.Fatal(err)
	}
	spec := DiurnalSpec(4 * simtime.Minute)
	a, err := SynthesizeMulti(p, spec, SynthOptions{Seed: 3, ReadRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SynthesizeMulti(p, spec, SynthOptions{Seed: 3, ReadRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := blktrace.WriteText(&ab, a); err != nil {
		t.Fatal(err)
	}
	if err := blktrace.WriteText(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("same seed produced different multi-period traces")
	}
}
