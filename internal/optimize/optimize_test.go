package optimize

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/conserve"
	"repro/internal/experiments"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// testTrace is a short idle-heavy workload: enough gaps for every
// policy to act, small enough to keep the suite fast.
func testTrace(seed uint64) *blktrace.Trace {
	wp := synth.DefaultWebServer()
	wp.Seed = seed
	wp.Duration = 90 * simtime.Second
	wp.MeanIOPS = 4
	wp.FootprintBytes = 4 << 20
	return synth.WebServerTrace(wp)
}

func testOptions(workers int) Options {
	cfg := experiments.DefaultConfig()
	cfg.Seed = 7
	return Options{Config: cfg, Load: 0.5, Workers: workers}
}

func TestFitnessSanitizesDegenerateObjectives(t *testing.T) {
	w := DefaultWeights()
	for _, o := range []Objectives{
		{IOPSPerWatt: math.NaN()},
		{P99Ms: math.Inf(1)},
		{IOPSPerWatt: math.Inf(-1), P99Ms: math.NaN()},
	} {
		if f := w.Fitness(o); math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("Fitness(%+v) = %v, want finite", o, f)
		}
	}
}

func TestPointSpecRejectsUnknownParam(t *testing.T) {
	_, err := (Point{Policy: "tpm", Params: map[string]float64{"bogus": 1}}).Spec()
	if err == nil {
		t.Fatal("unknown parameter accepted")
	}
}

func TestSpacePointRoundTrip(t *testing.T) {
	s, err := DefaultSpace("drpm")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Cells(), 12; got != want {
		t.Fatalf("Cells() = %d, want %d", got, want)
	}
	seen := map[string]bool{}
	for i := 0; i < s.Cells(); i++ {
		k := s.Point(i).String()
		if seen[k] {
			t.Fatalf("cell %d duplicates point %s", i, k)
		}
		seen[k] = true
	}
}

func TestGridIdenticalAcrossWorkers(t *testing.T) {
	space := Space{Policy: "tpm", Dims: []Dim{{Name: "timeout_s", Values: []float64{2, 5, 10}}}}
	trace := testTrace(1)
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		res, err := Grid(context.Background(), space, trace, testOptions(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(ref, b) {
			t.Fatalf("workers=%d result differs from workers=1:\n%s\nvs\n%s", workers, b, ref)
		}
	}
}

func TestEvolveIdenticalAcrossWorkersAndRuns(t *testing.T) {
	space, err := DefaultSpace("drpm")
	if err != nil {
		t.Fatal(err)
	}
	trace := testTrace(2)
	run := func(workers int) []byte {
		opts := EvolveOptions{Options: testOptions(workers), Generations: 2, Population: 4, Seed: 99}
		res, err := Evolve(context.Background(), space, trace, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		if b := run(workers); !bytes.Equal(ref, b) {
			t.Fatalf("workers=%d evolve result differs", workers)
		}
	}
	if b := run(1); !bytes.Equal(ref, b) {
		t.Fatal("same-seed rerun differs")
	}
}

func TestGridFindsPolicyDecisions(t *testing.T) {
	space := Space{Policy: "tpm", Dims: []Dim{{Name: "timeout_s", Values: []float64{2}}}}
	trace := testTrace(3)
	ev, decisions, err := Record(testOptions(1), space.Point(0), trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) == 0 {
		t.Fatal("idle-heavy trace with 2s timeout produced no decisions")
	}
	if ev.Objectives.SpinUps == 0 {
		t.Fatal("expected demand spin-ups in wear counts")
	}
	for i, d := range decisions {
		if d.Seq != int64(i) {
			t.Fatalf("decision %d has seq %d", i, d.Seq)
		}
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	trace := testTrace(4)
	pt := Point{Policy: "tpm", Params: map[string]float64{"timeout_s": 2}}
	opts := testOptions(1)
	_, decisions, err := Record(opts, pt, trace)
	if err != nil {
		t.Fatal(err)
	}
	h := LedgerHeader{Policy: "tpm", Params: pt.Params, Load: opts.Load, Seed: opts.Config.Seed}
	var buf bytes.Buffer
	if err := WriteLedger(&buf, h, decisions); err != nil {
		t.Fatal(err)
	}
	h2, ds2, err := ReadLedger(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h2.Policy != "tpm" || h2.Load != opts.Load || h2.Seed != opts.Config.Seed {
		t.Fatalf("header round-trip mismatch: %+v", h2)
	}
	if len(ds2) != len(decisions) {
		t.Fatalf("decision count %d, want %d", len(ds2), len(decisions))
	}
	for i := range ds2 {
		if ds2[i] != decisions[i] {
			t.Fatalf("decision %d round-trip mismatch: %+v vs %+v", i, ds2[i], decisions[i])
		}
	}
}

func TestLedgerRejectsCorruption(t *testing.T) {
	trace := testTrace(4)
	pt := Point{Policy: "tpm", Params: map[string]float64{"timeout_s": 2}}
	opts := testOptions(1)
	_, decisions, err := Record(opts, pt, trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) < 2 {
		t.Fatalf("need >= 2 decisions, got %d", len(decisions))
	}
	var buf bytes.Buffer
	if err := WriteLedger(&buf, LedgerHeader{Policy: "tpm", Load: 0.5, Seed: 7}, decisions); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	lines := strings.SplitAfter(strings.TrimSuffix(good, "\n"), "\n")

	cases := map[string]string{
		"empty":           "",
		"truncated tail":  strings.Join(lines[:len(lines)-1], ""),
		"cut mid-line":    good[:len(good)-10],
		"bad json header": "{not json\n" + strings.Join(lines[1:], ""),
		"bad json line":   lines[0] + "{not json\n" + strings.Join(lines[2:], ""),
		"wrong version":   strings.Replace(good, `"version":1`, `"version":9`, 1),
		"seq gap":         strings.Replace(good, `"seq":1`, `"seq":5`, 1),
		"missing policy":  strings.Replace(good, `"policy":"tpm"`, `"policy":""`, 1),
	}
	for name, data := range cases {
		if _, _, err := ReadLedger(strings.NewReader(data)); !errors.Is(err, ErrBadLedger) {
			t.Errorf("%s: error %v, want ErrBadLedger", name, err)
		}
	}
	if _, _, err := ReadLedger(strings.NewReader(good)); err != nil {
		t.Fatalf("pristine ledger rejected: %v", err)
	}
}

func TestCounterfactualSpinDown(t *testing.T) {
	trace := testTrace(5)
	pt := Point{Policy: "tpm", Params: map[string]float64{"timeout_s": 2}}
	opts := testOptions(1)
	_, decisions, err := Record(opts, pt, trace)
	if err != nil {
		t.Fatal(err)
	}
	h := LedgerHeader{Policy: "tpm", Params: pt.Params, Load: opts.Load, Seed: opts.Config.Seed}

	var pin int64 = -1
	var forced int64 = -1
	for _, d := range decisions {
		if pin < 0 && d.Kind == conserve.DecisionSpinDown && !d.Forced {
			pin = d.Seq
		}
		if forced < 0 && d.Forced {
			forced = d.Seq
		}
	}
	if pin < 0 {
		t.Fatal("no spin-down decision recorded")
	}
	w, err := Counterfactual(opts, h, decisions, pin, trace)
	if err != nil {
		t.Fatal(err)
	}
	if w.DeltaEnergyJ == 0 {
		t.Fatalf("vetoing spin-down %d left energy unchanged: %+v", pin, w)
	}
	// Keeping the disk up must cost energy relative to the recorded run.
	if w.DeltaEnergyJ < 0 {
		t.Fatalf("vetoing a spin-down reduced energy: %+v", w)
	}

	if forced >= 0 {
		if _, err := Counterfactual(opts, h, decisions, forced, trace); err == nil {
			t.Fatal("forced decision accepted for counterfactual")
		}
	}
	if _, err := Counterfactual(opts, h, decisions, int64(len(decisions)), trace); err == nil {
		t.Fatal("out-of-range decision accepted")
	}
}

// TestVetoedDecisionHolds: a counterfactual veto must stick.  For every
// replayable decision of a TPM and a DRPM run, the rerun that vetoes it
// must match the recorded run up to the pin and never make the same
// proposal again later; the policy may only act on that disk once new
// activity re-arms its idle check.  Vetoing the first decision must
// change the energy.
func TestVetoedDecisionHolds(t *testing.T) {
	trace := testTrace(5)
	opts := testOptions(1)
	// sameProposal reports whether two decisions agree in every field
	// but the sequence number and the veto.
	sameProposal := func(a, b conserve.Decision) bool {
		a.Seq, a.Vetoed = b.Seq, b.Vetoed
		return a == b
	}
	for _, pt := range []Point{
		{Policy: "tpm", Params: map[string]float64{"timeout_s": 5}},
		{Policy: "drpm", Params: map[string]float64{"levels": 4, "stepdown_s": 5}},
	} {
		t.Run(pt.String(), func(t *testing.T) {
			_, decisions, err := Record(opts, pt, trace)
			if err != nil {
				t.Fatal(err)
			}
			replayable := ReplayableDecisions(decisions)
			if len(replayable) == 0 || replayable[0].Seq != 0 {
				t.Fatalf("decision 0 is not replayable (%d of %d decisions are)", len(replayable), len(decisions))
			}
			for _, pinned := range replayable {
				rec := &Recorder{}
				if _, err := Evaluate(opts, pt, trace, &conserve.Control{Observer: rec, Arbiter: pinArbiter{seq: pinned.Seq}}); err != nil {
					t.Fatal(err)
				}
				rerun := rec.Decisions()
				if int64(len(rerun)) <= pinned.Seq || !rerun[pinned.Seq].Vetoed || !sameProposal(rerun[pinned.Seq], pinned) {
					t.Fatalf("rerun pinning decision %d does not reach it as recorded", pinned.Seq)
				}
				for _, d := range rerun[pinned.Seq+1:] {
					if sameProposal(d, pinned) {
						t.Fatalf("decision %d (%s disk %d at %d ns) was vetoed and proposed again as decision %d",
							pinned.Seq, pinned.Kind, pinned.Disk, pinned.At, d.Seq)
					}
				}
			}
			h := LedgerHeader{Policy: pt.Policy, Params: pt.Params, Load: opts.Load, Seed: opts.Config.Seed}
			w, err := Counterfactual(opts, h, decisions, 0, trace)
			if err != nil {
				t.Fatal(err)
			}
			if w.DeltaEnergyJ == 0 {
				t.Fatalf("vetoing decision 0 left energy unchanged: %+v", w)
			}
		})
	}
}

func TestCounterfactualDetectsLedgerDrift(t *testing.T) {
	trace := testTrace(5)
	pt := Point{Policy: "tpm", Params: map[string]float64{"timeout_s": 2}}
	opts := testOptions(1)
	_, decisions, err := Record(opts, pt, trace)
	if err != nil {
		t.Fatal(err)
	}
	var pin int64 = -1
	for _, d := range decisions {
		if d.Kind == conserve.DecisionSpinDown && !d.Forced {
			pin = d.Seq
			break
		}
	}
	if pin < 0 {
		t.Fatal("no spin-down decision recorded")
	}
	h := LedgerHeader{Policy: "tpm", Params: pt.Params, Load: opts.Load, Seed: opts.Config.Seed}
	tampered := append([]conserve.Decision(nil), decisions...)
	tampered[pin].At += 12345
	if _, err := Counterfactual(opts, h, tampered, pin, trace); err == nil {
		t.Fatal("drifted ledger accepted")
	}
}

// TestBaselineUsesPaperDefaults: every policy's baseline (its empty
// point) is bit-identical to that policy's paper-default point spelled
// out parameter by parameter.
func TestBaselineUsesPaperDefaults(t *testing.T) {
	trace := testTrace(6)
	for _, tc := range []struct {
		policy string
		params map[string]float64
	}{
		{"tpm", map[string]float64{"timeout_s": 10}},
		{"drpm", map[string]float64{"stepdown_s": 2, "levels": 4}},
		{"eraid", map[string]float64{"low_iops": 20, "high_iops": 60, "window_s": 2}},
		{"pdc", map[string]float64{"reorg_s": 5, "timeout_s": 10}},
		{"maid", map[string]float64{"cache_disks": 1, "timeout_s": 10}},
		{"cache", map[string]float64{"timeout_s": 10, "capacity_mb": 32}},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			base, err := Baseline(testOptions(1), tc.policy, trace)
			if err != nil {
				t.Fatal(err)
			}
			explicit, err := Evaluate(testOptions(1), Point{Policy: tc.policy, Params: tc.params}, trace, nil)
			if err != nil {
				t.Fatal(err)
			}
			if base.Fitness != explicit.Fitness || base.Objectives != explicit.Objectives {
				t.Fatalf("baseline %v %+v != explicit %s %v %+v",
					base.Fitness, base.Objectives, explicit.Point, explicit.Fitness, explicit.Objectives)
			}
		})
	}
}

// TestCacheCapacityMustBeFinitePositive: a capacity_mb that is not a
// finite size > 0 is an error, never a silent fallback to the default
// tier — whether it reaches Evaluate directly or sits anywhere in a
// space's dimension.
func TestCacheCapacityMustBeFinitePositive(t *testing.T) {
	trace := testTrace(6)
	for _, mb := range []float64{math.NaN(), -5, 0, math.Inf(1)} {
		pt := Point{Policy: "cache", Params: map[string]float64{"capacity_mb": mb}}
		if _, err := Evaluate(testOptions(1), pt, trace, nil); err == nil {
			t.Errorf("capacity_mb=%v evaluated without error", mb)
		}
		space := Space{Policy: "cache", Dims: []Dim{{Name: "capacity_mb", Values: []float64{32, mb}}}}
		if err := space.Validate(); err == nil {
			t.Errorf("space with capacity_mb=%v validated", mb)
		}
	}
}

// TestPointSpecRejectsValuesTheSpecWouldReplace: a search value the
// stack would not run as given fails in Point.Spec, and so in
// Space.Validate before any cell runs, never falls back to a default,
// truncates or fails only once its cell runs.
func TestPointSpecRejectsValuesTheSpecWouldReplace(t *testing.T) {
	for _, tc := range []struct {
		policy, name string
		v            float64
	}{
		{"tpm", "timeout_s", -5},
		{"tpm", "timeout_s", math.NaN()},
		{"tpm", "timeout_s", 1e30},  // nanoseconds overflow int64
		{"tpm", "timeout_s", 1e-10}, // rounds to 0 ns, the default
		{"cache", "timeout_s", 0},
		{"pdc", "timeout_s", math.Inf(1)},
		{"maid", "timeout_s", -1},
		{"drpm", "stepdown_s", 0},
		{"drpm", "levels", 2.9},
		{"eraid", "low_iops", 0},
		{"eraid", "high_iops", -60},
		{"eraid", "low_iops", 100}, // above the default high_iops
		{"eraid", "window_s", -2},
		{"pdc", "reorg_s", -1},
		{"maid", "cache_disks", 0},
		{"maid", "cache_disks", 1.5},
		{"maid", "cache_disks", 6},
		{"cache", "flush_s", 0},
		{"cache", "idle_drain_s", math.Inf(-1)},
		{"cache", "capacity_mb", 1e-300}, // rounds to 0 bytes
	} {
		pt := Point{Policy: tc.policy, Params: map[string]float64{tc.name: tc.v}}
		if _, err := pt.Spec(); err == nil {
			t.Errorf("%s accepted", pt)
		}
		space := Space{Policy: tc.policy, Dims: []Dim{{Name: tc.name, Values: []float64{tc.v}}}}
		if err := space.Validate(); err == nil {
			t.Errorf("space %+v validated", space)
		}
	}
	// What is accepted runs as given: a negative cache cadence disables
	// the policy, and levels and cache_disks reach the spec whole.
	spec, err := Point{Policy: "cache", Params: map[string]float64{"flush_s": -1}}.Spec()
	if err != nil || spec.Cache.FlushInterval != -simtime.Second {
		t.Fatalf("flush_s=-1: %v, interval %v", err, spec.Cache.FlushInterval)
	}
	spec, err = Point{Policy: "drpm", Params: map[string]float64{"levels": 2}}.Spec()
	if err != nil || len(spec.Conserve.DRPMLevels) != 2 {
		t.Fatalf("levels=2: %v, %v", err, spec.Conserve.DRPMLevels)
	}
	spec, err = Point{Policy: "maid", Params: map[string]float64{"cache_disks": 5}}.Spec()
	if err != nil || spec.Conserve.MAIDCacheDisks != 5 {
		t.Fatalf("cache_disks=5: %v, %d", err, spec.Conserve.MAIDCacheDisks)
	}
}

// TestSpaceValidateRejectsRepeatsOverflowAndCrossedCorners: a space is
// rejected when a Point would drop one of its values, when Cells would
// wrap, or when some cell pairs a low_iops with a high_iops below it.
func TestSpaceValidateRejectsRepeatsOverflowAndCrossedCorners(t *testing.T) {
	twice := Space{Policy: "tpm", Dims: []Dim{
		{Name: "timeout_s", Values: []float64{1, 2}},
		{Name: "timeout_s", Values: []float64{5}},
	}}
	if err := twice.Validate(); err == nil || !strings.Contains(err.Error(), "given twice") {
		t.Errorf("repeated dimension: %v", err)
	}
	// Four valid dimensions of 2^16 values each make 2^64 cells.
	wide := Space{Policy: "cache"}
	for _, name := range []string{"capacity_mb", "flush_s", "idle_drain_s", "timeout_s"} {
		d := Dim{Name: name}
		for v := 1; v <= 1<<16; v++ {
			d.Values = append(d.Values, float64(v))
		}
		wide.Dims = append(wide.Dims, d)
	}
	if err := wide.Validate(); err == nil || !strings.Contains(err.Error(), "more cells than an int can count") {
		t.Errorf("2^64 cells: %v", err)
	}
	crossed := Space{Policy: "eraid", Dims: []Dim{
		{Name: "low_iops", Values: []float64{10, 100}},
		{Name: "high_iops", Values: []float64{120, 60}},
	}}
	if err := crossed.Validate(); err == nil || !strings.Contains(err.Error(), "thresholds inverted: low 100 >= high 60") {
		t.Errorf("crossed thresholds: %v", err)
	}
	for _, policy := range []string{"tpm", "drpm", "eraid", "pdc", "maid", "cache"} {
		s, err := DefaultSpace(policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("default %s space: %v", policy, err)
		}
	}
}
