package powersim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

// handlerFunc adapts a closure to simtime.Handler for test scheduling.
type handlerFunc func(*simtime.Engine, simtime.EventArg)

func (f handlerFunc) OnEvent(e *simtime.Engine, arg simtime.EventArg) { f(e, arg) }

const sec = simtime.Second

func TestTimelineBase(t *testing.T) {
	tl := NewTimeline(8)
	if got := tl.At(0); got != 8 {
		t.Fatalf("At(0) = %v, want 8", got)
	}
	if got := tl.At(simtime.Time(100 * sec)); got != 8 {
		t.Fatalf("At(100s) = %v, want 8", got)
	}
	if got := tl.EnergyJ(0, simtime.Time(10*sec)); got != 80 {
		t.Fatalf("EnergyJ = %v, want 80", got)
	}
}

func TestTimelineSteps(t *testing.T) {
	tl := NewTimeline(10)
	tl.Set(simtime.Time(2*sec), 20)
	tl.Set(simtime.Time(4*sec), 10)
	// 0-2s at 10W, 2-4s at 20W, 4-6s at 10W => 20+40+20 = 80 J over 6s
	if got := tl.EnergyJ(0, simtime.Time(6*sec)); math.Abs(got-80) > 1e-9 {
		t.Fatalf("EnergyJ = %v, want 80", got)
	}
	if got := tl.MeanWatts(0, simtime.Time(6*sec)); math.Abs(got-80.0/6) > 1e-9 {
		t.Fatalf("MeanWatts = %v", got)
	}
	if got := tl.At(simtime.Time(3 * sec)); got != 20 {
		t.Fatalf("At(3s) = %v, want 20", got)
	}
	if got := tl.At(simtime.Time(2 * sec)); got != 20 {
		t.Fatalf("At(2s) = %v, want 20 (right-continuous)", got)
	}
}

func TestTimelinePartialWindow(t *testing.T) {
	tl := NewTimeline(10)
	tl.Set(simtime.Time(5*sec), 30)
	// window [4s,6s): 1s at 10W + 1s at 30W = 40 J
	if got := tl.EnergyJ(simtime.Time(4*sec), simtime.Time(6*sec)); math.Abs(got-40) > 1e-9 {
		t.Fatalf("EnergyJ = %v, want 40", got)
	}
}

func TestTimelineSetSameTimeOverwrites(t *testing.T) {
	tl := NewTimeline(5)
	tl.Set(simtime.Time(sec), 10)
	tl.Set(simtime.Time(sec), 12)
	if got := tl.At(simtime.Time(sec)); got != 12 {
		t.Fatalf("At = %v, want 12", got)
	}
}

func TestTimelineCompaction(t *testing.T) {
	tl := NewTimeline(5)
	tl.Set(simtime.Time(sec), 5) // no change: should not add a step
	if tl.Steps() != 1 {
		t.Fatalf("Steps = %d, want 1", tl.Steps())
	}
}

func TestTimelineSetPastPanics(t *testing.T) {
	tl := NewTimeline(5)
	tl.Set(simtime.Time(2*sec), 6)
	defer func() {
		if recover() == nil {
			t.Fatal("Set in the past did not panic")
		}
	}()
	tl.Set(simtime.Time(sec), 7)
}

// A relative change is a Set of the draw in force plus the change.
func TestTimelineAdd(t *testing.T) {
	tl := NewTimeline(8)
	for _, c := range []struct {
		at simtime.Time
		dw float64
	}{{simtime.Time(sec), 3.5}, {simtime.Time(2 * sec), -3.5}} {
		tl.Set(c.at, tl.At(c.at)+c.dw)
	}
	if got := tl.At(simtime.Time(sec + sec/2)); got != 11.5 {
		t.Fatalf("At(1.5s) = %v, want 11.5", got)
	}
	if got := tl.At(simtime.Time(3 * sec)); got != 8 {
		t.Fatalf("At(3s) = %v, want 8", got)
	}
}

func TestSum(t *testing.T) {
	a, b := NewTimeline(10), NewTimeline(5)
	b.Set(simtime.Time(sec), 15)
	s := Sum{a, b}
	// [0,2s): a=20J, b=5+15=20J
	if got := s.EnergyJ(0, simtime.Time(2*sec)); math.Abs(got-40) > 1e-9 {
		t.Fatalf("Sum.EnergyJ = %v, want 40", got)
	}
	if got := s.MeanWatts(0, simtime.Time(2*sec)); math.Abs(got-20) > 1e-9 {
		t.Fatalf("Sum.MeanWatts = %v, want 20", got)
	}
}

func TestPSU(t *testing.T) {
	tl := NewTimeline(85)
	psu := PSU{Source: tl, Efficiency: 0.85, StandbyW: 5}
	// wall = 85/0.85 + 5 = 105
	if got := psu.MeanWatts(0, simtime.Time(sec)); math.Abs(got-105) > 1e-9 {
		t.Fatalf("PSU.MeanWatts = %v, want 105", got)
	}
	if got := psu.EnergyJ(0, simtime.Time(2*sec)); math.Abs(got-210) > 1e-9 {
		t.Fatalf("PSU.EnergyJ = %v, want 210", got)
	}
}

func TestPSUDegenerateEfficiency(t *testing.T) {
	tl := NewTimeline(50)
	psu := PSU{Source: tl, Efficiency: 0} // treated as 1.0
	if got := psu.MeanWatts(0, simtime.Time(sec)); got != 50 {
		t.Fatalf("MeanWatts = %v, want 50", got)
	}
}

func TestMeterNoiselessMatchesGroundTruth(t *testing.T) {
	tl := NewTimeline(50)
	tl.Set(simtime.Time(sec+sec/2), 100)
	m := &Meter{Source: tl, Cycle: sec, SupplyVolts: 220}
	samples := m.Measure(0, simtime.Time(3*sec))
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	want := []float64{50, 75, 100}
	for i, s := range samples {
		if math.Abs(s.Watts-want[i]) > 1e-9 {
			t.Errorf("sample %d: %v W, want %v", i, s.Watts, want[i])
		}
		if math.Abs(s.Amps*s.Volts-s.Watts) > 1e-9 {
			t.Errorf("sample %d: V*A=%v != W=%v", i, s.Amps*s.Volts, s.Watts)
		}
	}
	if got := MeanWatts(samples); math.Abs(got-75) > 1e-9 {
		t.Fatalf("MeanWatts(samples) = %v, want 75", got)
	}
	if got := EnergyJ(samples); math.Abs(got-225) > 1e-9 {
		t.Fatalf("EnergyJ(samples) = %v, want 225", got)
	}
}

func TestMeterPartialFinalCycle(t *testing.T) {
	tl := NewTimeline(60)
	m := &Meter{Source: tl, Cycle: sec, SupplyVolts: 220}
	samples := m.Measure(0, simtime.Time(2*sec+sec/2))
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	last := samples[2]
	if last.End.Sub(last.Start) != sec/2 {
		t.Fatalf("final cycle length = %v, want 0.5s", last.End.Sub(last.Start))
	}
	if got := EnergyJ(samples); math.Abs(got-150) > 1e-9 {
		t.Fatalf("EnergyJ = %v, want 150", got)
	}
}

func TestMeterNoiseUnbiased(t *testing.T) {
	tl := NewTimeline(100)
	m := DefaultMeter(tl)
	samples := m.Measure(0, simtime.Time(2000*sec))
	mean := MeanWatts(samples)
	// 0.5% noise over 2000 samples: mean should be within ~0.1% of 100 W.
	if !ApproxEqual(mean, 100, 0.002) {
		t.Fatalf("noisy mean = %v, want ~100", mean)
	}
	// but individual samples should actually vary
	var varies bool
	for _, s := range samples[1:] {
		if s.Watts != samples[0].Watts {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("noise enabled but all samples identical")
	}
}

func TestMeterDeterministicSeed(t *testing.T) {
	tl := NewTimeline(100)
	m1 := &Meter{Source: tl, Cycle: sec, NoiseFrac: 0.01, SupplyVolts: 220, Seed: 7}
	m2 := &Meter{Source: tl, Cycle: sec, NoiseFrac: 0.01, SupplyVolts: 220, Seed: 7}
	s1 := m1.Measure(0, simtime.Time(10*sec))
	s2 := m2.Measure(0, simtime.Time(10*sec))
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("same seed produced different samples at %d", i)
		}
	}
}

// TestReadIsSeededDefaultMeter: Read is a DefaultMeter with the given
// seed, measured over the window and aggregated by MeanWatts and
// EnergyJ, bit for bit; an empty window reads nothing.
func TestReadIsSeededDefaultMeter(t *testing.T) {
	tl := NewTimeline(100)
	tl.Set(simtime.Time(sec/3), 140)
	tl.Set(simtime.Time(5*sec/2), 90)
	t0, t1 := simtime.Time(sec/5), simtime.Time(4*sec+sec/7)
	for _, seed := range []uint64{1, 7} {
		m := DefaultMeter(tl)
		m.Seed = seed
		want := m.Measure(t0, t1)
		got := Read(tl, seed, t0, t1)
		if err := sameSamples(got.Samples, want); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !sameBits(got.Watts, MeanWatts(want)) || !sameBits(got.EnergyJ, EnergyJ(want)) {
			t.Fatalf("seed %d: Read = %v W, %v J; want %v W, %v J", seed, got.Watts, got.EnergyJ, MeanWatts(want), EnergyJ(want))
		}
	}
	if Read(tl, 1, t0, t1).Samples[0] == Read(tl, 7, t0, t1).Samples[0] {
		t.Fatal("seeds 1 and 7 read the same noise")
	}
	if r := Read(tl, 1, t1, t0); r.Samples != nil || r.Watts != 0 || r.EnergyJ != 0 {
		t.Fatalf("empty window read %+v", r)
	}
}

func TestStateMachine(t *testing.T) {
	sm := NewStateMachine(map[string]float64{"idle": 8, "seek": 13.5, "active": 11.5}, "idle")
	if sm.State() != "idle" {
		t.Fatalf("initial state = %q", sm.State())
	}
	sm.Transition(simtime.Time(sec), "seek")
	sm.Transition(simtime.Time(2*sec), "active")
	sm.Transition(simtime.Time(3*sec), "idle")
	tl := sm.Timeline()
	// 0-1s:8, 1-2s:13.5, 2-3s:11.5, 3-4s:8 => 41 J
	if got := tl.EnergyJ(0, simtime.Time(4*sec)); math.Abs(got-41) > 1e-9 {
		t.Fatalf("EnergyJ = %v, want 41", got)
	}
}

func TestStateMachineUnknownStatePanics(t *testing.T) {
	sm := NewStateMachine(map[string]float64{"idle": 8}, "idle")
	defer func() {
		if recover() == nil {
			t.Fatal("unknown state did not panic")
		}
	}()
	sm.Transition(simtime.Time(sec), "warp")
}

// Property: for any step sequence, energy over [0,T) equals the sum of
// per-segment energies, and mean power is bounded by min/max step level.
func TestPropertyTimelineEnergyConsistent(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		tl := NewTimeline(5 + rng.Float64()*10)
		lo, hi := tl.At(0), tl.At(0)
		tcur := simtime.Time(0)
		for i := 0; i < int(n%20); i++ {
			tcur = tcur.Add(simtime.Duration(1 + rng.Int64N(int64(2*sec))))
			w := 1 + rng.Float64()*20
			tl.Set(tcur, w)
			lo, hi = math.Min(lo, w), math.Max(hi, w)
		}
		end := tcur.Add(sec)
		mid := simtime.Time(int64(end) / 2)
		total := tl.EnergyJ(0, end)
		split := tl.EnergyJ(0, mid) + tl.EnergyJ(mid, end)
		if math.Abs(total-split) > 1e-6*math.Max(1, total) {
			return false
		}
		mean := tl.MeanWatts(0, end)
		return mean >= lo-1e-9 && mean <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refEnergyJ, refSegments and refAt scan a list of steps from step 0,
// the way EnergyJ, Segments and At did before they started at the step
// in force at t0.  TestTimelineIntegralsMatchFullScan holds the real
// methods to them bit for bit.
func refEnergyJ(steps []step, t0, t1 simtime.Time) float64 {
	var joules float64
	for _, s := range refSegments(steps, t0, t1) {
		joules += s.Watts * s.End.Sub(s.Start).Seconds()
	}
	return joules
}

func refSegments(steps []step, t0, t1 simtime.Time) []Segment {
	if t1 <= t0 {
		return nil
	}
	var segs []Segment
	for i, s := range steps {
		lo, hi := max(s.at, t0), t1
		if i+1 < len(steps) {
			hi = min(steps[i+1].at, t1)
		}
		if hi > lo {
			segs = append(segs, Segment{Start: lo, End: hi, Watts: s.w})
		}
	}
	return segs
}

func refAt(steps []step, t simtime.Time) float64 {
	if len(steps) == 0 {
		return 0
	}
	w := steps[0].w
	for _, s := range steps {
		if s.at <= t {
			w = s.w
		}
	}
	return w
}

func refMeanWatts(steps []step, t0, t1 simtime.Time) float64 {
	if t1 <= t0 {
		return refAt(steps, t0)
	}
	return refEnergyJ(steps, t0, t1) / t1.Sub(t0).Seconds()
}

// refTimeline is a plain timeline: one 16-byte step per Set that
// changes the draw, grown by append.
type refTimeline struct{ steps []step }

func (r *refTimeline) Set(t simtime.Time, w float64) {
	if n := len(r.steps); n > 0 {
		if t < r.steps[n-1].at {
			panic("refTimeline: Set in the past")
		}
		if t == r.steps[n-1].at {
			r.steps[n-1].w = w
			return
		}
		if r.steps[n-1].w == w {
			return
		}
	}
	r.steps = append(r.steps, step{at: t, w: w})
}

func (r *refTimeline) CheckMonotone() error {
	for i, s := range r.steps {
		if i > 0 && s.at <= r.steps[i-1].at {
			return fmt.Errorf("powersim: timeline step %d at %v does not advance past %v", i, s.at, r.steps[i-1].at)
		}
		if math.IsNaN(s.w) || math.IsInf(s.w, 0) {
			return fmt.Errorf("powersim: timeline step %d has non-finite draw %v", i, s.w)
		}
	}
	return nil
}

// decode lists a timeline's steps by reading its chunks directly.
func decode(tl *Timeline) []step {
	var out []step
	cur := tl.cur
	cur.pal = &tl.pal
	for _, c := range append(slices.Clone(tl.sealed), cur) {
		for _, e := range c.steps {
			out = append(out, step{at: c.base + simtime.Time(e>>idxBits), w: math.Float64frombits(c.pal.w[e&idxMask])})
		}
	}
	return out
}

// sameBits reports whether two floats are the same bit pattern, so a
// NaN equals itself and −0 differs from +0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSteps(a, b []step) bool {
	return slices.EqualFunc(a, b, func(x, y step) bool { return x.at == y.at && sameBits(x.w, y.w) })
}

func sameSegments(a, b []Segment) bool {
	return slices.EqualFunc(a, b, func(x, y Segment) bool {
		return x.Start == y.Start && x.End == y.End && sameBits(x.Watts, y.Watts)
	})
}

// setCall is one Set on a timeline under test.
type setCall struct {
	t simtime.Time
	w float64
}

// timelineCase is a Set sequence applied to a compact timeline and a
// reference alike.  zero starts both from the zero value, which takes
// its first step wherever the first Set lands; otherwise both start
// with a step at time zero drawing base.  seals marks a case that must
// seal a chunk, and steps, when positive, is the step count the calls
// must leave.
type timelineCase struct {
	name  string
	zero  bool
	base  float64
	calls []setCall
	seals bool
	steps int
}

// build replays c on a compact timeline and on the reference.
func (c timelineCase) build() (*Timeline, *refTimeline) {
	tl, ref := &Timeline{}, &refTimeline{}
	if !c.zero {
		tl, ref.steps = NewTimeline(c.base), []step{{at: 0, w: c.base}}
	}
	for _, s := range c.calls {
		tl.Set(s.t, s.w)
		ref.Set(s.t, s.w)
	}
	return tl, ref
}

// randomCalls draws n Set calls from levels.  Gaps are drawn from gaps;
// a zero gap overwrites the step before.
func randomCalls(rng *rand.Rand, start simtime.Time, n int, levels []float64, gaps []simtime.Duration) []setCall {
	calls := make([]setCall, n)
	at := start
	for i := range calls {
		calls[i] = setCall{t: at, w: levels[rng.IntN(len(levels))]}
		at = at.Add(gaps[rng.IntN(len(gaps))])
	}
	return calls
}

// distinctLevels returns n distinct draws.
func distinctLevels(n int) []float64 {
	levels := make([]float64, n)
	for i := range levels {
		levels[i] = 0.5 + 0.25*float64(i)
	}
	return levels
}

// timelineCases covers what the encoding must get right: several
// chunks, more draws than a palette holds, offsets too large for one
// chunk, same-time overwrites that miss a full palette, −0, +0 and NaN,
// and zero-value timelines that start after time zero.
func timelineCases() []timelineCase {
	rng := rand.New(rand.NewPCG(21, 4))
	hdd := []float64{8, 13.5, 11.5, 0.8, 20}
	short := []simtime.Duration{0, 1, 1000, simtime.Millisecond, sec}
	cases := []timelineCase{
		{name: "several chunks", base: 8, calls: randomCalls(rng, 1, 3*chunkSteps+500, hdd, short), seals: true},
		{name: "17 draws", base: 1, calls: randomCalls(rng, 1, 2000, distinctLevels(17), short), seals: true},
		{name: "40 draws", base: 1, calls: randomCalls(rng, 1, 2000, distinctLevels(40), short), seals: true},
		{name: "300 draws", base: 1, calls: randomCalls(rng, 1, 6000, distinctLevels(300), short), seals: true},
		{name: "signed zeros and NaN", base: 0, calls: randomCalls(rng, 1, 3000, []float64{math.Copysign(0, -1), 0, math.NaN(), 7}, short)},
		{name: "zero value", zero: true, calls: randomCalls(rng, simtime.Time(3*sec), 500, hdd, short)},
		{name: "zero value, many draws", zero: true, calls: randomCalls(rng, 5, 500, distinctLevels(40), short), seals: true},
	}
	// Three gaps of 2^61 ns, each too long for one chunk's offsets.
	var huge []setCall
	for _, at := range []simtime.Time{0, 1 << 61, 2 << 61, 3 << 61} {
		huge = append(huge, randomCalls(rng, at+1, 30, hdd, short)...)
	}
	cases = append(cases, timelineCase{name: "2^61 ns gaps", base: 8, calls: huge, seals: true})
	// 40 distinct overwrites at time zero fill the first chunk's palette
	// more than twice and must leave one step.
	var first []setCall
	for _, w := range distinctLevels(40) {
		first = append(first, setCall{t: 0, w: w})
	}
	cases = append(cases, timelineCase{name: "overwrites at zero", base: 8, calls: first, steps: 1})
	// Overwrites that miss a full palette in a later, longer chunk.
	var later []setCall
	for i, w := range distinctLevels(16) {
		later = append(later, setCall{t: simtime.Time(i + 1), w: w})
	}
	for _, w := range distinctLevels(40)[16:] {
		later = append(later, setCall{t: 16, w: w})
	}
	cases = append(cases, timelineCase{name: "overwrites past a full palette", base: 8, calls: later, seals: true, steps: 17})
	return cases
}

// Differential: a compact timeline fed the same Set calls as the plain
// 16-byte reference stores the same steps bit for bit, and agrees on
// Steps and CheckMonotone.
func TestTimelineMatchesPlainSteps(t *testing.T) {
	for _, c := range timelineCases() {
		tl, ref := c.build()
		if got := decode(tl); !sameSteps(got, ref.steps) {
			t.Errorf("%s: decoded %d steps differ from the reference's %d", c.name, len(got), len(ref.steps))
		}
		if tl.Steps() != len(ref.steps) {
			t.Errorf("%s: Steps() = %d, reference %d", c.name, tl.Steps(), len(ref.steps))
		}
		if got, want := fmt.Sprint(tl.CheckMonotone()), fmt.Sprint(ref.CheckMonotone()); got != want {
			t.Errorf("%s: CheckMonotone() = %s, reference %s", c.name, got, want)
		}
		if n := len(ref.steps); n > 0 && (tl.last.at != ref.steps[n-1].at || !sameBits(tl.last.w, ref.steps[n-1].w)) {
			t.Errorf("%s: header %+v, last reference step %+v", c.name, tl.last, ref.steps[n-1])
		}
		if c.seals && len(tl.sealed) == 0 {
			t.Errorf("%s: stored in one chunk; the case does not exercise sealing", c.name)
		}
		if c.steps > 0 && tl.Steps() != c.steps {
			t.Errorf("%s: left %d steps, want %d", c.name, tl.Steps(), c.steps)
		}
	}
}

// Differential: on seeded random timelines, the integrals that start at
// the step in force at t0 equal a scan from step 0 exactly.  Draws come
// from a small set, so Set often compacts a repeated value away, and
// some timelines start after time zero, so windows can open before the
// first step as well as on a step, between steps and after the last.
// The timelines of timelineCases are scanned the same way.
func TestTimelineIntegralsMatchFullScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 99))
	levels := []float64{0, 4.5, 7.25, 11.8}
	var cases []timelineCase
	for trial := 0; trial < 300; trial++ {
		c := timelineCase{name: fmt.Sprintf("trial %d", trial), zero: trial%2 == 1}
		start := simtime.Time(0)
		if c.zero {
			start = simtime.Time(rng.Int64N(int64(3 * sec)))
		} else {
			c.base = levels[rng.IntN(len(levels))]
		}
		at := start
		for i, n := 0, rng.IntN(40); i < n; i++ {
			c.calls = append(c.calls, setCall{t: at, w: levels[rng.IntN(len(levels))]})
			at = at.Add(simtime.Duration(rng.Int64N(int64(sec)))) // zero gaps overwrite
		}
		cases = append(cases, c)
	}
	for _, c := range append(cases, timelineCases()...) {
		tl, ref := c.build()
		steps := ref.steps
		pick := func() simtime.Time {
			if len(steps) == 0 {
				return simtime.Time(rng.Int64N(int64(10 * sec)))
			}
			first, last := steps[0].at, steps[len(steps)-1].at
			j := rng.IntN(len(steps))
			switch rng.IntN(4) {
			case 0: // before the first step
				return first - simtime.Time(1+rng.Int64N(int64(sec)))
			case 1: // exactly on a step
				return steps[j].at
			case 2: // between steps
				return steps[j].at + simtime.Time(rng.Int64N(int64(sec/2)))
			default: // after the last step
				return last + simtime.Time(1+rng.Int64N(int64(sec)))
			}
		}
		for w := 0; w < 40; w++ {
			t0, t1 := pick(), pick() // t1 <= t0 makes an empty window
			if got, want := tl.EnergyJ(t0, t1), refEnergyJ(steps, t0, t1); !sameBits(got, want) {
				t.Fatalf("%s: EnergyJ(%v, %v) = %v, full scan %v", c.name, t0, t1, got, want)
			}
			if got, want := tl.MeanWatts(t0, t1), refMeanWatts(steps, t0, t1); !sameBits(got, want) {
				t.Fatalf("%s: MeanWatts(%v, %v) = %v, full scan %v", c.name, t0, t1, got, want)
			}
			if got, want := tl.Segments(t0, t1), refSegments(steps, t0, t1); !sameSegments(got, want) {
				t.Fatalf("%s: Segments(%v, %v) = %v, full scan %v", c.name, t0, t1, got, want)
			}
		}
	}
}

// Memory gate: 1M Set calls cycling through an HDD's five draws retain
// at most 8 B per step plus one chunk of slack, and allocate at most
// 1.5 times that in all.  16-byte steps grown by append would retain
// twice as much and leave more again behind as garbage.
func TestTimelineMemoryPerStep(t *testing.T) {
	hdd := []float64{8, 13.5, 11.5, 0.8, 20}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle frees what the first only unlinked
	runtime.ReadMemStats(&before)
	tl := NewTimeline(hdd[0])
	for i := 1; i <= 1_000_000; i++ {
		tl.Set(simtime.Time(i)*simtime.Time(simtime.Microsecond), hdd[i%len(hdd)])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	total := int64(after.TotalAlloc - before.TotalAlloc)
	limit := 8*int64(tl.Steps()) + 8*chunkSteps
	t.Logf("%d steps: %d B retained, %d B allocated; limit %d B retained", tl.Steps(), retained, total, limit)
	if tl.Steps() != 1_000_001 {
		t.Fatalf("Steps() = %d, want 1000001", tl.Steps())
	}
	if retained > limit {
		t.Errorf("retained %d B, want at most %d (8 B per step plus one chunk)", retained, limit)
	}
	if total > limit*3/2 {
		t.Errorf("allocated %d B, want at most %d (1.5x the retained limit)", total, limit*3/2)
	}
	runtime.KeepAlive(tl)
}

// TestShortTimelineCopiesNothing: a 700-step timeline, about a
// fleet-storm drive's, fills chunks of firstSteps, twice that and so
// on, each sealed exactly full, so no step is copied, and it allocates
// at most what it retains plus one chunk.
func TestShortTimelineCopiesNothing(t *testing.T) {
	hdd := []float64{8, 13.5, 11.5, 0.8, 20}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	tl := NewTimeline(hdd[0])
	for i := 1; i < 700; i++ {
		tl.Set(simtime.Time(i)*simtime.Time(simtime.Microsecond), hdd[i%len(hdd)])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	total := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d steps in %d chunks: %d B retained, %d B allocated", tl.Steps(), len(tl.sealed)+1, retained, total)
	if tl.Steps() != 700 {
		t.Fatalf("Steps() = %d, want 700", tl.Steps())
	}
	for k, c := range tl.sealed {
		if want := firstSteps << k; len(c.steps) != want || cap(c.steps) != want {
			t.Errorf("chunk %d holds %d steps in a buffer of %d, want exactly %d", k, len(c.steps), cap(c.steps), want)
		}
	}
	if want := firstSteps << len(tl.sealed); cap(tl.cur.steps) != want {
		t.Errorf("current chunk's buffer holds %d steps, want %d", cap(tl.cur.steps), want)
	}
	if total > retained+8*chunkSteps {
		t.Errorf("allocated %d B, want at most the %d B retained plus one chunk (%d B)", total, retained, 8*chunkSteps)
	}
	runtime.KeepAlive(tl)
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(100, 100.4, 0.005) {
		t.Fatal("100 vs 100.4 within 0.5% should be equal")
	}
	if ApproxEqual(100, 102, 0.005) {
		t.Fatal("100 vs 102 within 0.5% should not be equal")
	}
	if !ApproxEqual(0, 0, 0.001) {
		t.Fatal("0 vs 0 should be equal")
	}
}

func TestTickerMatchesMeasure(t *testing.T) {
	engine := simtime.NewEngine()
	tl := NewTimeline(90)
	m := &Meter{Source: tl, Cycle: sec, NoiseFrac: 0.01, SupplyVolts: 220, Seed: 42}
	until := simtime.Time(10*sec + sec/2) // force a truncated final cycle
	ticker := m.Tick(engine, until)

	// Interleave unrelated events so ticks share timestamps with other
	// work, and mutate the timeline mid-run as a device model would.
	for i := 1; i <= 10; i++ {
		at := simtime.Time(simtime.Duration(i) * sec)
		engine.ScheduleEvent(at, handlerFunc(func(*simtime.Engine, simtime.EventArg) {}), simtime.EventArg{})
	}
	engine.ScheduleEvent(simtime.Time(3*sec+sec/4), handlerFunc(func(*simtime.Engine, simtime.EventArg) { tl.Set(engine.Now(), 140) }), simtime.EventArg{})
	engine.ScheduleEvent(simtime.Time(7*sec), handlerFunc(func(*simtime.Engine, simtime.EventArg) { tl.Set(engine.Now(), 60) }), simtime.EventArg{})
	engine.Run()

	got := ticker.Samples()
	want := m.Measure(0, until)
	if len(got) != len(want) {
		t.Fatalf("ticker took %d samples, Measure %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: online %+v != offline %+v", i, got[i], want[i])
		}
	}
	if engine.Now() != until {
		t.Fatalf("engine drained at %v, want last tick at %v", engine.Now(), until)
	}
}

func TestTickerStartsAtCurrentTime(t *testing.T) {
	engine := simtime.NewEngine()
	engine.ScheduleEvent(simtime.Time(2*sec), handlerFunc(func(*simtime.Engine, simtime.EventArg) {}), simtime.EventArg{})
	engine.Run() // advance clock to 2s
	tl := NewTimeline(50)
	m := &Meter{Source: tl, Cycle: sec, SupplyVolts: 220}
	ticker := m.Tick(engine, simtime.Time(4*sec))
	engine.Run()
	got := ticker.Samples()
	want := m.Measure(simtime.Time(2*sec), simtime.Time(4*sec))
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ticker from mid-run clock: got %+v, want %+v", got, want)
	}
}

func TestTickerNoHorizonNoSamples(t *testing.T) {
	engine := simtime.NewEngine()
	m := &Meter{Source: NewTimeline(50), Cycle: sec, SupplyVolts: 220}
	ticker := m.Tick(engine, engine.Now()) // horizon already reached
	if engine.Pending() != 0 {
		t.Fatalf("ticker armed %d events past its horizon", engine.Pending())
	}
	if len(ticker.Samples()) != 0 {
		t.Fatalf("got %d samples, want 0", len(ticker.Samples()))
	}
}
