package powersim

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

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

func TestTimelineAdd(t *testing.T) {
	tl := NewTimeline(8)
	tl.Add(simtime.Time(sec), 3.5)
	tl.Add(simtime.Time(2*sec), -3.5)
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

func TestAnalyzerChannels(t *testing.T) {
	a := NewAnalyzer()
	a.AddChannel("hdd-array", &Meter{Source: NewTimeline(90), Cycle: sec, SupplyVolts: 220})
	a.AddChannel("ssd-array", &Meter{Source: NewTimeline(195.8), Cycle: sec, SupplyVolts: 220})
	if got := a.Channels(); len(got) != 2 || got[0] != "hdd-array" || got[1] != "ssd-array" {
		t.Fatalf("Channels = %v", got)
	}
	all := a.MeasureAll(0, simtime.Time(5*sec))
	if len(all["hdd-array"]) != 5 || len(all["ssd-array"]) != 5 {
		t.Fatalf("MeasureAll lengths wrong: %d/%d", len(all["hdd-array"]), len(all["ssd-array"]))
	}
	if got := MeanWatts(all["ssd-array"]); math.Abs(got-195.8) > 1e-9 {
		t.Fatalf("ssd channel mean = %v, want 195.8", got)
	}
	if a.Channel("nope") != nil {
		t.Fatal("unknown channel should be nil")
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

// refEnergyJ, refSegments and refAt scan a timeline from step 0, the
// way EnergyJ, Segments and At did before they started at the step in
// force at t0.  TestTimelineIntegralsMatchFullScan holds the real
// methods to them bit for bit.
func refEnergyJ(tl *Timeline, t0, t1 simtime.Time) float64 {
	var joules float64
	for _, s := range refSegments(tl, t0, t1) {
		joules += s.Watts * s.End.Sub(s.Start).Seconds()
	}
	return joules
}

func refSegments(tl *Timeline, t0, t1 simtime.Time) []Segment {
	if t1 <= t0 {
		return nil
	}
	var segs []Segment
	for i, s := range tl.steps {
		lo, hi := max(s.at, t0), t1
		if i+1 < len(tl.steps) {
			hi = min(tl.steps[i+1].at, t1)
		}
		if hi > lo {
			segs = append(segs, Segment{Start: lo, End: hi, Watts: s.w})
		}
	}
	return segs
}

func refAt(tl *Timeline, t simtime.Time) float64 {
	if len(tl.steps) == 0 {
		return 0
	}
	w := tl.steps[0].w
	for _, s := range tl.steps {
		if s.at <= t {
			w = s.w
		}
	}
	return w
}

func refMeanWatts(tl *Timeline, t0, t1 simtime.Time) float64 {
	if t1 <= t0 {
		return refAt(tl, t0)
	}
	return refEnergyJ(tl, t0, t1) / t1.Sub(t0).Seconds()
}

// Differential: on seeded random timelines, the integrals that start at
// the step in force at t0 equal a scan from step 0 exactly.  Draws come
// from a small set, so Set often compacts a repeated value away, and
// some timelines start after time zero, so windows can open before the
// first step as well as on a step, between steps and after the last.
func TestTimelineIntegralsMatchFullScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 99))
	levels := []float64{0, 4.5, 7.25, 11.8}
	for trial := 0; trial < 300; trial++ {
		var tl *Timeline
		tcur := simtime.Time(0)
		if trial%2 == 0 {
			tl = NewTimeline(levels[rng.IntN(len(levels))])
		} else {
			tl = &Timeline{}
			tcur = simtime.Time(rng.Int64N(int64(3 * sec)))
		}
		for i, n := 0, rng.IntN(40); i < n; i++ {
			tl.Set(tcur, levels[rng.IntN(len(levels))])
			tcur = tcur.Add(simtime.Duration(rng.Int64N(int64(sec)))) // zero gaps overwrite
		}
		pick := func() simtime.Time {
			if len(tl.steps) == 0 {
				return simtime.Time(rng.Int64N(int64(10 * sec)))
			}
			first, last := tl.steps[0].at, tl.steps[len(tl.steps)-1].at
			j := rng.IntN(len(tl.steps))
			switch rng.IntN(4) {
			case 0: // before the first step
				return first - simtime.Time(1+rng.Int64N(int64(sec)))
			case 1: // exactly on a step
				return tl.steps[j].at
			case 2: // between steps
				return tl.steps[j].at + simtime.Time(rng.Int64N(int64(sec/2)))
			default: // after the last step
				return last + simtime.Time(1+rng.Int64N(int64(sec)))
			}
		}
		for w := 0; w < 40; w++ {
			t0, t1 := pick(), pick() // t1 <= t0 makes an empty window
			if got, want := tl.EnergyJ(t0, t1), refEnergyJ(tl, t0, t1); got != want {
				t.Fatalf("trial %d: EnergyJ(%v, %v) = %v, full scan %v", trial, t0, t1, got, want)
			}
			if got, want := tl.MeanWatts(t0, t1), refMeanWatts(tl, t0, t1); got != want {
				t.Fatalf("trial %d: MeanWatts(%v, %v) = %v, full scan %v", trial, t0, t1, got, want)
			}
			if got, want := tl.Segments(t0, t1), refSegments(tl, t0, t1); !slices.Equal(got, want) {
				t.Fatalf("trial %d: Segments(%v, %v) = %v, full scan %v", trial, t0, t1, got, want)
			}
		}
	}
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
		engine.Schedule(at, func() {})
	}
	engine.Schedule(simtime.Time(3*sec+sec/4), func() { tl.Set(engine.Now(), 140) })
	engine.Schedule(simtime.Time(7*sec), func() { tl.Set(engine.Now(), 60) })
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
	engine.Schedule(simtime.Time(2*sec), func() {})
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
