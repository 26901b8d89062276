package thermal

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/powersim"
	"repro/internal/simtime"
)

const sec = simtime.Second

func TestValidate(t *testing.T) {
	if err := HDDModel().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Model{RthCPerW: 0, Tau: sec}).Validate(); err == nil {
		t.Fatal("zero Rth accepted")
	}
	if err := (Model{RthCPerW: 1, Tau: 0}).Validate(); err == nil {
		t.Fatal("zero tau accepted")
	}
}

func TestSteadyState(t *testing.T) {
	m := Model{AmbientC: 25, RthCPerW: 2.2, Tau: simtime.Minute}
	if got := m.SteadyStateC(8); math.Abs(got-42.6) > 1e-9 {
		t.Fatalf("SteadyStateC(8) = %v", got)
	}
	if got := m.SteadyStateC(0); got != 25 {
		t.Fatalf("zero power steady state = %v", got)
	}
}

func TestConstantPowerConvergesToSteadyState(t *testing.T) {
	m := Model{AmbientC: 25, RthCPerW: 2, Tau: 10 * sec}
	tl := powersim.NewTimeline(10) // steady state 45 C
	// After 10 time constants the temperature is within a hair of T_ss.
	got, err := m.At(tl, simtime.Time(100*sec))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-45) > 0.01 {
		t.Fatalf("T(100s) = %v, want ~45", got)
	}
	// One time constant reaches 63.2% of the rise.
	mid, err := m.At(tl, simtime.Time(10*sec))
	if err != nil {
		t.Fatal(err)
	}
	want := 25 + 20*(1-math.Exp(-1))
	if math.Abs(mid-want) > 1e-6 {
		t.Fatalf("T(tau) = %v, want %v", mid, want)
	}
}

// TestStepPowerRisesAndFalls: a power step up heats the device
// monotonically toward the new steady state without passing it, and a
// step down cools it monotonically back.
func TestStepPowerRisesAndFalls(t *testing.T) {
	m := Model{AmbientC: 25, RthCPerW: 2, Tau: 5 * sec}
	tl := powersim.NewTimeline(5)    // 35 C steady
	tl.Set(simtime.Time(60*sec), 15) // jump to 55 C steady
	tl.Set(simtime.Time(120*sec), 5) // back down
	at := func(d simtime.Duration) float64 {
		t.Helper()
		v, err := m.At(tl, simtime.Time(d))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := at(59 * sec); math.Abs(v-35) > 0.1 {
		t.Fatalf("pre-step temp %v, want ~35", v)
	}
	if v := at(119 * sec); math.Abs(v-55) > 0.1 {
		t.Fatalf("hot steady temp %v, want ~55", v)
	}
	if v := at(239 * sec); math.Abs(v-35) > 0.1 {
		t.Fatalf("cooled temp %v, want ~35", v)
	}
	prev := at(60 * sec)
	for d := 61 * sec; d <= 120*sec; d += sec {
		cur := at(d)
		if cur < prev-1e-9 || cur > 55+1e-9 {
			t.Fatalf("heating at %v: %v after %v", d, cur, prev)
		}
		prev = cur
	}
	for d := 121 * sec; d <= 240*sec; d += sec {
		cur := at(d)
		if cur > prev+1e-9 || cur < 35-1e-9 {
			t.Fatalf("cooling at %v: %v after %v", d, cur, prev)
		}
		prev = cur
	}
}

func TestInitialTemperature(t *testing.T) {
	m := Model{AmbientC: 25, RthCPerW: 2, Tau: 10 * sec, InitialC: 60}
	tl := powersim.NewTimeline(0) // steady state = ambient
	got, err := m.At(tl, simtime.Time(100*sec))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-25) > 0.01 {
		t.Fatalf("hot start should cool to ambient, got %v", got)
	}
	early, err := m.At(tl, simtime.Time(sec))
	if err != nil {
		t.Fatal(err)
	}
	if early < 25 || early > 60 {
		t.Fatalf("cooling trajectory out of range: %v", early)
	}
}

// Property: temperature always lies between ambient (or the initial
// value) and the steady state of the maximum power ever applied.
func TestPropertyTemperatureBounded(t *testing.T) {
	f := func(powers []uint8, tSecRaw uint8) bool {
		m := Model{AmbientC: 25, RthCPerW: 2, Tau: 5 * sec}
		tl := powersim.NewTimeline(float64(len(powers)%10) + 1)
		maxP := tl.At(0)
		cursor := simtime.Time(0)
		for _, p := range powers {
			cursor = cursor.Add(simtime.Duration(1+int64(p%50)) * sec)
			w := float64(p%20) + 1
			tl.Set(cursor, w)
			if w > maxP {
				maxP = w
			}
		}
		at := simtime.Time(1+int64(tSecRaw)) * simtime.Time(sec)
		got, err := m.At(tl, at)
		if err != nil {
			return false
		}
		return got >= m.AmbientC-1e-9 && got <= m.SteadyStateC(maxP)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
