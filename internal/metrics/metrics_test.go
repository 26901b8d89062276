package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEfficiencyMetrics(t *testing.T) {
	if got := IOPSPerWatt(500, 100); got != 5 {
		t.Fatalf("IOPSPerWatt = %v", got)
	}
	if got := MBPSPerKilowatt(50, 100); got != 500 {
		t.Fatalf("MBPSPerKilowatt = %v", got)
	}
	if IOPSPerWatt(100, 0) != 0 || MBPSPerKilowatt(100, -5) != 0 {
		t.Fatal("non-positive power should yield 0, not Inf")
	}
}

func TestLoadProportionAndAccuracy(t *testing.T) {
	lp := LoadProportion(1000, 195)
	if math.Abs(lp-0.195) > 1e-12 {
		t.Fatalf("LP = %v", lp)
	}
	a := Accuracy(lp, 0.2)
	if math.Abs(a-0.975) > 1e-12 {
		t.Fatalf("A = %v", a)
	}
	if math.Abs(ErrorRate(a)-0.025) > 1e-12 {
		t.Fatalf("ErrorRate = %v", ErrorRate(a))
	}
	if LoadProportion(0, 5) != 0 || Accuracy(0.5, 0) != 0 {
		t.Fatal("degenerate denominators should yield 0")
	}
}

func TestNewEfficiency(t *testing.T) {
	e := NewEfficiency(1000, 40, 80, 4800)
	if e.IOPSPerWatt != 12.5 {
		t.Fatalf("IOPSPerWatt = %v", e.IOPSPerWatt)
	}
	if e.MBPSPerKW != 500 {
		t.Fatalf("MBPSPerKW = %v", e.MBPSPerKW)
	}
	if e.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Std = %v", s.Std)
	}
	even := Summarize([]float64{4, 1, 3, 2})
	if even.Median != 2.5 {
		t.Fatalf("even median = %v", even.Median)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
	one := Summarize([]float64{7})
	if one.Std != 0 || one.Median != 7 {
		t.Fatalf("singleton summary = %+v", one)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect line r = %v (%v)", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil || math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anti-line r = %v (%v)", r, err)
	}
	if _, err := Pearson(xs, ys[:3]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := Pearson([]float64{3, 3, 3}, ys[:3]); err == nil {
		t.Fatal("zero variance accepted")
	}
}

func TestMonotone(t *testing.T) {
	up := []float64{1, 2, 3, 3.01, 4}
	if !Monotone(up, +1, 0.01) {
		t.Fatal("increasing series rejected")
	}
	if Monotone(up, -1, 0.01) {
		t.Fatal("increasing series accepted as decreasing")
	}
	noisy := []float64{10, 9.99, 10.5, 11}
	if !Monotone(noisy, +1, 0.01) {
		t.Fatal("tolerance not applied")
	}
	if Monotone([]float64{1, 5, 2}, +1, 0.01) {
		t.Fatal("non-monotone accepted")
	}
}

func TestUShaped(t *testing.T) {
	if !UShaped([]float64{10, 6, 5, 6.5, 9.5}, 0.2) {
		t.Fatal("clear U rejected")
	}
	if UShaped([]float64{5, 5.1, 5.2, 5.1, 5}, 0.2) {
		t.Fatal("flat series accepted as U")
	}
	if UShaped([]float64{1, 2}, 0.1) {
		t.Fatal("too-short series accepted")
	}
}

// Property: Accuracy(LP(a, a*p), p) == 1 for any positive throughput
// and proportion — the identities compose.
func TestPropertyAccuracyIdentity(t *testing.T) {
	f := func(tRaw, pRaw uint16) bool {
		total := float64(tRaw%10000) + 1
		p := (float64(pRaw%100) + 1) / 100
		lp := LoadProportion(total, total*p)
		return math.Abs(Accuracy(lp, p)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize bounds: Min <= Median <= Max and Min <= Mean <= Max.
func TestPropertySummaryBounds(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			// Bound magnitudes so the sum cannot overflow to +/-Inf.
			if !math.IsNaN(x) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Median && s.Median <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNearestRank(t *testing.T) {
	sorted := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 5}, {1.0, 10}, {0.01, 1}, {0.95, 10}, {0.94, 9}, {0, 1}} {
		if got := NearestRank(sorted, c.q); got != c.want {
			t.Errorf("NearestRank(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := NearestRank([]int64(nil), 0.5); got != 0 {
		t.Fatalf("empty sample = %v, want 0", got)
	}
}
