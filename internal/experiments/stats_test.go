package experiments

// Order statistics, correlation and curve-shape predicates that the
// shape tests in this package assert the paper's trends with, and the
// unit tests that pin them.

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// Summary holds order statistics of a sample set.
type Summary struct {
	N                   int
	Mean, Std, Min, Max float64
	Median              float64
}

// Summarize computes summary statistics; it returns the zero Summary
// for an empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Pearson computes the linear correlation coefficient of two equal-
// length series; the paper's headline observation is that efficiency is
// linearly proportional to load, which the shape tests assert via r ≈ 1.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("metrics: need >= 2 points, got %d", len(xs))
	}
	mx := Summarize(xs).Mean
	my := Summarize(ys).Mean
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("metrics: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// UShaped reports whether the series dips in the middle relative to its
// endpoints by at least frac (relative), the shape Fig. 11 shows for
// read-ratio sweeps at low random ratios.
func UShaped(xs []float64, frac float64) bool {
	if len(xs) < 3 {
		return false
	}
	ends := math.Min(xs[0], xs[len(xs)-1])
	mid := xs[0]
	for _, x := range xs[1 : len(xs)-1] {
		if x < mid {
			mid = x
		}
	}
	return mid < ends*(1-frac)
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
