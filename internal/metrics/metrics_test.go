package metrics

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"
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

func TestNearestRank(t *testing.T) {
	sorted := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	qs := []float64{0, 0.01, 0.5, 0.94, 0.95, 1.0}
	want := []int64{1, 1, 5, 9, 10, 10}
	got := make([]int64, len(qs))
	NearestRank(sorted, qs, got, cmp.Compare[int64])
	if !slices.Equal(got, want) {
		t.Errorf("NearestRank(1..10, %v) = %v, want %v", qs, got, want)
	}
	for i, q := range qs {
		var one [1]int64
		NearestRank(sorted, []float64{q}, one[:], cmp.Compare[int64])
		if one[0] != want[i] {
			t.Errorf("NearestRank(1..10, %v) = %v, want %v", q, one[0], want[i])
		}
	}
	empty := []int64{-1, -1}
	NearestRank([]int64(nil), []float64{0.5, 0.99}, empty, cmp.Compare[int64])
	if empty[0] != 0 || empty[1] != 0 {
		t.Fatalf("empty sample = %v, want zeros", empty)
	}

	// Differential: selection returns what a full sort puts at each
	// nearest rank, for every shape and size, whether the quantiles
	// come in one call or one per call on a fresh copy, and when one
	// slice is selected from repeatedly and so arrives partially
	// reordered.
	rng := rand.New(rand.NewPCG(5, 5))
	shapes := map[string]func(n int) []int64{
		"random": func(n int) []int64 {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = rng.Int64()
			}
			return xs
		},
		"duplicates": func(n int) []int64 {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = rng.Int64N(int64(n/10 + 1))
			}
			return xs
		},
		"sorted": func(n int) []int64 {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(i)
			}
			return xs
		},
		"reversed": func(n int) []int64 {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(n - i)
			}
			return xs
		},
		"equal": func(n int) []int64 { return make([]int64, n) },
		"organ-pipe": func(n int) []int64 {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(min(i, n-1-i))
			}
			return xs
		},
	}
	ref := func(sorted []int64, q float64) int64 {
		if len(sorted) == 0 {
			return 0
		}
		return sorted[max(0, min(int(q*float64(len(sorted))+0.5)-1, len(sorted)-1))]
	}
	tails := []float64{0, 0.5, 0.95, 0.99, 0.999, 1}
	for name, shape := range shapes {
		for _, n := range []int{0, 1, 2, 13, 1000, 100_000} {
			orig := shape(n)
			want := slices.Clone(orig)
			slices.Sort(want)
			// Random ascending quantiles, repeats and both ends included.
			random := []float64{0, 1}
			for range 6 {
				random = append(random, rng.Float64())
			}
			random = append(random, random[2], random[3])
			slices.Sort(random)
			xs := slices.Clone(orig)
			for _, qs := range [][]float64{tails, random, tails} {
				got := make([]int64, len(qs))
				NearestRank(xs, qs, got, cmp.Compare[int64])
				for i, q := range qs {
					if wantQ := ref(want, q); got[i] != wantQ {
						t.Errorf("%s n=%d q=%v among %v: NearestRank = %d, sort gives %d", name, n, q, qs, got[i], wantQ)
					}
				}
			}
			for _, q := range tails {
				var one [1]int64
				NearestRank(slices.Clone(orig), []float64{q}, one[:], cmp.Compare[int64])
				if wantQ := ref(want, q); one[0] != wantQ {
					t.Errorf("%s n=%d q=%v on a fresh copy: NearestRank = %d, sort gives %d", name, n, q, one[0], wantQ)
				}
			}
			slices.Sort(xs)
			if !slices.Equal(xs, want) {
				t.Errorf("%s n=%d: NearestRank did not permute its input", name, n)
			}
		}
	}

	// Descending quantiles would select below a rank already placed.
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "metrics: quantile 0.5 follows 0.99") {
			t.Fatalf("recovered %v, want the descending-quantile panic", r)
		}
	}()
	NearestRank([]int64{3, 1, 2}, []float64{0.99, 0.5}, make([]int64, 2), cmp.Compare[int64])
}

// TestNearestRankAllocatesNothing: reading a population's tails takes
// no allocation beyond the caller's result array.
func TestNearestRankAllocatesNothing(t *testing.T) {
	xs := make([]int64, 4096)
	rng := rand.New(rand.NewPCG(9, 9))
	qs := []float64{0.5, 0.99, 0.999}
	var got [3]int64
	allocs := testing.AllocsPerRun(20, func() {
		for i := range xs {
			xs[i] = rng.Int64N(1000)
		}
		NearestRank(xs, qs, got[:], cmp.Compare[int64])
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per call, want 0", allocs)
	}
}

// TestNearestRankWorstCase feeds the selection an input built against
// it: McIlroy's adversary ("A Killer Adversary for Quicksort", 1999)
// decides comparisons lazily so every median-of-three pivot lands near
// the bottom of the open range, which makes plain quickselect
// quadratic.  Replayed as fixed values, the input must cost more than
// n·⌈log₂ n⌉ comparisons, showing it defeats the pivots, yet stay
// within 4·n·⌈log₂ n⌉, which only the fallback to sorting guarantees.
func TestNearestRankWorstCase(t *testing.T) {
	const n = 20_000
	logN := bits.Len(uint(n - 1))
	// Build the input: items start as "gas", above every solid value;
	// a gas-gas comparison freezes one side to the next solid value,
	// preferring the item last seen against a solid one (the likely
	// pivot).
	gas := int64(n)
	val := make([]int64, n)
	for i := range val {
		val[i] = gas
	}
	solid, candidate := int64(0), -1
	adversary := func(x, y int) int {
		if val[x] == gas && val[y] == gas {
			if x == candidate {
				val[x], solid = solid, solid+1
			} else {
				val[y], solid = solid, solid+1
			}
		}
		if val[x] == gas {
			candidate = x
		} else if val[y] == gas {
			candidate = y
		}
		return cmp.Compare(val[x], val[y])
	}
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	var median [1]int
	NearestRank(items, []float64{0.5}, median[:], adversary)

	xs := slices.Clone(val)
	want := slices.Clone(val)
	slices.Sort(want)
	comparisons := 0
	var got [1]int64
	NearestRank(xs, []float64{0.5}, got[:], func(a, b int64) int {
		comparisons++
		return cmp.Compare(a, b)
	})
	if wantQ := want[n/2-1]; got[0] != wantQ {
		t.Fatalf("NearestRank = %d, sort gives %d", got[0], wantQ)
	}
	if comparisons <= n*logN {
		t.Fatalf("%d comparisons: the input does not defeat median-of-three pivots", comparisons)
	}
	t.Logf("%d comparisons, n log n = %d", comparisons, n*logN)
	if limit := 4 * n * logN; comparisons > limit {
		t.Fatalf("%d comparisons on the adversarial input, want at most %d", comparisons, limit)
	}
}
