package replay

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/blktrace"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// makeTrace builds a trace of n single-IO bunches spaced 1 ms apart.
func makeTrace(n int) *blktrace.Trace {
	t := &blktrace.Trace{Device: "t"}
	for i := 0; i < n; i++ {
		t.Bunches = append(t.Bunches, blktrace.Bunch{
			Time: simtime.Duration(i) * simtime.Millisecond,
			Packages: []blktrace.IOPackage{
				{Sector: int64(i) * 8, Size: 4096, Op: storage.Read},
			},
		})
	}
	return t
}

func TestSelectIndicesMatchesFig5(t *testing.T) {
	// Fig. 5: for groups of 10, 10% selects the 10th bunch; 20% the 5th
	// and 10th; 30% spreads to three uniform positions; 100% selects all.
	cases := []struct {
		p    float64
		want []int
	}{
		{0.1, []int{9}},
		{0.2, []int{4, 9}},
		{0.3, []int{2, 5, 9}},
		{0.5, []int{1, 3, 5, 7, 9}},
		{1.0, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
	}
	for _, c := range cases {
		got := selectIndices(10, c.p)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("selectIndices(10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSelectIndicesDistinctAndSorted(t *testing.T) {
	for g := 1; g <= 25; g++ {
		for k := 1; k <= g; k++ {
			p := float64(k) / float64(g)
			idx := selectIndices(g, p)
			if len(idx) != k {
				t.Fatalf("g=%d p=%v: got %d indices, want %d", g, p, len(idx), k)
			}
			for i := 1; i < len(idx); i++ {
				if idx[i] <= idx[i-1] {
					t.Fatalf("g=%d k=%d: indices not strictly increasing: %v", g, k, idx)
				}
			}
			if idx[len(idx)-1] >= g {
				t.Fatalf("g=%d k=%d: index out of range: %v", g, k, idx)
			}
		}
	}
}

func TestSelectIndicesTinyProportion(t *testing.T) {
	// A positive proportion must never select nothing from a full group.
	if got := selectIndices(10, 0.01); len(got) != 1 {
		t.Fatalf("selectIndices(10, 0.01) = %v, want one bunch", got)
	}
	if got := selectIndices(0, 0.5); got != nil {
		t.Fatalf("empty group should select nothing, got %v", got)
	}
}

func TestUniformFilterProportions(t *testing.T) {
	tr := makeTrace(1000)
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		got := UniformFilter{Proportion: p}.Apply(tr)
		want := int(math.Round(p * 1000))
		if got.NumBunches() != want {
			t.Errorf("p=%v: %d bunches, want %d", p, got.NumBunches(), want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("p=%v: invalid filtered trace: %v", p, err)
		}
	}
}

func TestUniformFilterIdentityAndEmpty(t *testing.T) {
	tr := makeTrace(57)
	full := UniformFilter{Proportion: 1}.Apply(tr)
	if !reflect.DeepEqual(full, tr) {
		t.Fatal("100% filter should be the identity")
	}
	// and must be a copy, not an alias
	full.Bunches[0].Packages[0].Sector = 12345
	if tr.Bunches[0].Packages[0].Sector == 12345 {
		t.Fatal("100% filter aliases the input")
	}
	empty := UniformFilter{Proportion: 0}.Apply(tr)
	if empty.NumBunches() != 0 {
		t.Fatal("0% filter should drop everything")
	}
}

func TestUniformFilterPreservesTimestampsAndOrder(t *testing.T) {
	tr := makeTrace(100)
	got := UniformFilter{Proportion: 0.3}.Apply(tr)
	// Every selected bunch must exist in the original with identical
	// timestamp and payload; order must be preserved.
	orig := map[simtime.Duration]blktrace.Bunch{}
	for _, b := range tr.Bunches {
		orig[b.Time] = b
	}
	var prev simtime.Duration = -1
	for _, b := range got.Bunches {
		ob, ok := orig[b.Time]
		if !ok {
			t.Fatalf("filtered bunch at %v not in original", b.Time)
		}
		if !reflect.DeepEqual(ob.Packages, b.Packages) {
			t.Fatalf("packages changed at %v", b.Time)
		}
		if b.Time <= prev {
			t.Fatal("filtered bunches out of order")
		}
		prev = b.Time
	}
}

func TestUniformFilterSpreadsSelection(t *testing.T) {
	// Selected bunches at 10% must come one per group of 10, never two
	// from the same group — that is what "uniform" means here.
	tr := makeTrace(200)
	got := UniformFilter{Proportion: 0.1}.Apply(tr)
	if got.NumBunches() != 20 {
		t.Fatalf("got %d bunches", got.NumBunches())
	}
	for i, b := range got.Bunches {
		group := int(b.Time / (10 * simtime.Millisecond))
		if group != i {
			t.Fatalf("bunch %d came from group %d", i, group)
		}
	}
}

func TestUniformFilterPartialFinalGroup(t *testing.T) {
	// 25 bunches at 20%: groups of 10,10,5 -> 2+2+1 = 5 selected.
	tr := makeTrace(25)
	got := UniformFilter{Proportion: 0.2}.Apply(tr)
	if got.NumBunches() != 5 {
		t.Fatalf("got %d bunches, want 5", got.NumBunches())
	}
}

func TestUniformFilterCustomGroupSize(t *testing.T) {
	tr := makeTrace(100)
	got := UniformFilter{Proportion: 0.5, GroupSize: 20}.Apply(tr)
	if got.NumBunches() != 50 {
		t.Fatalf("got %d bunches, want 50", got.NumBunches())
	}
}

// Property: for any proportion and trace size, the uniform filter keeps
// round(p*G) bunches per full group, output is valid, monotone in p,
// and is always a subset of the original.
func TestPropertyUniformFilter(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		n := 1 + rng.IntN(500)
		tr := makeTrace(n)
		p1 := float64(1+rng.IntN(10)) / 10
		p2 := float64(1+rng.IntN(10)) / 10
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		f1 := UniformFilter{Proportion: p1}.Apply(tr)
		f2 := UniformFilter{Proportion: p2}.Apply(tr)
		if f1.Validate() != nil || f2.Validate() != nil {
			return false
		}
		if f1.NumBunches() > f2.NumBunches() {
			return false
		}
		// Full groups contribute exactly round(p*10).
		fullGroups := n / 10
		wantMin := fullGroups * int(math.Round(p1*10))
		return f1.NumBunches() >= wantMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomFilterBernoulliSampling(t *testing.T) {
	tr := makeTrace(2000)
	r := RandomFilter{Proportion: 0.3, Seed: 7}.Apply(tr)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// Count is only right in expectation: 600 +/- ~4 sigma (~41).
	if n := r.NumBunches(); n < 520 || n > 680 {
		t.Fatalf("Bernoulli count %d far from expectation 600", n)
	}
	u := UniformFilter{Proportion: 0.3}.Apply(tr)
	if reflect.DeepEqual(u.Bunches, r.Bunches) {
		t.Fatal("random filter selected exactly the uniform positions (suspicious)")
	}
	// Determinism under the same seed.
	r2 := RandomFilter{Proportion: 0.3, Seed: 7}.Apply(tr)
	if !reflect.DeepEqual(r.Bunches, r2.Bunches) {
		t.Fatal("random filter not deterministic for fixed seed")
	}
	// Degenerate proportions.
	if (RandomFilter{Proportion: 1, Seed: 1}).Apply(tr).NumBunches() != 2000 {
		t.Fatal("p=1 should keep everything")
	}
	if (RandomFilter{Proportion: 0, Seed: 1}).Apply(tr).NumBunches() != 0 {
		t.Fatal("p=0 should drop everything")
	}
}

func TestRandomFilterDistortsBurstsMoreThanUniform(t *testing.T) {
	// Build a strongly wavy trace: alternating busy (big bunches) and
	// quiet (small bunches) groups.  The uniform filter keeps every
	// group's contribution proportional; the random filter's per-group
	// IO count varies because bunch sizes inside a group differ.
	tr := &blktrace.Trace{Device: "wave"}
	for i := 0; i < 400; i++ {
		nPkgs := 1
		if (i/10)%2 == 0 {
			nPkgs = 10 // crest groups
		}
		pkgs := make([]blktrace.IOPackage, nPkgs)
		for j := range pkgs {
			pkgs[j] = blktrace.IOPackage{Sector: int64(i*64 + j*8), Size: 4096, Op: storage.Read}
		}
		tr.Bunches = append(tr.Bunches, blktrace.Bunch{Time: simtime.Duration(i) * simtime.Millisecond, Packages: pkgs})
	}
	// Mix bunch sizes inside groups by rotating one big bunch into quiet
	// groups.
	for i := 5; i < 400; i += 20 {
		tr.Bunches[i].Packages = tr.Bunches[i].Packages[:1]
	}

	perGroupIOs := func(f Filter) []float64 {
		ft := f.Apply(tr)
		counts := make([]float64, 40)
		for _, b := range ft.Bunches {
			counts[int(b.Time/(10*simtime.Millisecond))] += float64(len(b.Packages))
		}
		return counts
	}
	origin := perGroupIOs(Identity{})
	uf := perGroupIOs(UniformFilter{Proportion: 0.2})
	deviation := func(filtered []float64) float64 {
		var dev float64
		for g := range origin {
			if origin[g] == 0 {
				continue
			}
			dev += math.Abs(filtered[g]/origin[g] - 0.2)
		}
		return dev
	}
	uDev := deviation(uf)
	var rDevSum float64
	const trials = 20
	for s := uint64(0); s < trials; s++ {
		rDevSum += deviation(perGroupIOs(RandomFilter{Proportion: 0.2, Seed: s}))
	}
	rDev := rDevSum / trials
	if uDev >= rDev {
		t.Fatalf("uniform deviation %.3f should beat random %.3f", uDev, rDev)
	}
}

func TestIntervalScaler(t *testing.T) {
	tr := makeTrace(100)
	half := IntervalScaler{Intensity: 2}.Apply(tr)
	if half.Duration() != tr.Duration()/2 {
		t.Fatalf("2x intensity duration = %v, want %v", half.Duration(), tr.Duration()/2)
	}
	if half.NumIOs() != tr.NumIOs() {
		t.Fatal("scaler dropped IOs")
	}
	slow := IntervalScaler{Intensity: 0.1}.Apply(tr)
	if slow.Duration() != tr.Duration()*10 {
		t.Fatalf("0.1x intensity duration = %v", slow.Duration())
	}
	if err := slow.Validate(); err != nil {
		t.Fatal(err)
	}
	if (IntervalScaler{}).Apply(tr).NumBunches() != 0 {
		t.Fatal("non-positive intensity should empty the trace")
	}
}

func TestFilterNames(t *testing.T) {
	if (UniformFilter{Proportion: 0.3}).Name() != "uniform-30%" {
		t.Fatal("uniform name")
	}
	if (RandomFilter{Proportion: 0.7}).Name() != "random-70%" {
		t.Fatal("random name")
	}
	if (IntervalScaler{Intensity: 10}).Name() != "scale-1000%" {
		t.Fatal("scaler name")
	}
	if (Identity{}).Name() != "identity" {
		t.Fatal("identity name")
	}
}
