package fleet

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simtime"
)

// popTails reads the tails of one population through responseTails.
func popTails(rs []simtime.Duration) Tails {
	all, _ := responseTails(rs, nil, 0)
	return all.tails()
}

// sortTails is the reference: tails read off a sorted copy, with the
// same wrapping sum for the mean.
func sortTails(rs []simtime.Duration) Tails {
	s := slices.Clone(rs)
	slices.Sort(s)
	var sum simtime.Duration
	for _, r := range s {
		sum += r
	}
	at := func(q float64) simtime.Duration { return s[metrics.NearestRankIndex(q, len(s))] }
	return Tails{Mean: sum / simtime.Duration(len(s)), Max: s[len(s)-1], P50: at(0.50), P99: at(0.99), P999: at(0.999)}
}

// TestTailBucketIsMonotone: the bucket map never decreases and stays in
// range, across every power-of-two edge, so each bucket holds one range
// of values.
func TestTailBucketIsMonotone(t *testing.T) {
	vals := []simtime.Duration{math.MinInt64, -1, 0, 1}
	for s := 0; s < 63; s++ {
		p := simtime.Duration(1) << s
		vals = append(vals, p-1, p, p+1)
	}
	vals = append(vals, math.MaxInt64-1, math.MaxInt64)
	slices.Sort(vals)
	prev := -1
	for _, v := range vals {
		b := tailBucket(v)
		if b < prev || b < 0 || b >= tailBuckets {
			t.Fatalf("tailBucket(%d) = %d after %d (of %d buckets)", v, b, prev, tailBuckets)
		}
		prev = b
	}
	if got := tailBucket(math.MaxInt64); got != tailBuckets-1 {
		t.Fatalf("tailBucket(MaxInt64) = %d, want the last bucket %d", got, tailBuckets-1)
	}
}

// TestResponseTailsMatchSort: the one-pass tails of the whole run and
// of every class equal a sort's on random populations, many
// duplicates, a single class, only unmatched responses, one response,
// zeros and values near MaxInt64, negative values and empty classes.
func TestResponseTailsMatchSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	logUniform := func(n int) []simtime.Duration {
		rs := make([]simtime.Duration, n)
		for i := range rs {
			rs[i] = simtime.Duration(math.Exp(rng.Float64() * math.Log(float64(10*simtime.Second))))
		}
		return rs
	}
	classesOf := func(n, classes int, pick func(i int) int32) []int32 {
		cs := make([]int32, n, n+1) // never nil, even when empty
		for i := range cs {
			cs[i] = pick(i)
		}
		return cs
	}
	dups := make([]simtime.Duration, 5000)
	for i := range dups {
		dups[i] = []simtime.Duration{0, 5 * simtime.Millisecond, 5 * simtime.Millisecond, 7 * simtime.Millisecond, simtime.Second}[rng.IntN(5)]
	}
	extremes := []simtime.Duration{0, math.MaxInt64, math.MaxInt64 - 1, 1, 0, math.MaxInt64 - 63, 2, math.MaxInt64}
	negative := []simtime.Duration{-5, 3, -1, 0, 9, -5, 4}
	cases := []struct {
		name    string
		rs      []simtime.Duration
		classes int
		class   []int32
	}{
		{name: "random, three classes and unmatched", rs: logUniform(20000), classes: 3},
		{name: "many duplicates", rs: dups, classes: 3},
		{name: "one class of three", rs: logUniform(3000), classes: 3, class: classesOf(3000, 3, func(int) int32 { return 1 })},
		{name: "all unmatched", rs: logUniform(2000), classes: 2, class: classesOf(2000, 2, func(int) int32 { return -1 })},
		{name: "one response", rs: []simtime.Duration{7 * simtime.Millisecond}, classes: 2},
		{name: "zeros and near MaxInt64", rs: extremes, classes: 1},
		{name: "negative values", rs: negative, classes: 2},
		{name: "no responses", rs: nil, classes: 3},
		{name: "no classes", rs: logUniform(1000)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			class := c.class
			if class == nil && c.rs != nil && c.classes > 0 {
				// Each class and unmatched (-1) in turn at random.
				class = classesOf(len(c.rs), c.classes, func(int) int32 { return int32(rng.IntN(c.classes+1)) - 1 })
			}
			all, groups := responseTails(c.rs, class, c.classes)
			if all.n != len(c.rs) {
				t.Fatalf("counted %d responses of %d", all.n, len(c.rs))
			}
			if len(c.rs) > 0 {
				if got, want := all.tails(), sortTails(c.rs); got != want {
					t.Fatalf("overall tails %+v, sort gives %+v", got, want)
				}
			}
			if c.classes == 0 {
				if groups != nil {
					t.Fatalf("%d class groups without classes", len(groups))
				}
				return
			}
			for g := range groups {
				var members []simtime.Duration
				for i, r := range c.rs {
					if k := int(class[i]); k == g || k < 0 && g == c.classes {
						members = append(members, r)
					}
				}
				cr := groups[g].classResult(fmt.Sprint(g))
				if int(cr.Completed) != len(members) {
					t.Fatalf("group %d counted %d, holds %d", g, cr.Completed, len(members))
				}
				want := ClassResult{Class: fmt.Sprint(g), Completed: int64(len(members))}
				if len(members) > 0 {
					s := sortTails(members)
					want.MeanResponse, want.MaxResponse = s.Mean, s.Max
					want.P50Response, want.P99Response, want.P999Response = s.P50, s.P99, s.P999
				}
				if cr != want {
					t.Fatalf("group %d: %+v, sort gives %+v", g, cr, want)
				}
			}
		})
	}
}
