package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
)

const (
	// maxSupport bounds the exact-histogram representation; sample sets
	// with more distinct values fall back to a quantile table.
	maxSupport = 512
	// quantilePoints is the resolution of the quantile-table fallback.
	quantilePoints = 65
)

// Distribution is a serializable empirical distribution over int64
// values with two representations:
//
//   - an exact value histogram (Values/Counts) when the support is
//     small — the common case for request sizes, bunch sizes and run
//     lengths, where preserving the exact value set matters;
//   - an evenly spaced quantile table otherwise — interarrival gaps and
//     seek distances, where the support is essentially continuous and
//     inverse-CDF interpolation is the right sampler.
//
// Exactly one representation is populated.
type Distribution struct {
	// Values are the sorted distinct sample values; Counts are their
	// multiplicities (same length).
	Values []int64 `json:"values,omitempty"`
	Counts []int64 `json:"counts,omitempty"`
	// Quantiles holds the sample value at quantile i/(len-1).
	Quantiles []int64 `json:"quantiles,omitempty"`
}

// NewDistribution fits a distribution to the sample set.  An empty
// sample set yields the empty distribution.
func NewDistribution(samples []int64) Distribution {
	if len(samples) == 0 {
		return Distribution{}
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	distinct := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	if distinct <= maxSupport {
		d := Distribution{Values: make([]int64, 0, distinct), Counts: make([]int64, 0, distinct)}
		for _, v := range sorted {
			if n := len(d.Values); n > 0 && d.Values[n-1] == v {
				d.Counts[n-1]++
			} else {
				d.Values = append(d.Values, v)
				d.Counts = append(d.Counts, 1)
			}
		}
		return d
	}
	q := make([]int64, quantilePoints)
	for i := range q {
		// Nearest-rank index at quantile i/(quantilePoints-1).
		idx := i * (len(sorted) - 1) / (quantilePoints - 1)
		q[i] = sorted[idx]
	}
	return Distribution{Quantiles: q}
}

// Empty reports whether the distribution holds no samples.
func (d Distribution) Empty() bool {
	return len(d.Values) == 0 && len(d.Quantiles) == 0
}

// Validate checks structural consistency, including that the
// histogram counts sum within int64: Sample draws below their total.
func (d Distribution) Validate() error {
	if len(d.Values) != len(d.Counts) {
		return fmt.Errorf("%d values but %d counts", len(d.Values), len(d.Counts))
	}
	if len(d.Values) > 0 && len(d.Quantiles) > 0 {
		return fmt.Errorf("distribution has both histogram and quantile forms")
	}
	var total int64
	for i, c := range d.Counts {
		if c <= 0 {
			return fmt.Errorf("non-positive count %d for value %d", c, d.Values[i])
		}
		if i > 0 && d.Values[i] <= d.Values[i-1] {
			return fmt.Errorf("histogram values not strictly increasing at %d", i)
		}
		if c > math.MaxInt64-total {
			return fmt.Errorf("histogram counts overflow int64 at value %d", d.Values[i])
		}
		total += c
	}
	for i := 1; i < len(d.Quantiles); i++ {
		if d.Quantiles[i] < d.Quantiles[i-1] {
			return fmt.Errorf("quantile table not monotone at %d", i)
		}
	}
	return nil
}

// total sums histogram counts.
func (d Distribution) total() int64 {
	var t int64
	for _, c := range d.Counts {
		t += c
	}
	return t
}

// Sample draws one value by inverse-CDF sampling.
func (d Distribution) Sample(rng *rand.Rand) int64 {
	if len(d.Values) > 0 {
		r := rng.Int64N(d.total())
		for i, c := range d.Counts {
			if r < c {
				return d.Values[i]
			}
			r -= c
		}
		return d.Values[len(d.Values)-1] // unreachable
	}
	if len(d.Quantiles) == 0 {
		return 0
	}
	if len(d.Quantiles) == 1 {
		return d.Quantiles[0]
	}
	pos := rng.Float64() * float64(len(d.Quantiles)-1)
	i := int(pos)
	if i >= len(d.Quantiles)-1 {
		i = len(d.Quantiles) - 2
	}
	frac := pos - float64(i)
	lo, hi := d.Quantiles[i], d.Quantiles[i+1]
	return lo + int64(frac*float64(hi-lo))
}

// Draw produces n samples.  For histogram distributions it uses
// largest-remainder quota allocation followed by a seeded shuffle, so
// the drawn multiset tracks the source proportions to within one count
// per distinct value — the property that keeps synthetic totals (IO
// counts, bytes) tightly faithful even for short traces.  Quantile
// distributions sample i.i.d.
func (d Distribution) Draw(n int, rng *rand.Rand) []int64 {
	if n <= 0 || d.Empty() {
		return nil
	}
	out := make([]int64, 0, n)
	if len(d.Values) > 0 {
		total := float64(d.total())
		type slot struct {
			idx  int
			frac float64
		}
		rem := n
		slots := make([]slot, len(d.Values))
		for i, c := range d.Counts {
			exact := float64(n) * float64(c) / total
			base := int(exact)
			slots[i] = slot{idx: i, frac: exact - float64(base)}
			for j := 0; j < base; j++ {
				out = append(out, d.Values[i])
			}
			rem -= base
		}
		sort.Slice(slots, func(a, b int) bool {
			if slots[a].frac != slots[b].frac {
				return slots[a].frac > slots[b].frac
			}
			return slots[a].idx < slots[b].idx
		})
		for i := 0; i < rem; i++ {
			out = append(out, d.Values[slots[i%len(slots)].idx])
		}
		for i := len(out) - 1; i > 0; i-- {
			j := rng.IntN(i + 1)
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	for i := 0; i < n; i++ {
		out = append(out, d.Sample(rng))
	}
	return out
}
