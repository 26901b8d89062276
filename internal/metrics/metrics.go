// Package metrics implements TRACER's evaluation metrics (paper Section
// V-B): throughput (IOPS, MBPS), the combined energy-efficiency metrics
// IOPS/Watt and MBPS/Kilowatt, and the load-control quality measures
// LP(f,f') and A(f,f') used to validate the filter algorithm (Section
// VI-B, Tables IV and V).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// IOPSPerWatt is the paper's first energy-efficiency metric: I/O
// operations completed per second per watt of array power.
func IOPSPerWatt(iops, watts float64) float64 {
	if watts <= 0 {
		return 0
	}
	return iops / watts
}

// MBPSPerKilowatt is the paper's second metric: megabytes per second of
// throughput per kilowatt of array power.
func MBPSPerKilowatt(mbps, watts float64) float64 {
	if watts <= 0 {
		return 0
	}
	return mbps / (watts / 1000)
}

// LoadProportion implements LP(f, f') = T(f') / T(f): the measured
// throughput of the manipulated trace relative to the original, both in
// the same unit (IOPS or MBPS).
func LoadProportion(original, manipulated float64) float64 {
	if original <= 0 {
		return 0
	}
	return manipulated / original
}

// Accuracy implements A(f, f') = LP(f, f') / LP_config: how closely the
// measured load proportion tracks the configured one.  1.0 is perfect.
func Accuracy(measuredLP, configuredLP float64) float64 {
	if configuredLP <= 0 {
		return 0
	}
	return measuredLP / configuredLP
}

// ErrorRate is |A - 1|: the relative error of the load control, the
// quantity the paper bounds (<0.5% for fixed-size traces, ~7% max for
// the web trace, larger for cello99).
func ErrorRate(accuracy float64) float64 {
	return math.Abs(accuracy - 1)
}

// Efficiency bundles one measurement row: throughput, power, and the
// derived efficiency metrics.
type Efficiency struct {
	// IOPS and MBPS are measured throughput.
	IOPS, MBPS float64
	// MeanWatts is the measured mean wall power.
	MeanWatts float64
	// EnergyJ is total energy over the measurement window.
	EnergyJ float64
	// IOPSPerWatt and MBPSPerKW are the combined metrics.
	IOPSPerWatt, MBPSPerKW float64
}

// NewEfficiency derives the combined metrics from raw measurements.
func NewEfficiency(iops, mbps, meanWatts, energyJ float64) Efficiency {
	return Efficiency{
		IOPS:        iops,
		MBPS:        mbps,
		MeanWatts:   meanWatts,
		EnergyJ:     energyJ,
		IOPSPerWatt: IOPSPerWatt(iops, meanWatts),
		MBPSPerKW:   MBPSPerKilowatt(mbps, meanWatts),
	}
}

// String renders the row the way the bench harness prints tables.
func (e Efficiency) String() string {
	return fmt.Sprintf("%.1f IOPS  %.2f MBPS  %.1f W  %.3f IOPS/W  %.1f MBPS/kW",
		e.IOPS, e.MBPS, e.MeanWatts, e.IOPSPerWatt, e.MBPSPerKW)
}

// NearestRank stores in ranks[i] the nearest-rank qs[i]-quantile of
// s: the element of 1-based rank int(q·n+0.5), clamped to [1, n], in
// the ascending order cmp defines.  It selects instead of sorting: s is
// partially reordered, and each result compares equal to the element a
// full sort would put at that rank, so percentiles read through it are
// the ones a sort gives.  An empty sample yields zero values.  Replay
// and fleet response tails both report through it.
//
// qs must not decrease, and ranks must hold len(qs) elements.  A
// selected rank k leaves s[:k] <= s[k] <= s[k+1:], so each later
// quantile is selected only inside s[k+1:], the part above the
// previous one, and one call reads a population's whole tail.
//
// Each selection is a quickselect with a median-of-three pivot and
// Hoare's partition, which swaps only misplaced pairs, so presorted
// runs cost no swaps and equal values split evenly.  After
// 2·⌈log₂ m⌉ partition rounds on an m-element range it sorts the range
// still open, which bounds the worst case at O(m log m) comparisons.
func NearestRank[S ~[]E, E any](s S, qs []float64, ranks []E, cmp func(a, b E) int) {
	n := len(s)
	lo, prev := 0, -1 // every rank below lo is in place
	for i, q := range qs {
		if i > 0 && !(q >= qs[i-1]) {
			panic(fmt.Sprintf("metrics: quantile %v follows %v", q, qs[i-1]))
		}
		if n == 0 {
			var zero E
			ranks[i] = zero
			continue
		}
		k := NearestRankIndex(q, n)
		if k != prev {
			selectRank(s, lo, k, cmp)
			lo, prev = k+1, k
		}
		ranks[i] = s[k]
	}
}

// NearestRankIndex is the 0-based index of the nearest-rank
// q-quantile in an ascending sample of n > 0: 1-based rank
// int(q·n+0.5), clamped to [1, n].
func NearestRankIndex(q float64, n int) int {
	return max(0, min(int(q*float64(n)+0.5)-1, n-1))
}

// selectRank moves into s[k] the element a sort would put there, given
// that every element of s[:lo] is in place and no greater than any of
// s[lo:].  Afterwards s[:k] <= s[k] <= s[k+1:].
func selectRank[S ~[]E, E any](s S, lo, k int, cmp func(a, b E) int) {
	hi := len(s) - 1 // rank k lies in s[lo..hi]
	for rounds := 2 * bits.Len(uint(hi-lo)); lo < hi; rounds-- {
		if rounds == 0 {
			slices.SortFunc(s[lo:hi+1], cmp)
			return
		}
		// Order the first, middle and last entries; the middle one is
		// the pivot, and the outer two bound the scans below.
		mid := lo + (hi-lo)/2
		if cmp(s[mid], s[lo]) < 0 {
			s[lo], s[mid] = s[mid], s[lo]
		}
		if cmp(s[hi], s[mid]) < 0 {
			s[mid], s[hi] = s[hi], s[mid]
			if cmp(s[mid], s[lo]) < 0 {
				s[lo], s[mid] = s[mid], s[lo]
			}
		}
		pivot := s[mid]
		// Afterwards s[lo..j] <= pivot <= s[i..hi], and anything
		// between j and i equals the pivot.
		i, j := lo, hi
		for i <= j {
			for cmp(s[i], pivot) < 0 {
				i++
			}
			for cmp(pivot, s[j]) < 0 {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Monotone reports whether the series is non-decreasing (dir > 0) or
// non-increasing (dir < 0) within a relative tolerance.  Experiment
// assertions use it to check trend shapes against the paper.
func Monotone(xs []float64, dir int, tol float64) bool {
	for i := 1; i < len(xs); i++ {
		prev, cur := xs[i-1], xs[i]
		slack := tol * math.Max(math.Abs(prev), math.Abs(cur))
		if dir > 0 && cur < prev-slack {
			return false
		}
		if dir < 0 && cur > prev+slack {
			return false
		}
	}
	return true
}
