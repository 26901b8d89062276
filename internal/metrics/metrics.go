// Package metrics implements TRACER's evaluation metrics (paper Section
// V-B): throughput (IOPS, MBPS), the combined energy-efficiency metrics
// IOPS/Watt and MBPS/Kilowatt, and the load-control quality measures
// LP(f,f') and A(f,f') used to validate the filter algorithm (Section
// VI-B, Tables IV and V).
package metrics

import (
	"fmt"
	"math"
	"sort"
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

// NearestRank returns the nearest-rank q-quantile of an ascending
// sample: the element of 1-based rank int(q·n+0.5), clamped to [1, n].
// An empty sample yields the zero value.  Replay and fleet response
// tails both report through it.
func NearestRank[S ~[]E, E any](sorted S, q float64) E {
	if len(sorted) == 0 {
		var zero E
		return zero
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(idx, len(sorted)-1))]
}

// Pearson computes the linear correlation coefficient of two equal-
// length series; the paper's headline observation is that efficiency is
// linearly proportional to load, which experiments assert via r ≈ 1.
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
