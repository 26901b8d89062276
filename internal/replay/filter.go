// Package replay implements TRACER's core contribution: load-controllable
// block-level trace replay (paper Section IV).
//
// The workload-control module scales a trace's I/O intensity to any
// configured load proportion by *uniformly* selecting bunches inside
// fixed-size bunch groups and replaying only those, at their original
// timestamps.  Uniform — not random — selection preserves the crests
// and troughs of the original workload, which is what makes the scaled
// replay representative.  A supplementary inter-arrival scaler supports
// intensities above 100% (paper Fig. 2: 200%, 1000%) by compressing or
// stretching the timeline instead.
package replay

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/simtime"
)

// DefaultGroupSize is the bunch-group length the paper uses: every 10
// consecutive bunches form one group (Section IV-A).
const DefaultGroupSize = 10

// Filter reduces or reshapes a trace before replay.
type Filter interface {
	// Apply returns a new trace; the input is not modified.
	Apply(t *blktrace.Trace) *blktrace.Trace
	// Name identifies the filter in reports.
	Name() string
}

// UniformFilter is the paper's filter algorithm: partition bunches into
// groups of GroupSize and select k = round(Proportion*GroupSize)
// bunches per group at uniformly spaced positions (Fig. 5: 10% selects
// the 10th bunch of each group; 20% the 5th and 10th; and so on).
// Selected bunches keep their original timestamps.
type UniformFilter struct {
	// Proportion is the configured load proportion in (0, 1].
	Proportion float64
	// GroupSize is the bunch-group length; zero means DefaultGroupSize.
	GroupSize int
}

// Name implements Filter.
func (f UniformFilter) Name() string {
	return fmt.Sprintf("uniform-%d%%", int(math.Round(f.Proportion*100)))
}

// ParseLoads parses a comma-separated list of load percentages, such
// as "10,50,100", into proportions.  Every level must lie in
// (0, 1000]: anything else, NaN and the infinities included, is an
// error.  Above 100% the uniform filter replays the whole trace.
func ParseLoads(s string) ([]float64, error) {
	var loads []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		pct, err := strconv.ParseFloat(part, 64)
		if err != nil || !(pct > 0 && pct <= 1000) {
			return nil, fmt.Errorf("bad load level %q", part)
		}
		loads = append(loads, pct/100)
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("no load levels given")
	}
	return loads, nil
}

// selectIndices returns the uniformly spaced 0-based indices chosen
// from a group of size g at proportion p: {ceil?} the paper's pattern
// is index floor(m*g/k)-1 for m = 1..k, which selects the last bunch
// at 10% and spreads evenly elsewhere.
func selectIndices(g int, p float64) []int {
	if g <= 0 {
		return nil
	}
	k := int(math.Round(p * float64(g)))
	if p > 0 && k == 0 {
		// Never round a positive proportion down to nothing for full
		// groups; tiny proportions still replay something.
		k = 1
	}
	if k > g {
		k = g
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, 0, k)
	prev := -1
	for m := 1; m <= k; m++ {
		i := m*g/k - 1
		if i <= prev { // guarantee distinctness for awkward g/k ratios
			i = prev + 1
		}
		if i >= g {
			i = g - 1
		}
		idx = append(idx, i)
		prev = i
	}
	return idx
}

// Apply implements Filter.
func (f UniformFilter) Apply(t *blktrace.Trace) *blktrace.Trace {
	g := f.GroupSize
	if g <= 0 {
		g = DefaultGroupSize
	}
	p := f.Proportion
	if p >= 1 {
		return t.Clone()
	}
	if p <= 0 {
		return &blktrace.Trace{Device: t.Device}
	}
	// Every full group selects the same positions; only a partial
	// final group needs its own.
	whole := len(t.Bunches) - len(t.Bunches)%g
	inGroup, inLast := selectIndices(g, p), selectIndices(len(t.Bunches)-whole, p)
	idx := make([]int, 0, whole/g*len(inGroup)+len(inLast))
	for start := 0; start < whole; start += g {
		for _, i := range inGroup {
			idx = append(idx, start+i)
		}
	}
	for _, i := range inLast {
		idx = append(idx, whole+i)
	}
	return t.Subset(idx)
}

// RandomFilter is the design the paper rejects: select each bunch
// independently with probability Proportion (global Bernoulli
// sampling).  The selected count is only correct in expectation, so
// per-window retention varies binomially and the workload's wave
// crests and troughs get distorted (Section IV-A).  It is kept as the
// ablation baseline against UniformFilter.
type RandomFilter struct {
	// Proportion is the configured load proportion in (0, 1].
	Proportion float64
	// Seed makes selection reproducible.
	Seed uint64
}

// Name implements Filter.
func (f RandomFilter) Name() string {
	return fmt.Sprintf("random-%d%%", int(math.Round(f.Proportion*100)))
}

// Apply implements Filter.
func (f RandomFilter) Apply(t *blktrace.Trace) *blktrace.Trace {
	p := f.Proportion
	if p >= 1 {
		return t.Clone()
	}
	if p <= 0 {
		return &blktrace.Trace{Device: t.Device}
	}
	rng := rand.New(rand.NewPCG(f.Seed, 0xf117e2))
	var idx []int
	for i := range t.Bunches {
		if rng.Float64() >= p {
			continue
		}
		idx = append(idx, i)
	}
	return t.Subset(idx)
}

// IntervalScaler rescales inter-arrival times so the replayed intensity
// becomes Intensity times the original (paper Fig. 2: 1%–1000%).  All
// bunches are kept; only the timeline stretches (Intensity < 1) or
// compresses (Intensity > 1).
type IntervalScaler struct {
	// Intensity is the target relative intensity; 2.0 replays twice as
	// fast, 0.1 at a tenth of the rate.
	Intensity float64
}

// Name implements Filter.
func (s IntervalScaler) Name() string {
	return fmt.Sprintf("scale-%d%%", int(math.Round(s.Intensity*100)))
}

// Apply implements Filter.
func (s IntervalScaler) Apply(t *blktrace.Trace) *blktrace.Trace {
	if s.Intensity <= 0 {
		return &blktrace.Trace{Device: t.Device}
	}
	out := t.Clone()
	for i := range out.Bunches {
		secs := out.Bunches[i].Time.Seconds() / s.Intensity
		out.Bunches[i].Time = simtime.FromSeconds(secs)
	}
	return out
}

// Identity passes the trace through unchanged (100% load).
type Identity struct{}

// Name implements Filter.
func (Identity) Name() string { return "identity" }

// Apply implements Filter.
func (Identity) Apply(t *blktrace.Trace) *blktrace.Trace { return t.Clone() }
