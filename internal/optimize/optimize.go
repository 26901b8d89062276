// Package optimize searches the conserve-policy parameter spaces for
// energy-efficient operating points (paper Section VII: "leverage
// TRACER to make further measurements on mainstream energy-conservation
// techniques").  A candidate point is scored by replaying a trace
// against the provisioned technique and folding the paper's combined
// metric (IOPS/Watt), the tail-latency cost of spin-ups (p99) and
// mechanical wear (spin-up cycles) into one weighted fitness.
//
// Two search drivers share the same evaluation cell: an exhaustive grid
// fanned out through parsweep (byte-identical results at any worker
// count) and a seed-deterministic evolutionary loop for spaces too
// large to enumerate.  Every policy decision the winning configuration
// takes can be recorded to a ledger (see ledger.go) and counterfactually
// replayed (see whatif.go).
package optimize

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/conserve"
	"repro/internal/experiments"
	"repro/internal/replay"
	"repro/internal/simtime"
)

// Weights fold the objective vector into one scalar fitness.  Rewards
// are positive, penalties subtract; all three terms are per-unit rates
// so the trade-off is explicit: one IOPS/Watt buys IOPSPerWatt points,
// a millisecond of p99 costs P99PerMs, a spin-up cycle costs
// WearPerSpinUp.
type Weights struct {
	IOPSPerWatt   float64 `json:"iops_per_watt"`
	P99PerMs      float64 `json:"p99_per_ms"`
	WearPerSpinUp float64 `json:"wear_per_spinup"`
}

// DefaultWeights reward efficiency first, with a mild tail-latency
// penalty and a small wear charge — the balance the paper's motivating
// use case (archival/web workloads with idle gaps) implies.  The scales
// fit the conservation regime: IOPS/Watt lands in units of 0.01–0.1
// (a handful of IOPS against tens of watts), p99 in thousands of ms
// when a spin-up lands in the tail, wear in hundreds of cycles — so
// one unit of IOPS/Watt trades against 10 s of p99 or 100 spin-ups.
func DefaultWeights() Weights {
	return Weights{IOPSPerWatt: 100, P99PerMs: 1e-4, WearPerSpinUp: 1e-3}
}

// Objectives is the raw measurement vector fitness is derived from.
type Objectives struct {
	IOPS        float64 `json:"iops"`
	MeanWatts   float64 `json:"mean_watts"`
	EnergyJ     float64 `json:"energy_j"`
	IOPSPerWatt float64 `json:"iops_per_watt"`
	P99Ms       float64 `json:"p99_ms"`
	MeanMs      float64 `json:"mean_ms"`
	SpinUps     int64   `json:"spin_ups"`
	RPMShifts   int64   `json:"rpm_shifts"`
}

// sanitize maps NaN and infinities to zero: a degenerate cell (e.g. a
// zero-IO replay window) must score neutrally, not poison the search.
func sanitize(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// Fitness folds o under the weights.  The result is always finite.
func (w Weights) Fitness(o Objectives) float64 {
	f := w.IOPSPerWatt*sanitize(o.IOPSPerWatt) -
		w.P99PerMs*sanitize(o.P99Ms) -
		w.WearPerSpinUp*float64(o.SpinUps)
	return sanitize(f)
}

// Dim is one named parameter axis with its discrete candidate values.
type Dim struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Space is the searchable parameter space of one policy.
type Space struct {
	Policy string `json:"policy"`
	Dims   []Dim  `json:"dims"`
}

// Cells is the grid size (product of axis lengths).  Validate rejects
// a space whose size overflows int.
func (s Space) Cells() int {
	n := 1
	for _, d := range s.Dims {
		n *= len(d.Values)
	}
	return n
}

// Point decodes cell index i (mixed radix, last dimension fastest) into
// a concrete parameter assignment.
func (s Space) Point(i int) Point {
	idx := make([]int, len(s.Dims))
	rem := i
	for d := len(s.Dims) - 1; d >= 0; d-- {
		n := len(s.Dims[d].Values)
		idx[d] = rem % n
		rem /= n
	}
	return s.At(idx)
}

// At builds the point selected by one value index per dimension.
func (s Space) At(idx []int) Point {
	p := Point{Policy: s.Policy, Params: make(map[string]float64, len(s.Dims))}
	for d, dim := range s.Dims {
		p.Params[dim.Name] = dim.Values[idx[d]]
	}
	return p
}

// Validate rejects a space before a single cell runs: one with no
// dimensions, a dimension with no values or a repeated name (a Point
// keeps only one value per name), a cell count that overflows int, or
// a cell Point.Spec rejects.  It asks Point.Spec about every value of
// every dimension (against the first value of each other one), then
// about every corner of the grid, each dimension at its smallest or
// largest value: a bound between two dimensions (eRAID's low_iops
// below its high_iops) breaks at a corner first.
func (s Space) Validate() error {
	if len(s.Dims) == 0 {
		return fmt.Errorf("optimize: space for %q has no dimensions", s.Policy)
	}
	seen := make(map[string]bool, len(s.Dims))
	cells := 1
	for _, d := range s.Dims {
		if len(d.Values) == 0 {
			return fmt.Errorf("optimize: dimension %q has no values", d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("optimize: dimension %q given twice", d.Name)
		}
		seen[d.Name] = true
		if cells > math.MaxInt/len(d.Values) {
			return fmt.Errorf("optimize: space for %q has more cells than an int can count", s.Policy)
		}
		cells *= len(d.Values)
	}
	idx := make([]int, len(s.Dims))
	for d, dim := range s.Dims {
		for j := range dim.Values {
			idx[d] = j
			if _, err := s.At(idx).Spec(); err != nil {
				return err
			}
		}
		idx[d] = 0
	}
	// Every name is now one of the policy's few parameters, so the
	// corners are few.
	for corner := 0; corner < 1<<len(s.Dims); corner++ {
		for d, dim := range s.Dims {
			idx[d] = extreme(dim.Values, corner>>d&1 == 1)
		}
		if _, err := s.At(idx).Spec(); err != nil {
			return err
		}
	}
	return nil
}

// extreme returns the index of the largest of vals, or of the
// smallest.
func extreme(vals []float64, largest bool) int {
	best := 0
	for j, v := range vals {
		if largest && v > vals[best] || !largest && v < vals[best] {
			best = j
		}
	}
	return best
}

// Point is one parameter assignment within a policy's space.
type Point struct {
	Policy string             `json:"policy"`
	Params map[string]float64 `json:"params"`
}

// String renders the point compactly ("tpm timeout_s=5").
func (p Point) String() string {
	names := make([]string, 0, len(p.Params))
	for n := range p.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%v", n, p.Params[n])
	}
	return p.Policy + " " + strings.Join(parts, " ")
}

// Spec translates the point into the device stack its evaluation
// provisions.  The "cache" policy is a TPM-managed JBOD behind a DRAM
// writeback tier (32 MiB unless capacity_mb says otherwise): the
// writeback/spin-down energy coupling.  Every policy's timeout_s is
// the spec's SpinDownTimeout.
//
// A value the stack would not run as given is an error, never a silent
// fallback to a default: an unknown name; NaN or an infinity; seconds
// whose nanosecond count overflows int64; zero or below where zero
// selects the default (flush_s and idle_drain_s: zero, since a
// negative value disables them); levels or cache_disks that are not
// whole numbers within range; and a conserve.Spec or cache spec that
// fails its own Validate.
func (p Point) Spec() (experiments.StackSpec, error) {
	spec := experiments.StackSpec{Conserve: conserve.Spec{Technique: p.Policy}}
	if p.Policy == "cache" {
		spec.Conserve.Technique = "tpm"
		spec.Cache = &experiments.CacheSpec{Tier: cache.TierDRAM, CapacityMB: 32}
	}
	c := &spec.Conserve
	for name, v := range p.Params {
		var err error
		switch p.Policy + "/" + name {
		case "tpm/timeout_s", "pdc/timeout_s", "maid/timeout_s", "cache/timeout_s":
			c.SpinDownTimeout, err = positiveSeconds(v)
		case "drpm/stepdown_s":
			c.DRPMStepDown, err = positiveSeconds(v)
		case "drpm/levels":
			var k int
			k, err = whole(v, 2, len(conserve.DefaultDRPMLevels()))
			c.DRPMLevels = conserve.DefaultDRPMLevels()[:k]
		case "eraid/low_iops":
			c.ERAIDLowIOPS, err = positive(v)
		case "eraid/high_iops":
			c.ERAIDHighIOPS, err = positive(v)
		case "eraid/window_s":
			c.ERAIDWindow, err = positiveSeconds(v)
		case "pdc/reorg_s":
			c.PDCReorgInterval, err = positiveSeconds(v)
		case "maid/cache_disks":
			c.MAIDCacheDisks, err = whole(v, 1, conserve.MAIDDataDisks)
		case "cache/capacity_mb":
			spec.Cache.CapacityMB, err = positive(v)
		case "cache/flush_s":
			spec.Cache.FlushInterval, err = nonzeroSeconds(v)
		case "cache/idle_drain_s":
			spec.Cache.IdleDrain, err = nonzeroSeconds(v)
		default:
			return spec, fmt.Errorf("optimize: policy %q has no parameter %q", p.Policy, name)
		}
		if err != nil {
			return spec, fmt.Errorf("optimize: %s %s %v %w", p.Policy, name, v, err)
		}
	}
	if err := c.Validate(); err != nil {
		return spec, fmt.Errorf("optimize: %s: %w", p.Policy, err)
	}
	if spec.Cache != nil {
		if err := spec.Cache.Validate(); err != nil {
			return spec, fmt.Errorf("optimize: %s: %w", p.Policy, err)
		}
	}
	return spec, nil
}

// positive accepts a finite value > 0.
func positive(v float64) (float64, error) {
	if !(v > 0) || math.IsInf(v, 1) {
		return 0, errors.New("is not a finite number > 0")
	}
	return v, nil
}

// seconds converts v seconds to a duration whose nanosecond count fits
// an int64.
func seconds(v float64) (simtime.Duration, error) {
	ns := v * float64(simtime.Second)
	if !(ns >= -(1<<63) && ns < 1<<63) {
		return 0, errors.New("is not a duration in seconds within ±292 years")
	}
	return simtime.Duration(ns), nil
}

// positiveSeconds accepts a duration of at least 1 ns; zero would select
// the default.
func positiveSeconds(v float64) (simtime.Duration, error) {
	d, err := seconds(v)
	if err == nil && d <= 0 {
		err = errors.New("is not a duration of at least 1ns (zero selects the default)")
	}
	return d, err
}

// nonzeroSeconds accepts any duration but zero, which selects the
// default; a negative one disables the policy.
func nonzeroSeconds(v float64) (simtime.Duration, error) {
	d, err := seconds(v)
	if err == nil && d == 0 {
		err = errors.New("is not a nonzero duration (zero selects the default, a negative one disables)")
	}
	return d, err
}

// whole accepts a whole number in [lo, hi].
func whole(v float64, lo, hi int) (int, error) {
	if !(v >= float64(lo) && v <= float64(hi)) || v != math.Trunc(v) {
		return 0, fmt.Errorf("is not a whole number in [%d, %d]", lo, hi)
	}
	return int(v), nil
}

// DefaultSpace returns the built-in search space for a policy — the
// grids `tracer optimize` sweeps when no custom space is given.
func DefaultSpace(policy string) (Space, error) {
	switch policy {
	case "tpm":
		return Space{Policy: policy, Dims: []Dim{
			{Name: "timeout_s", Values: []float64{1, 2, 5, 10, 20}},
		}}, nil
	case "drpm":
		return Space{Policy: policy, Dims: []Dim{
			{Name: "stepdown_s", Values: []float64{0.5, 1, 2, 5}},
			{Name: "levels", Values: []float64{2, 3, 4}},
		}}, nil
	case "eraid":
		return Space{Policy: policy, Dims: []Dim{
			{Name: "low_iops", Values: []float64{10, 20, 40}},
			{Name: "high_iops", Values: []float64{60, 120}},
		}}, nil
	case "pdc":
		return Space{Policy: policy, Dims: []Dim{
			{Name: "reorg_s", Values: []float64{2, 5, 10}},
			{Name: "timeout_s", Values: []float64{2, 5, 10}},
		}}, nil
	case "maid":
		return Space{Policy: policy, Dims: []Dim{
			{Name: "cache_disks", Values: []float64{1, 2}},
			{Name: "timeout_s", Values: []float64{2, 5, 10}},
		}}, nil
	case "cache":
		// The cache technique searches the writeback cadence against
		// the member spin-down timeout: flushing faster keeps disks
		// awake, draining lazily buys them longer idle windows.
		return Space{Policy: policy, Dims: []Dim{
			{Name: "capacity_mb", Values: []float64{8, 32}},
			{Name: "flush_s", Values: []float64{1, 5}},
			{Name: "timeout_s", Values: []float64{2, 10}},
		}}, nil
	default:
		return Space{}, fmt.Errorf("optimize: no default space for policy %q", policy)
	}
}

// Eval is one scored point.
type Eval struct {
	Point      Point      `json:"point"`
	Objectives Objectives `json:"objectives"`
	Fitness    float64    `json:"fitness"`
}

// Options configure an evaluation run shared by both search drivers.
type Options struct {
	// Config seeds and sizes each simulation cell (normalized
	// defaults apply).
	Config experiments.Config
	// Load is the replay load proportion (0 defaults to 0.5).
	Load float64
	// Weights fold objectives into fitness (zero value: defaults).
	Weights Weights
	// Workers bounds the parallel fan-out (0: GOMAXPROCS).
	Workers int
}

func (o Options) normalized() Options {
	if o.Load <= 0 {
		o.Load = 0.5
	}
	if o.Weights == (Weights{}) {
		o.Weights = DefaultWeights()
	}
	o.Config.Workers = 1 // cells are fanned out here, not inside experiments
	return o
}

// Evaluate scores one point: provision, replay, meter, fold.  A non-nil
// ctl observes (and may arbitrate) every policy decision of the run —
// searches pass nil and re-run the winner under a Recorder.
func Evaluate(opts Options, pt Point, trace *blktrace.Trace, ctl *conserve.Control) (Eval, error) {
	opts = opts.normalized()
	spec, err := pt.Spec()
	if err != nil {
		return Eval{}, err
	}
	spec.Conserve.Control = ctl
	s, err := experiments.Build(opts.Config, spec)
	if err != nil {
		return Eval{}, err
	}
	m, err := experiments.Measure(s, trace, replay.UniformFilter{Proportion: opts.Load}, nil)
	if err != nil {
		return Eval{}, err
	}
	spinUps, rpmShifts := s.WearCounts()
	o := Objectives{
		IOPS:        sanitize(m.Result.IOPS),
		MeanWatts:   sanitize(m.Power.Watts),
		EnergyJ:     sanitize(m.Eff.EnergyJ),
		IOPSPerWatt: sanitize(m.Eff.IOPSPerWatt),
		P99Ms:       sanitize(m.Result.P99Response.Seconds() * 1000),
		MeanMs:      sanitize(m.Result.MeanResponse.Seconds() * 1000),
		SpinUps:     spinUps,
		RPMShifts:   rpmShifts,
	}
	return Eval{Point: pt, Objectives: o, Fitness: opts.Weights.Fitness(o)}, nil
}

// Baseline evaluates the policy's paper-default configuration (the
// zero-value spec) under the same trace, load and weights — the
// reference the LEDGER.md table compares winners against.
func Baseline(opts Options, policy string, trace *blktrace.Trace) (Eval, error) {
	return Evaluate(opts, Point{Policy: policy, Params: map[string]float64{}}, trace, nil)
}
