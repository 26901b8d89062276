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

// Cells is the grid size (product of axis lengths).
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

// Validate rejects empty or degenerate spaces, and any value of any
// dimension that Point.Spec rejects, before a single cell runs.
func (s Space) Validate() error {
	if len(s.Dims) == 0 {
		return fmt.Errorf("optimize: space for %q has no dimensions", s.Policy)
	}
	for _, d := range s.Dims {
		if len(d.Values) == 0 {
			return fmt.Errorf("optimize: dimension %q has no values", d.Name)
		}
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
	return nil
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

// drpmTable is the speed-fraction table the "levels" dimension
// truncates: taking the first k entries yields a k-level policy.  It
// bottoms out at the drive's MinRPMFraction — deeper entries would
// silently clamp and desynchronise the ledger from the spindle.
var drpmTable = []float64{1.0, 0.8, 0.65, 0.5}

func dur(seconds float64) simtime.Duration {
	return simtime.Duration(seconds * float64(simtime.Second))
}

// Spec translates the point into the device stack its evaluation
// provisions.  The "cache" policy is a TPM-managed JBOD behind a DRAM
// writeback tier (32 MiB unless capacity_mb says otherwise): the
// writeback/spin-down energy coupling.  Unknown parameter names and
// out-of-range values are an error — a typo'd space must fail loudly,
// not silently search defaults.
func (p Point) Spec() (experiments.StackSpec, error) {
	spec := experiments.StackSpec{Conserve: experiments.ConserveSpec{Technique: p.Policy}}
	if p.Policy == "cache" {
		spec.Conserve.Technique = "tpm"
		spec.Cache = &experiments.CacheSpec{Tier: cache.TierDRAM, CapacityMB: 32}
	}
	c := &spec.Conserve
	for name, v := range p.Params {
		switch p.Policy + "/" + name {
		case "tpm/timeout_s", "cache/timeout_s":
			c.TPMTimeout = dur(v)
		case "drpm/stepdown_s":
			c.DRPMStepDown = dur(v)
		case "drpm/levels":
			k := int(v)
			if k < 2 || k > len(drpmTable) {
				return spec, fmt.Errorf("optimize: drpm levels %v out of range [2,%d]", v, len(drpmTable))
			}
			c.DRPMLevels = drpmTable[:k]
		case "eraid/low_iops":
			c.ERAIDLowIOPS = v
		case "eraid/high_iops":
			c.ERAIDHighIOPS = v
		case "eraid/window_s":
			c.ERAIDWindow = dur(v)
		case "pdc/reorg_s":
			c.PDCReorgInterval = dur(v)
		case "pdc/timeout_s":
			c.PDCSpinDownTimeout = dur(v)
		case "maid/cache_disks":
			c.MAIDCacheDisks = int(v)
		case "maid/timeout_s":
			c.MAIDDataTimeout = dur(v)
		case "cache/capacity_mb":
			if !(v > 0) || math.IsInf(v, 1) {
				return spec, fmt.Errorf("optimize: cache capacity_mb %v is not a finite size > 0", v)
			}
			spec.Cache.CapacityMB = v
		case "cache/flush_s":
			spec.Cache.FlushInterval = dur(v)
		case "cache/idle_drain_s":
			spec.Cache.IdleDrain = dur(v)
		default:
			return spec, fmt.Errorf("optimize: policy %q has no parameter %q", p.Policy, name)
		}
	}
	return spec, nil
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
		MeanWatts:   sanitize(m.Power),
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
