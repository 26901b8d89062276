// Package slo is the fleet's service-level-objective engine: a
// versioned spec declares per-tenant-class objectives (latency
// thresholds, availability, IOPS/Watt floors), every admission and
// completion is attributed to a class, and a Google-SRE-style
// multi-window burn-rate evaluator turns the attributed stream into
// fire/resolve alerts and a live budget snapshot.
//
// The paper's thesis is that energy/performance trade-offs must be
// *visible*; this package is the layer that answers the operator
// question "is the fleet meeting its promises right now, and which
// knob broke them?".  Everything is evaluated on the simulated clock
// at the fleet coordinator's window barriers, so the alert stream and
// the snapshot are byte-identical at any worker count — the
// determinism gate in internal/check holds alerts.jsonl to that at
// workers 1/2/8.
package slo

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/workload"
)

// SpecVersion tags the JSON encoding of Spec.
const SpecVersion = 1

// Objective kinds.
const (
	// KindLatency promises that at least Target of a class's
	// completions respond within ThresholdNs.
	KindLatency = "latency"
	// KindAvailability promises that at least Target of a class's
	// offered requests are admitted (rejections are the bad events).
	KindAvailability = "availability"
	// KindEfficiency promises the class delivers at least
	// FloorIOPSPerWatt over the fast window while it has traffic.
	KindEfficiency = "efficiency"
)

// Objective is one promise made to a class.
type Objective struct {
	// Name labels the objective in alerts and tables ("latency-p99").
	Name string `json:"name"`
	// Kind is KindLatency, KindAvailability or KindEfficiency.
	Kind string `json:"kind"`
	// Target is the good-event ratio promised, e.g. 0.999.  Ratio
	// objectives only (latency, availability).
	Target float64 `json:"target,omitempty"`
	// ThresholdNs is the response-time bound a completion must meet to
	// count good (latency kind only).
	ThresholdNs simtime.Duration `json:"threshold_ns,omitempty"`
	// FloorIOPSPerWatt is the efficiency floor (efficiency kind only).
	FloorIOPSPerWatt float64 `json:"floor_iops_per_watt,omitempty"`
}

// Match selects the client IDs (and, for multi-tenant traces, the
// tenant windows) a class owns.  A zero Match matches everything, so a
// trailing catch-all class is one empty object in the spec.
type Match struct {
	// Mod buckets client IDs: the class owns clients whose id mod Mod
	// is listed in Buckets.  Mod 0 disables client matching.
	Mod uint64 `json:"mod,omitempty"`
	// Buckets are the residues owned (each < Mod).
	Buckets []uint64 `json:"buckets,omitempty"`
	// Tenants names periods of the spec's Periods windows: an arrival
	// inside a window whose name is listed belongs to this class.  This
	// is how workload.MultiTenantSpec tenants map onto classes.
	Tenants []string `json:"tenants,omitempty"`
}

// zero reports whether the match is the catch-all.
func (m Match) zero() bool { return m.Mod == 0 && len(m.Tenants) == 0 }

// ClassSpec declares one tenant class and its objectives.
type ClassSpec struct {
	Name       string      `json:"name"`
	Match      Match       `json:"match"`
	Objectives []Objective `json:"objectives"`
}

// Spec is the versioned SLO declaration for one fleet.
type Spec struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// FastWindow and SlowWindow are the two burn-rate windows (Google
	// SRE multi-window alerting; defaults 5 min and 1 h of sim time).
	FastWindow simtime.Duration `json:"fast_window_ns,omitempty"`
	SlowWindow simtime.Duration `json:"slow_window_ns,omitempty"`
	// EvalInterval is the evaluation tick; both windows must be whole
	// multiples of it.  Default FastWindow/5.
	EvalInterval simtime.Duration `json:"eval_interval_ns,omitempty"`
	// BurnThreshold is the burn rate both windows must exceed to fire
	// (default 14.4 — Google's page threshold: 2%% of a 30-day budget
	// in one hour).
	BurnThreshold float64 `json:"burn_threshold,omitempty"`
	// Periods optionally carries the nonstationary synthesis windows of
	// the workload the fleet replays, so Match.Tenants can attribute
	// arrivals by time window.
	Periods *workload.MultiPeriodSpec `json:"periods,omitempty"`
	// Classes are matched in order; the first hit wins.  Arrivals
	// matching no class are counted as unmatched and not evaluated.
	Classes []ClassSpec `json:"classes"`
}

// Default evaluation parameters.
const (
	DefaultFastWindow    = 5 * simtime.Minute
	DefaultSlowWindow    = simtime.Hour
	DefaultBurnThreshold = 14.4
)

// MaxWindowTicks bounds the slow window in evaluation ticks.  Every
// objective keeps a ring of that many ticks and re-sums it at each
// tick, so an unbounded ratio would let a spec ask for any amount of
// memory and work.  The defaults use 60 ticks, ExampleSpec 20; an hour
// at one-second ticks still fits.
const MaxWindowTicks = 4096

// withDefaults fills zero evaluation parameters.
func (s Spec) withDefaults() Spec {
	if s.FastWindow <= 0 {
		s.FastWindow = DefaultFastWindow
	}
	if s.SlowWindow <= 0 {
		s.SlowWindow = DefaultSlowWindow
	}
	if s.EvalInterval <= 0 {
		s.EvalInterval = s.FastWindow / 5
	}
	if s.BurnThreshold <= 0 {
		s.BurnThreshold = DefaultBurnThreshold
	}
	return s
}

// Validate rejects malformed specs with labelled errors.  It validates
// the spec as written; defaults are applied by NewEngine.
func (s Spec) Validate() error {
	if s.Version != 0 && s.Version != SpecVersion {
		return fmt.Errorf("slo: spec version %d unsupported (want %d)", s.Version, SpecVersion)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("slo: spec %q declares no classes", s.Name)
	}
	d := s.withDefaults()
	if d.FastWindow > d.SlowWindow {
		return fmt.Errorf("slo: fast window %v exceeds slow window %v", d.FastWindow, d.SlowWindow)
	}
	if d.EvalInterval <= 0 {
		return fmt.Errorf("slo: eval interval is zero (the default is a fifth of the %v fast window; set eval_interval_ns)", d.FastWindow)
	}
	if d.FastWindow%d.EvalInterval != 0 || d.SlowWindow%d.EvalInterval != 0 {
		return fmt.Errorf("slo: windows %v/%v are not whole multiples of the eval interval %v",
			d.FastWindow, d.SlowWindow, d.EvalInterval)
	}
	if ticks := d.SlowWindow / d.EvalInterval; ticks > MaxWindowTicks {
		return fmt.Errorf("slo: slow window %v spans %d eval intervals of %v, more than %d",
			d.SlowWindow, int64(ticks), d.EvalInterval, MaxWindowTicks)
	}
	var periodNames map[string]bool
	if s.Periods != nil {
		if err := s.Periods.Validate(); err != nil {
			return fmt.Errorf("slo: periods: %w", err)
		}
		periodNames = make(map[string]bool)
		for _, p := range s.Periods.Periods {
			periodNames[p.Name] = true
		}
	}
	seen := map[string]bool{}
	for i, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("slo: class #%d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("slo: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if c.Match.Mod == 0 && len(c.Match.Buckets) > 0 {
			return fmt.Errorf("slo: class %q lists buckets without a modulus", c.Name)
		}
		for _, b := range c.Match.Buckets {
			if b >= c.Match.Mod {
				return fmt.Errorf("slo: class %q bucket %d outside mod %d", c.Name, b, c.Match.Mod)
			}
		}
		if c.Match.Mod > 0 && len(c.Match.Buckets) == 0 {
			return fmt.Errorf("slo: class %q has mod %d but no buckets", c.Name, c.Match.Mod)
		}
		for _, t := range c.Match.Tenants {
			if periodNames == nil {
				return fmt.Errorf("slo: class %q matches tenant %q but the spec has no periods", c.Name, t)
			}
			if !periodNames[t] {
				return fmt.Errorf("slo: class %q matches unknown tenant %q", c.Name, t)
			}
		}
		if len(c.Objectives) == 0 {
			return fmt.Errorf("slo: class %q has no objectives", c.Name)
		}
		oseen := map[string]bool{}
		for j, o := range c.Objectives {
			if o.Name == "" {
				return fmt.Errorf("slo: class %q objective #%d has no name", c.Name, j)
			}
			if oseen[o.Name] {
				return fmt.Errorf("slo: class %q duplicates objective %q", c.Name, o.Name)
			}
			oseen[o.Name] = true
			switch o.Kind {
			case KindLatency:
				if o.Target <= 0 || o.Target >= 1 {
					return fmt.Errorf("slo: objective %s/%s target %v outside (0,1)", c.Name, o.Name, o.Target)
				}
				if o.ThresholdNs <= 0 {
					return fmt.Errorf("slo: latency objective %s/%s needs a positive threshold", c.Name, o.Name)
				}
			case KindAvailability:
				if o.Target <= 0 || o.Target >= 1 {
					return fmt.Errorf("slo: objective %s/%s target %v outside (0,1)", c.Name, o.Name, o.Target)
				}
			case KindEfficiency:
				if o.FloorIOPSPerWatt <= 0 {
					return fmt.Errorf("slo: efficiency objective %s/%s needs a positive floor", c.Name, o.Name)
				}
			default:
				return fmt.Errorf("slo: objective %s/%s has unknown kind %q", c.Name, o.Name, o.Kind)
			}
		}
	}
	return nil
}

// LoadSpec reads and validates a spec JSON file.  The literal name
// "example" returns ExampleSpec, so walkthroughs need no spec file.
func LoadSpec(path string) (Spec, error) {
	if path == "example" {
		return ExampleSpec(), nil
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("slo: %w", err)
	}
	return decodeSpec(blob, path)
}

// decodeSpec parses and validates a spec's JSON, naming it in errors.
func decodeSpec(blob []byte, name string) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return Spec{}, fmt.Errorf("slo: spec %s: %w", name, err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("slo: spec %s: %w", name, err)
	}
	return s, nil
}

// ExampleSpec is the documented three-class example: interactive
// clients (half the ID space) with a tight latency promise, batch
// clients with a loose one, and a catch-all efficiency floor.
func ExampleSpec() Spec {
	return Spec{
		Version:       SpecVersion,
		Name:          "example",
		FastWindow:    200 * simtime.Millisecond,
		SlowWindow:    simtime.Second,
		EvalInterval:  50 * simtime.Millisecond,
		BurnThreshold: 4,
		Classes: []ClassSpec{
			{
				Name:  "interactive",
				Match: Match{Mod: 2, Buckets: []uint64{0}},
				Objectives: []Objective{
					{Name: "latency-fast", Kind: KindLatency, Target: 0.95, ThresholdNs: 20 * simtime.Millisecond},
					{Name: "availability", Kind: KindAvailability, Target: 0.999},
				},
			},
			{
				Name:  "batch",
				Match: Match{Mod: 2, Buckets: []uint64{1}},
				Objectives: []Objective{
					{Name: "latency-loose", Kind: KindLatency, Target: 0.90, ThresholdNs: 80 * simtime.Millisecond},
				},
			},
			{
				Name: "fleet",
				Objectives: []Objective{
					{Name: "efficiency", Kind: KindEfficiency, FloorIOPSPerWatt: 0.01},
				},
			},
		},
	}
}

// ClientRegionBytes is the address granularity a client ID is derived
// from when a replayed trace carries no explicit client: requests
// within the same 16 MiB region count as one client, so spatial
// locality survives attribution.  fleet.TraceStream and the replay
// observer share this convention.
const ClientRegionBytes = 16 << 20

// ClientOfSector derives the conventional client ID for a sector.
func ClientOfSector(sector int64) uint64 {
	region := int64(ClientRegionBytes) / storage.SectorSize
	return uint64(sector / region)
}

// Classify attributes an arrival to a class: classes are tried in
// order, tenant windows first (when both the spec and the class use
// them), then client-mod buckets; an empty match is a catch-all.
// Returns -1 when no class matches.
func (s *Spec) Classify(at simtime.Time, client uint64) int {
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.Match.zero() {
			return i
		}
		if len(c.Match.Tenants) > 0 && s.Periods != nil {
			if p, ok := s.Periods.PeriodAt(simtime.Duration(at)); ok {
				for _, t := range c.Match.Tenants {
					if p.Name == t {
						return i
					}
				}
			}
			// A tenant-matched class can still match by client ID below.
		}
		if c.Match.Mod > 0 {
			r := client % c.Match.Mod
			for _, b := range c.Match.Buckets {
				if r == b {
					return i
				}
			}
		}
	}
	return -1
}
