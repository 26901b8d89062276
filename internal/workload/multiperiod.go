package workload

import (
	"fmt"
	"math"

	"repro/internal/blktrace"
	"repro/internal/simtime"
)

// Nonstationary multi-period synthesis: a trace built from piecewise
// windows, each replaying the source profile at its own load scale and
// read mix.  Cache warm-up and decay only show up under load that
// changes shape over time — a diurnal swing fills the cache off-peak
// and hits on it at peak; a flash crowd measures cold-miss storms; a
// multi-tenant mix interleaves phases with different footprints.

// MultiPeriodVersion tags the JSON encoding of MultiPeriodSpec.
const MultiPeriodVersion = 1

// Period is one synthesis window.
type Period struct {
	// Name labels the window ("night", "burst", ...).
	Name string `json:"name"`
	// Start is the window's offset from trace start.
	Start simtime.Duration `json:"start_ns"`
	// Duration is the window length; must be positive.
	Duration simtime.Duration `json:"duration_ns"`
	// LoadScale multiplies the profile's arrival rate inside the
	// window (1 = unscaled); must be non-negative, 0 yields silence.
	LoadScale float64 `json:"load_scale"`
	// ReadRatio overrides the read/write mix in [0,1]; negative keeps
	// the profile's mix.
	ReadRatio float64 `json:"read_ratio"`
}

// End reports the window's end offset.
func (p Period) End() simtime.Duration { return p.Start + p.Duration }

// MultiPeriodSpec is a validated sequence of non-overlapping windows.
type MultiPeriodSpec struct {
	Version int      `json:"version"`
	Name    string   `json:"name"`
	Periods []Period `json:"periods"`
}

// Duration reports the end of the last window.
func (s MultiPeriodSpec) Duration() simtime.Duration {
	var d simtime.Duration
	for _, p := range s.Periods {
		if p.End() > d {
			d = p.End()
		}
	}
	return d
}

// PeriodAt reports the window covering offset t from trace start.
// Gaps between windows (and anything past the last window) belong to
// no period.
func (s MultiPeriodSpec) PeriodAt(t simtime.Duration) (Period, bool) {
	for _, p := range s.Periods {
		if t >= p.Start && t < p.End() {
			return p, true
		}
	}
	return Period{}, false
}

// Validate rejects malformed specs with labelled errors: no periods,
// zero or negative durations, negative starts, windows ending past
// simtime.Horizon (where replay rejects every arrival), negative load
// scales, read ratios above 1, and overlapping or out-of-order
// windows.  Every window of an accepted
// spec lies in [0, Horizon], so End cannot overflow.
func (s MultiPeriodSpec) Validate() error {
	if s.Version != 0 && s.Version != MultiPeriodVersion {
		return fmt.Errorf("workload: multi-period spec version %d unsupported (want %d)", s.Version, MultiPeriodVersion)
	}
	if len(s.Periods) == 0 {
		return fmt.Errorf("workload: multi-period spec %q has no periods", s.Name)
	}
	for i, p := range s.Periods {
		label := p.Name
		if label == "" {
			label = fmt.Sprintf("#%d", i)
		}
		if p.Duration <= 0 {
			return fmt.Errorf("workload: period %s has non-positive duration %v", label, p.Duration)
		}
		if p.Start < 0 {
			return fmt.Errorf("workload: period %s has negative start %v", label, p.Start)
		}
		if p.Duration > simtime.Duration(simtime.Horizon)-p.Start {
			return fmt.Errorf("workload: period %s (start %v, duration %v) ends past the simulation horizon %v",
				label, p.Start, p.Duration, simtime.Duration(simtime.Horizon))
		}
		if p.LoadScale < 0 {
			return fmt.Errorf("workload: period %s has negative load scale %v", label, p.LoadScale)
		}
		if p.ReadRatio > 1 {
			return fmt.Errorf("workload: period %s has read ratio %v above 1", label, p.ReadRatio)
		}
		if i > 0 {
			prev := s.Periods[i-1]
			if p.Start < prev.End() {
				return fmt.Errorf("workload: period %s (start %v) overlaps %s (ends %v)",
					label, p.Start, prev.Name, prev.End())
			}
		}
	}
	return nil
}

// SynthesizeMulti samples the profile once per window and concatenates
// the segments at their window offsets.  Each window draws from its
// own seeded generator stream, so inserting or editing one window
// never reshuffles the others; bunch counts derive from the window
// duration, the profile's mean gap and the window's load scale.  A
// window, or all of them together, needing more than MaxBunches fails
// before any window is synthesized.
func SynthesizeMulti(p *Profile, spec MultiPeriodSpec, opts SynthOptions) (*blktrace.Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Gaps.MeanNs <= 0 {
		return nil, fmt.Errorf("workload: profile %q has no interarrival model", p.Name)
	}
	device := opts.Device
	if device == "" {
		device = "derived-" + p.Name
		if spec.Name != "" {
			device += "-" + spec.Name
		}
	}
	// Size each segment so its natural (rescaled) span fills the
	// window: n-1 gaps of MeanNs/LoadScale each.  The counts are float64
	// so a huge window cannot wrap int before it is refused.
	counts := make([]int, len(spec.Periods))
	total := 0.0
	for i, win := range spec.Periods {
		if win.LoadScale == 0 {
			continue
		}
		n := 1 + math.Floor(float64(win.Duration)*win.LoadScale/p.Gaps.MeanNs)
		if !(n <= MaxBunches) {
			return nil, fmt.Errorf("workload: period %d (%s) needs %.4g bunches, more than the %d a .replay file holds",
				i, win.Name, n, int64(MaxBunches))
		}
		counts[i] = int(n)
		total += n
	}
	if total > MaxBunches {
		return nil, fmt.Errorf("workload: periods need %.4g bunches together, more than the %d a .replay file holds",
			total, int64(MaxBunches))
	}
	out := &blktrace.Trace{Device: device}
	for i, win := range spec.Periods {
		if counts[i] == 0 {
			continue // a silent window contributes nothing
		}
		wopts := opts
		wopts.Device = device
		wopts.Bunches = counts[i]
		wopts.LoadScale = win.LoadScale
		if win.ReadRatio >= 0 {
			wopts.ReadRatio = win.ReadRatio
		} else {
			wopts.ReadRatio = opts.ReadRatio
		}
		// A distinct seed stream per window keeps windows independent.
		wopts.Seed = opts.Seed + uint64(i)*104729 + 1
		seg, err := Synthesize(p, wopts)
		if err != nil {
			return nil, fmt.Errorf("workload: period %d (%s): %w", i, win.Name, err)
		}
		for _, b := range seg.Bunches {
			at := b.Time + win.Start
			if at >= win.End() {
				break // clip the segment tail to its window
			}
			out.Bunches = append(out.Bunches, blktrace.Bunch{Time: at, Packages: b.Packages})
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("workload: multi-period trace invalid: %w", err)
	}
	return out, nil
}

// DiurnalSpec models a day/night load swing scaled into total: four
// equal windows at low, rising, peak and falling load.
func DiurnalSpec(total simtime.Duration) MultiPeriodSpec {
	q := total / 4
	return MultiPeriodSpec{
		Version: MultiPeriodVersion,
		Name:    "diurnal",
		Periods: []Period{
			{Name: "night", Start: 0, Duration: q, LoadScale: 0.2, ReadRatio: -1},
			{Name: "morning", Start: q, Duration: q, LoadScale: 0.8, ReadRatio: -1},
			{Name: "peak", Start: 2 * q, Duration: q, LoadScale: 2.0, ReadRatio: -1},
			{Name: "evening", Start: 3 * q, Duration: q, LoadScale: 0.6, ReadRatio: -1},
		},
	}
}

// FlashCrowdSpec models a quiet baseline interrupted by a short burst
// at many times the base rate — the cold-miss storm scenario.
func FlashCrowdSpec(total simtime.Duration) MultiPeriodSpec {
	burst := total / 10
	pre := total * 4 / 10
	return MultiPeriodSpec{
		Version: MultiPeriodVersion,
		Name:    "flash-crowd",
		Periods: []Period{
			{Name: "calm", Start: 0, Duration: pre, LoadScale: 0.3, ReadRatio: -1},
			{Name: "crowd", Start: pre, Duration: burst, LoadScale: 5.0, ReadRatio: -1},
			{Name: "decay", Start: pre + burst, Duration: total - pre - burst, LoadScale: 0.5, ReadRatio: -1},
		},
	}
}

// MultiTenantSpec interleaves a read-heavy tenant with a write-heavy
// one — alternating phases exercise dirty-data build-up and drain.
func MultiTenantSpec(total simtime.Duration) MultiPeriodSpec {
	q := total / 4
	return MultiPeriodSpec{
		Version: MultiPeriodVersion,
		Name:    "multi-tenant",
		Periods: []Period{
			{Name: "tenant-a", Start: 0, Duration: q, LoadScale: 1.0, ReadRatio: 0.95},
			{Name: "tenant-b", Start: q, Duration: q, LoadScale: 1.5, ReadRatio: 0.2},
			{Name: "tenant-a2", Start: 2 * q, Duration: q, LoadScale: 1.0, ReadRatio: 0.95},
			{Name: "tenant-b2", Start: 3 * q, Duration: q, LoadScale: 1.5, ReadRatio: 0.2},
		},
	}
}

// PresetSpec returns the named nonstationary preset scaled to total.
func PresetSpec(name string, total simtime.Duration) (MultiPeriodSpec, error) {
	if total <= 0 {
		return MultiPeriodSpec{}, fmt.Errorf("workload: non-positive preset duration %v", total)
	}
	switch name {
	case "diurnal":
		return DiurnalSpec(total), nil
	case "flash-crowd":
		return FlashCrowdSpec(total), nil
	case "multi-tenant":
		return MultiTenantSpec(total), nil
	default:
		return MultiPeriodSpec{}, fmt.Errorf("workload: unknown multi-period preset %q (want diurnal, flash-crowd or multi-tenant)", name)
	}
}
