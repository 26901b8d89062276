// Package powersim models power consumption of the simulated storage
// system and the power analyzer that measures it.
//
// The paper measures a disk array's 220 V AC input with a Kingsin KS706
// Hall-effect power meter sampling once per second.  Here every device
// model records its instantaneous power draw on a Timeline (a step
// function over virtual time).  A PSU converts the summed DC load into
// AC wall power, and a Meter integrates the wall-power step function
// over each sampling cycle — exactly the quantity a Hall-loop meter
// reports — optionally corrupted by Gaussian sensor noise.
package powersim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/simtime"
)

// Timeline is a right-continuous step function of power (watts) over
// virtual time.  Device models call Set whenever their power state
// changes; times must be non-decreasing, which the single-threaded
// simulation kernel guarantees naturally.
type Timeline struct {
	steps []step
	// last copies steps[len(steps)-1] when steps is non-empty, so Set
	// decides on the header alone instead of loading the slice's tail.
	last step
}

// step is one point of a timeline: the draw is w watts from at onward.
// Time and draw share one slice element, so an append dirties one
// cache line.
type step struct {
	at simtime.Time
	w  float64
}

// NewTimeline returns a timeline drawing base watts from time zero.
func NewTimeline(base float64) *Timeline {
	first := step{at: 0, w: base}
	return &Timeline{steps: []step{first}, last: first}
}

// Set records that the power draw is w watts from time t onward.
// Setting at a time earlier than the last recorded step panics; setting
// at exactly the last step's time overwrites it.
func (tl *Timeline) Set(t simtime.Time, w float64) {
	if n := len(tl.steps); n > 0 {
		last := tl.last
		if t < last.at {
			panic(fmt.Sprintf("powersim: Set at %v before last step %v", t, last.at))
		}
		if t == last.at {
			tl.last.w = w
			tl.steps[n-1].w = w
			return
		}
		if last.w == w {
			return // no change; keep the timeline compact
		}
	}
	tl.last = step{at: t, w: w}
	tl.steps = append(tl.steps, tl.last)
}

// Add records a relative change of dw watts at time t.
func (tl *Timeline) Add(t simtime.Time, dw float64) {
	tl.Set(t, tl.last.w+dw) // last is the current draw; zero when empty
}

// At reports the power draw at time t.  Before the first step it
// reports the first step's value (a timeline created by NewTimeline
// always has a step at zero).
func (tl *Timeline) At(t simtime.Time) float64 {
	if len(tl.steps) == 0 {
		return 0
	}
	return tl.steps[tl.stepAt(t)].w
}

// stepAt returns the index of the last step at or before t, or 0 when t
// precedes the first step.  The timeline must not be empty.
func (tl *Timeline) stepAt(t simtime.Time) int {
	i := sort.Search(len(tl.steps), func(i int) bool { return tl.steps[i].at > t })
	return max(i-1, 0)
}

// EnergyJ integrates the timeline over [t0, t1), returning joules.  The
// scan starts at the step in force at t0: every earlier segment ends by
// t0 and adds nothing, so a window costs O(log steps) plus the steps
// inside it.
func (tl *Timeline) EnergyJ(t0, t1 simtime.Time) float64 {
	if t1 <= t0 || len(tl.steps) == 0 {
		return 0
	}
	var joules float64
	for i := tl.stepAt(t0); i < len(tl.steps); i++ {
		segStart := tl.steps[i].at
		segEnd := simtime.MaxTime
		if i+1 < len(tl.steps) {
			segEnd = tl.steps[i+1].at
		}
		lo, hi := maxTime(segStart, t0), minTime(segEnd, t1)
		if hi > lo {
			joules += tl.steps[i].w * hi.Sub(lo).Seconds()
		}
		if segStart >= t1 {
			break
		}
	}
	return joules
}

// MeanWatts reports the average power over [t0, t1).
func (tl *Timeline) MeanWatts(t0, t1 simtime.Time) float64 {
	if t1 <= t0 {
		return tl.At(t0)
	}
	return tl.EnergyJ(t0, t1) / t1.Sub(t0).Seconds()
}

// Steps reports the number of recorded steps (useful in tests).
func (tl *Timeline) Steps() int { return len(tl.steps) }

// Segment is one constant-power span of a timeline.
type Segment struct {
	Start, End simtime.Time
	Watts      float64
}

// Segments returns the constant-power spans covering [t0, t1), clipped
// to that window.  Thermal models integrate over these exactly.  Like
// EnergyJ, it starts at the step in force at t0.
func (tl *Timeline) Segments(t0, t1 simtime.Time) []Segment {
	if t1 <= t0 || len(tl.steps) == 0 {
		return nil
	}
	var segs []Segment
	for i := tl.stepAt(t0); i < len(tl.steps); i++ {
		segStart := tl.steps[i].at
		segEnd := simtime.MaxTime
		if i+1 < len(tl.steps) {
			segEnd = tl.steps[i+1].at
		}
		lo, hi := maxTime(segStart, t0), minTime(segEnd, t1)
		if hi > lo {
			segs = append(segs, Segment{Start: lo, End: hi, Watts: tl.steps[i].w})
		}
		if segStart >= t1 {
			break
		}
	}
	return segs
}

func maxTime(a, b simtime.Time) simtime.Time {
	if a > b {
		return a
	}
	return b
}

func minTime(a, b simtime.Time) simtime.Time {
	if a < b {
		return a
	}
	return b
}

// Source is anything whose mean power over an interval can be measured.
// *Timeline and Sum both implement it.
type Source interface {
	MeanWatts(t0, t1 simtime.Time) float64
	EnergyJ(t0, t1 simtime.Time) float64
}

// Sum aggregates several sources: the total draw of an array is the sum
// of its disks plus the chassis.
type Sum []Source

// MeanWatts implements Source.
func (s Sum) MeanWatts(t0, t1 simtime.Time) float64 {
	var w float64
	for _, src := range s {
		w += src.MeanWatts(t0, t1)
	}
	return w
}

// EnergyJ implements Source.
func (s Sum) EnergyJ(t0, t1 simtime.Time) float64 {
	var j float64
	for _, src := range s {
		j += src.EnergyJ(t0, t1)
	}
	return j
}

// PSU converts the DC load of the enclosure into AC wall power.  The
// paper's array draws 220 V AC; its power supply dissipates a constant
// standby loss plus conversion inefficiency proportional to load.
type PSU struct {
	// Source is the DC-side load.
	Source Source
	// Efficiency is the DC/AC conversion efficiency in (0, 1].
	Efficiency float64
	// StandbyW is constant loss drawn even at zero DC load.
	StandbyW float64
}

// MeanWatts implements Source: wall power averaged over [t0, t1).
func (p PSU) MeanWatts(t0, t1 simtime.Time) float64 {
	return p.Source.MeanWatts(t0, t1)/p.eff() + p.StandbyW
}

// EnergyJ implements Source.
func (p PSU) EnergyJ(t0, t1 simtime.Time) float64 {
	return p.Source.EnergyJ(t0, t1)/p.eff() + p.StandbyW*t1.Sub(t0).Seconds()
}

func (p PSU) eff() float64 {
	if p.Efficiency <= 0 || p.Efficiency > 1 {
		return 1
	}
	return p.Efficiency
}

// Sample is one power-meter reading: the average over one sampling
// cycle, decomposed into volts and amperes the way the paper's records
// store them (current from the Hall loop, voltage from socket probes).
type Sample struct {
	// Start and End bound the sampling cycle.
	Start, End simtime.Time
	// Watts is the measured mean power over the cycle.
	Watts float64
	// Volts is the measured supply voltage.
	Volts float64
	// Amps is the measured current (Watts / Volts).
	Amps float64
}

// Meter is a sampled power analyzer channel.  It mimics the KS706:
// fixed-cycle averaging with small multiplicative Gaussian sensor noise.
type Meter struct {
	// Source is the wall-power source being clamped.
	Source Source
	// Cycle is the sampling period (paper default: 1 second).
	Cycle simtime.Duration
	// NoiseFrac is the relative 1-sigma measurement noise (e.g. 0.005
	// for 0.5%).  Zero disables noise.
	NoiseFrac float64
	// SupplyVolts is the nominal AC supply voltage (paper: 220 V).
	SupplyVolts float64
	// Seed makes the noise stream reproducible.
	Seed uint64
}

// DefaultMeter returns a meter configured like the paper's testbed:
// 1-second cycle, 220 V supply, 0.5% sensor noise.
func DefaultMeter(src Source) *Meter {
	return &Meter{Source: src, Cycle: simtime.Second, NoiseFrac: 0.005, SupplyVolts: 220, Seed: 1}
}

// cycleOrDefault reports the effective sampling period.
func (m *Meter) cycleOrDefault() simtime.Duration {
	if m.Cycle <= 0 {
		return simtime.Second
	}
	return m.Cycle
}

// voltsOrDefault reports the effective supply voltage.
func (m *Meter) voltsOrDefault() float64 {
	if m.SupplyVolts <= 0 {
		return 220
	}
	return m.SupplyVolts
}

// noiseRNG returns the meter's reproducible sensor-noise stream.
func (m *Meter) noiseRNG() *rand.Rand {
	return rand.New(rand.NewPCG(m.Seed, 0x7ace))
}

// sampleCycle takes one reading over [start, end) using the given noise
// stream.  Measure and Ticker share it, so an online tick stream is
// bit-identical to a post-hoc Measure over the same window.
func (m *Meter) sampleCycle(rng *rand.Rand, start, end simtime.Time) Sample {
	w := m.Source.MeanWatts(start, end)
	if m.NoiseFrac > 0 {
		w *= 1 + rng.NormFloat64()*m.NoiseFrac
	}
	v := m.voltsOrDefault()
	if m.NoiseFrac > 0 {
		v *= 1 + rng.NormFloat64()*m.NoiseFrac*0.2
	}
	return Sample{Start: start, End: end, Watts: w, Volts: v, Amps: w / v}
}

// Measure samples the source over [t0, t1) and returns one Sample per
// complete or partial cycle.
func (m *Meter) Measure(t0, t1 simtime.Time) []Sample {
	cycle := m.cycleOrDefault()
	rng := m.noiseRNG()
	var samples []Sample
	for start := t0; start < t1; start = start.Add(cycle) {
		samples = append(samples, m.sampleCycle(rng, start, minTime(start.Add(cycle), t1)))
	}
	return samples
}

// Ticker samples a meter channel live on the simulation clock: one
// closure-free kernel event per cycle, each reading the cycle that just
// elapsed.  Post-hoc Measure needs the run to have finished; a ticker
// produces the same stream while the replay is still in flight, which
// is what a monitoring daemon streams to clients.  Device models stamp
// their power trajectory at service start (timestamps may lead the
// clock), so a just-elapsed cycle is always fully recorded.
type Ticker struct {
	engine *simtime.Engine
	meter  *Meter
	rng    *rand.Rand
	until  simtime.Time
	prev   simtime.Time // start of the cycle currently elapsing

	samples []Sample
}

// Tick starts live sampling from the engine's current time until the
// given horizon; the final cycle is truncated at the horizon exactly as
// Measure truncates it.  The returned Ticker accumulates samples as
// virtual time advances.
func (m *Meter) Tick(engine *simtime.Engine, until simtime.Time) *Ticker {
	t := &Ticker{
		engine: engine,
		meter:  m,
		rng:    m.noiseRNG(),
		until:  until,
		prev:   engine.Now(),
	}
	t.arm()
	return t
}

// arm schedules the next cycle-boundary event, if any remain.
func (t *Ticker) arm() {
	if t.prev >= t.until {
		return
	}
	next := minTime(t.prev.Add(t.meter.cycleOrDefault()), t.until)
	t.engine.ScheduleEvent(next, t, simtime.EventArg{})
}

// OnEvent implements simtime.Handler: a cycle boundary arrived; read
// the elapsed cycle and re-arm.
func (t *Ticker) OnEvent(e *simtime.Engine, _ simtime.EventArg) {
	now := e.Now()
	t.samples = append(t.samples, t.meter.sampleCycle(t.rng, t.prev, now))
	t.prev = now
	t.arm()
}

// Samples returns the readings taken so far.
func (t *Ticker) Samples() []Sample { return t.samples }

// MeanWatts averages the Watts field of a slice of samples, weighting
// each sample by its cycle length.
func MeanWatts(samples []Sample) float64 {
	var joules, secs float64
	for _, s := range samples {
		d := s.End.Sub(s.Start).Seconds()
		joules += s.Watts * d
		secs += d
	}
	if secs == 0 {
		return 0
	}
	return joules / secs
}

// EnergyJ sums sample energy (watts x cycle length).
func EnergyJ(samples []Sample) float64 {
	var joules float64
	for _, s := range samples {
		joules += s.Watts * s.End.Sub(s.Start).Seconds()
	}
	return joules
}

// Analyzer is a multi-channel power analyzer: the paper's meter can
// clamp several storage systems at once (Section III-A3).
type Analyzer struct {
	channels map[string]*Meter
	order    []string
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{channels: make(map[string]*Meter)}
}

// AddChannel registers a named meter channel.  Re-registering a name
// replaces the previous meter.
func (a *Analyzer) AddChannel(name string, m *Meter) {
	if _, ok := a.channels[name]; !ok {
		a.order = append(a.order, name)
	}
	a.channels[name] = m
}

// Channel returns the named meter, or nil.
func (a *Analyzer) Channel(name string) *Meter { return a.channels[name] }

// Channels lists channel names in registration order.
func (a *Analyzer) Channels() []string { return append([]string(nil), a.order...) }

// MeasureAll samples every channel over [t0, t1).
func (a *Analyzer) MeasureAll(t0, t1 simtime.Time) map[string][]Sample {
	out := make(map[string][]Sample, len(a.channels))
	for name, m := range a.channels {
		out[name] = m.Measure(t0, t1)
	}
	return out
}

// StateMachine is a helper for device models: it tracks a device's
// current power state and writes the corresponding draw to a Timeline.
// States are registered with fixed draws; transitions stamp the
// timeline at the current virtual time.
type StateMachine struct {
	tl     *Timeline
	states map[string]float64
	cur    string
}

// NewStateMachine creates a machine with the given state table, starting
// in state initial at time zero.
func NewStateMachine(states map[string]float64, initial string) *StateMachine {
	w, ok := states[initial]
	if !ok {
		panic(fmt.Sprintf("powersim: unknown initial state %q", initial))
	}
	cp := make(map[string]float64, len(states))
	for k, v := range states {
		cp[k] = v
	}
	return &StateMachine{tl: NewTimeline(w), states: cp, cur: initial}
}

// Transition moves to state name at time t.
func (sm *StateMachine) Transition(t simtime.Time, name string) {
	w, ok := sm.states[name]
	if !ok {
		panic(fmt.Sprintf("powersim: unknown state %q", name))
	}
	sm.cur = name
	sm.tl.Set(t, w)
}

// State reports the current state name.
func (sm *StateMachine) State() string { return sm.cur }

// Timeline exposes the underlying power timeline.
func (sm *StateMachine) Timeline() *Timeline { return sm.tl }

// ApproxEqual reports whether two powers agree within tol relative
// error; used by tests comparing metered against ground-truth power.
func ApproxEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	denom := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b)/denom <= tol
}

// CheckMonotone verifies the timeline's structural invariant: step
// times strictly increasing and every draw finite.  Set already rejects
// time travel at write time; this re-validates the stored data so the
// conformance layer can assert it after a full run.
func (tl *Timeline) CheckMonotone() error {
	for i, s := range tl.steps {
		if i > 0 && s.at <= tl.steps[i-1].at {
			return fmt.Errorf("powersim: timeline step %d at %v does not advance past %v", i, s.at, tl.steps[i-1].at)
		}
		if math.IsNaN(s.w) || math.IsInf(s.w, 0) {
			return fmt.Errorf("powersim: timeline step %d has non-finite draw %v", i, s.w)
		}
	}
	if n := len(tl.steps); n > 0 && tl.last != tl.steps[n-1] {
		return fmt.Errorf("powersim: timeline header step %+v disagrees with last stored step %+v", tl.last, tl.steps[n-1])
	}
	return nil
}

// VerifySampledEnergy checks that the energy implied by a noise-free
// sample stream equals the source's own integral over the sampled
// window, within relative tolerance tol: the meter must conserve
// energy.  Samples must be contiguous and ordered, as Measure and
// Ticker produce them.
func VerifySampledEnergy(src Source, samples []Sample, tol float64) error {
	if len(samples) == 0 {
		return nil
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Start != samples[i-1].End {
			return fmt.Errorf("powersim: sample %d starts at %v but sample %d ended at %v", i, samples[i].Start, i-1, samples[i-1].End)
		}
	}
	t0, t1 := samples[0].Start, samples[len(samples)-1].End
	sampled := EnergyJ(samples)
	integral := src.EnergyJ(t0, t1)
	if !ApproxEqual(sampled, integral, tol) {
		return fmt.Errorf("powersim: sampled energy %.9g J != timeline integral %.9g J over [%v, %v) (tol %g)",
			sampled, integral, t0, t1, tol)
	}
	return nil
}
