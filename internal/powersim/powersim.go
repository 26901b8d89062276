// Package powersim models power consumption of the simulated storage
// system and the power analyzer that measures it.
//
// The paper measures a disk array's 220 V AC input with a Kingsin KS706
// Hall-effect power meter sampling once per second.  Here every device
// model records its instantaneous power draw on a Timeline (a step
// function over virtual time).  A PSU converts the summed DC load into
// AC wall power, and a Meter integrates the wall-power step function
// over each sampling cycle — exactly the quantity a Hall-loop meter
// reports — optionally corrupted by Gaussian sensor noise.  A meter
// reads its source through one cursor that walks each timeline forward
// once, cycle after cycle, with the float expressions of the sources'
// own MeanWatts; post-hoc Measure and the online Ticker share it.
package powersim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/simtime"
)

// Timeline is a right-continuous step function of power (watts) over
// virtual time.  Device models call Set whenever their power state
// changes; times must be non-decreasing, which the single-threaded
// simulation kernel guarantees naturally.
//
// Steps are stored exactly in 8 bytes each, in chunks: a step is its
// offset from the chunk's base time above a 4-bit index into the
// chunk's palette of draws.  Set appends to the current chunk and seals
// it when it is full, when an offset would not fit in offsetBits or
// when a new draw finds the palette full, so any Set sequence is stored
// as is.  A chunk is full at chunkSteps steps, or, while its buffer is
// shorter than a quarter chunk, at its buffer's length: a short
// timeline grows by chunks of firstSteps, twice that, and so on, and
// copies no step until it passes a quarter chunk.
type Timeline struct {
	// sealed holds the chunks before the current one, oldest first.
	sealed []chunk
	// cur is the chunk Set appends to.  Its palette is pal, kept inline
	// (never as a pointer into the Timeline, which HDD copies by value).
	cur chunk
	pal palette
	// last is the last step decoded, so Set decides on the header alone.
	last step
}

// step is one decoded point of a timeline: the draw is w watts from at
// onward.
type step struct {
	at simtime.Time
	w  float64
}

const (
	// chunkSteps fills the largest small-object size class, 32 KiB.
	chunkSteps = 4096
	// firstSteps is a new timeline's first buffer.
	firstSteps = 16
	// idxBits indexes a palette of 1<<idxBits draws; every device model
	// here draws at most 14 distinct powers (a DRPM drive over four
	// speeds).
	idxBits    = 4
	idxMask    = 1<<idxBits - 1
	offsetBits = 64 - idxBits
	maxOffset  = 1<<offsetBits - 1
)

// chunk is a run of encoded steps: step i draws pal.w[s&idxMask] from
// base + s>>idxBits onward, where s is steps[i].  The first step of a
// chunk has offset zero.
type chunk struct {
	base  simtime.Time
	steps []uint64
	pal   *palette // sealed chunks only
}

// palette lists a chunk's distinct draws by bit pattern, so −0, +0 and
// every NaN keep their own entry and decode bit for bit.
type palette struct {
	w [1 << idxBits]uint64
	n uint8
}

// find reports w's index in the palette.
func (p *palette) find(w float64) (uint64, bool) {
	b := math.Float64bits(w)
	for i := range p.n {
		if p.w[i] == b {
			return uint64(i), true
		}
	}
	return 0, false
}

// equal reports whether two palettes list the same draws.  Entries
// past n are zero in every palette, so the first n decide.
func (p *palette) equal(q *palette) bool {
	return p.n == q.n && slices.Equal(p.w[:p.n], q.w[:p.n])
}

// add appends w to the palette, which has room, and returns its index.
func (p *palette) add(w float64) uint64 {
	p.w[p.n] = math.Float64bits(w)
	p.n++
	return uint64(p.n - 1)
}

// NewTimeline returns a timeline drawing base watts from time zero.
func NewTimeline(base float64) *Timeline {
	tl := &Timeline{cur: chunk{steps: make([]uint64, 1, firstSteps)}, last: step{at: 0, w: base}}
	tl.pal.add(base)
	return tl
}

// Set records that the power draw is w watts from time t onward.
// Setting at a time earlier than the last recorded step panics; setting
// at exactly the last step's time overwrites it.
func (tl *Timeline) Set(t simtime.Time, w float64) {
	if n := len(tl.cur.steps); n > 0 {
		last := tl.last
		if t < last.at {
			panic(fmt.Sprintf("powersim: Set at %v before last step %v", t, last.at))
		}
		if t == last.at {
			if idx, ok := tl.pal.find(w); ok || tl.pal.n < 1<<idxBits {
				if !ok {
					idx = tl.pal.add(w)
				}
				tl.cur.steps[n-1] = tl.cur.steps[n-1]&^idxMask | idx
				tl.last.w = w
				return
			}
			// The palette is full: write the step again, into a chunk
			// of its own.
			tl.cur.steps = tl.cur.steps[:n-1]
		} else if last.w == w {
			return // no change; keep the timeline compact
		}
	}
	tl.push(t, w)
}

// push appends a step drawing w from t, which follows every stored
// step, sealing the current chunk first when the step does not fit it.
func (tl *Timeline) push(t simtime.Time, w float64) {
	c := &tl.cur
	idx, ok := tl.pal.find(w)
	full := !ok && tl.pal.n == 1<<idxBits
	off := uint64(t) - uint64(c.base) // exact: t is not before base
	if n := len(c.steps); n == 0 || isFull(c.steps) || off > maxOffset || full {
		if n > 0 {
			tl.seal()
		}
		if full {
			tl.pal = palette{}
		}
		c.base, off = t, 0
	}
	if !ok {
		idx = tl.pal.add(w)
	}
	if len(c.steps) == cap(c.steps) {
		c.steps = grow(c.steps)
	}
	c.steps = append(c.steps, off<<idxBits|idx)
	tl.last = step{at: t, w: w}
}

// isFull reports whether a chunk holding s takes no further step: at
// chunkSteps steps, or when a buffer shorter than a quarter chunk is
// full, since it is cheaper to seal it than to copy it.
func isFull(s []uint64) bool {
	return len(s) == chunkSteps || len(s) == cap(s) && cap(s) < chunkSteps/4
}

// grow returns s with room for one more step: the zero Timeline's
// first buffer, or a full chunk for a buffer of a quarter chunk or
// more, so a chunk is copied at most once, past a quarter of its size.
func grow(s []uint64) []uint64 {
	if cap(s) == 0 {
		return make([]uint64, 0, firstSteps)
	}
	return append(make([]uint64, 0, chunkSteps), s...)
}

// seal closes the current chunk.  A full chunk is kept as it is: after
// a short one the next buffer is twice as long, and after a chunkSteps
// one it is a quarter chunk.  A chunk closed early is copied out at its
// length, and its buffer carries on.  The palette carries over too,
// and consecutive chunks with equal palettes share one copy.
func (tl *Timeline) seal() {
	c := tl.cur
	switch n := len(c.steps); {
	case n == chunkSteps:
		tl.cur.steps = make([]uint64, 0, chunkSteps/4)
	case isFull(c.steps):
		tl.cur.steps = make([]uint64, 0, 2*n)
	default:
		c.steps = slices.Clone(c.steps)
		tl.cur.steps = tl.cur.steps[:0]
	}
	if n := len(tl.sealed); n > 0 && tl.sealed[n-1].pal.equal(&tl.pal) {
		c.pal = tl.sealed[n-1].pal
	} else {
		p := tl.pal
		c.pal = &p
	}
	if tl.sealed == nil {
		// Room for the short chunks a timeline fills before its first
		// quarter chunk.
		tl.sealed = make([]chunk, 0, 8)
	}
	tl.sealed = append(tl.sealed, c)
}

// chunkAt returns chunk k, counting the current chunk last, and its
// palette.
func (tl *Timeline) chunkAt(k int) (*chunk, *palette) {
	if k < len(tl.sealed) {
		c := &tl.sealed[k]
		return c, c.pal
	}
	return &tl.cur, &tl.pal
}

// chunkEnd reports when chunk k's last step ends: at the next chunk's
// base, where that chunk's first step sits, or never for the current
// chunk.
func (tl *Timeline) chunkEnd(k int) simtime.Time {
	switch {
	case k+1 < len(tl.sealed):
		return tl.sealed[k+1].base
	case k < len(tl.sealed):
		return tl.cur.base
	}
	return simtime.MaxTime
}

// at decodes the time of step i of the chunk.
func (c *chunk) at(i int) simtime.Time { return c.base + simtime.Time(c.steps[i]>>idxBits) }

// step decodes step i of the chunk, whose palette is pal.
func (c *chunk) step(i int, pal *palette) step {
	return step{at: c.at(i), w: math.Float64frombits(pal.w[c.steps[i]&idxMask])}
}

// locate returns the chunk and index of the last step at or before t,
// or of the first step when t precedes it: it binary-searches the
// chunk bases, then one chunk.  The timeline must not be empty.
func (tl *Timeline) locate(t simtime.Time) (k, i int) {
	k = sort.Search(len(tl.sealed), func(k int) bool { return tl.sealed[k].base > t })
	if k == len(tl.sealed) && tl.cur.base <= t {
		k++
	}
	if k == 0 {
		return 0, 0 // t precedes the first step
	}
	c, _ := tl.chunkAt(k - 1)
	i = len(c.steps) - 1
	if d := uint64(t) - uint64(c.base); d <= maxOffset {
		key := d<<idxBits | idxMask
		i = sort.Search(len(c.steps), func(i int) bool { return c.steps[i] > key }) - 1
	}
	return k - 1, i
}

// At reports the power draw at time t.  Before the first step it
// reports the first step's value (a timeline created by NewTimeline
// always has a step at zero).
func (tl *Timeline) At(t simtime.Time) float64 {
	if len(tl.cur.steps) == 0 {
		return 0
	}
	k, i := tl.locate(t)
	c, pal := tl.chunkAt(k)
	return c.step(i, pal).w
}

// EnergyJ integrates the timeline over [t0, t1), returning joules.
func (tl *Timeline) EnergyJ(t0, t1 simtime.Time) float64 {
	return tl.integrate(t0, t1, nil, nil)
}

// mark is a scan position in a timeline: step i of chunk k, counting
// the current chunk last.  The zero mark is unset.
type mark struct {
	k, i int
	set  bool
}

// resumes reports whether a scan of a window opening at t0 may start at
// m: m names a stored step that starts by t0, so one not after the step
// in force there.  Set only appends steps or rewrites the last one, so
// a mark stays in range unless a same-time overwrite that misses a full
// palette moved the step it names into a chunk of its own.
func (tl *Timeline) resumes(m mark, t0 simtime.Time) bool {
	c, _ := tl.chunkAt(m.k)
	return m.set && m.i < len(c.steps) && c.at(m.i) <= t0
}

// integrate returns the energy over [t0, t1) and, when segs is not nil,
// appends to it the constant-power spans covering that window, clipped
// to it.  The scan starts at the step in force at t0, or at *from when
// from is not nil and resumes there: every earlier span ends by t0 and
// adds nothing.  It stops at the first step lasting to t1 or beyond,
// which is not after the step in force at t1, and stores that position
// in *from, so consecutive windows walk the timeline forward once.  A
// lone window costs O(log steps) plus the steps inside it.
func (tl *Timeline) integrate(t0, t1 simtime.Time, segs *[]Segment, from *mark) float64 {
	if t1 <= t0 || len(tl.cur.steps) == 0 {
		return 0
	}
	var k, i int
	if from != nil && tl.resumes(*from, t0) {
		k, i = from.k, from.i
	} else {
		k, i = tl.locate(t0)
	}
	var joules float64
	for ; ; k, i = k+1, 0 {
		c, pal := tl.chunkAt(k)
		steps, base := c.steps, c.base
		// The timeline's last step lasts forever, so the scan stops.
		last := tl.chunkEnd(k)
		at := c.at(i)
		for ; i < len(steps); i++ {
			end := last
			if i+1 < len(steps) {
				end = base + simtime.Time(steps[i+1]>>idxBits)
			}
			lo, hi := maxTime(at, t0), minTime(end, t1)
			if hi > lo {
				w := math.Float64frombits(pal.w[steps[i]&idxMask])
				joules += w * hi.Sub(lo).Seconds()
				if segs != nil {
					*segs = append(*segs, Segment{Start: lo, End: hi, Watts: w})
				}
			}
			if end >= t1 {
				if from != nil {
					*from = mark{k: k, i: i, set: true}
				}
				return joules
			}
			at = end
		}
	}
}

// MeanWatts reports the average power over [t0, t1).
func (tl *Timeline) MeanWatts(t0, t1 simtime.Time) float64 {
	return tl.meanWatts(t0, t1, nil)
}

// meanWatts is MeanWatts with integrate's optional scan position.
func (tl *Timeline) meanWatts(t0, t1 simtime.Time, from *mark) float64 {
	if t1 <= t0 {
		return tl.At(t0)
	}
	return tl.integrate(t0, t1, nil, from) / t1.Sub(t0).Seconds()
}

// Steps reports the number of recorded steps (useful in tests).
func (tl *Timeline) Steps() int {
	n := len(tl.cur.steps)
	for _, c := range tl.sealed {
		n += len(c.steps)
	}
	return n
}

// Segment is one constant-power span of a timeline.
type Segment struct {
	Start, End simtime.Time
	Watts      float64
}

// Segments returns the constant-power spans covering [t0, t1), clipped
// to that window.  Thermal models integrate over these exactly.
func (tl *Timeline) Segments(t0, t1 simtime.Time) []Segment {
	var segs []Segment
	tl.integrate(t0, t1, &segs, nil)
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

// Reading is one metered window: the meter's samples and their
// cycle-weighted mean power and energy.
type Reading struct {
	Samples        []Sample
	Watts, EnergyJ float64
}

// Read meters src over [t0, t1) with a DefaultMeter whose noise stream
// is seeded with seed.  It is the one post-hoc reading of a finished
// replay or idle window.
func Read(src Source, seed uint64, t0, t1 simtime.Time) Reading {
	m := DefaultMeter(src)
	m.Seed = seed
	samples := m.Measure(t0, t1)
	return Reading{Samples: samples, Watts: MeanWatts(samples), EnergyJ: EnergyJ(samples)}
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

// sampleCycle takes one reading over [start, end) through the cursor,
// using the given noise stream.  Measure and Ticker share it, so an
// online tick stream is bit-identical to a post-hoc Measure over the
// same window.
func (m *Meter) sampleCycle(rng *rand.Rand, src *cursor, start, end simtime.Time) Sample {
	w := src.meanWatts(start, end)
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
// complete or partial cycle, walking each timeline forward once.
func (m *Meter) Measure(t0, t1 simtime.Time) []Sample {
	if t1 <= t0 {
		return nil
	}
	cycle := m.cycleOrDefault()
	rng := m.noiseRNG()
	src := newCursor(m.Source)
	samples := make([]Sample, 0, (uint64(t1)-uint64(t0)-1)/uint64(cycle)+1)
	for start := t0; start < t1; start = start.Add(cycle) {
		samples = append(samples, m.sampleCycle(rng, &src, start, minTime(start.Add(cycle), t1)))
	}
	return samples
}

// cursor reads a source's mean power over consecutive cycles with the
// float expression the source's own MeanWatts evaluates.  It mirrors
// the source: a *Timeline resumes each cycle's scan where the last one
// stopped, so a meter walks every timeline forward once; a Sum adds its
// parts in order; a PSU converts its DC load; any other source is read
// through MeanWatts.
type cursor struct {
	src   Source    // a source read through MeanWatts
	tl    *Timeline // a timeline, scanned from at
	at    mark
	sum   []cursor // a Sum's parts
	psu   []cursor // a PSU's DC load, converted by eff and lossW
	eff   float64
	lossW float64
}

// newCursor builds the cursor over src.
func newCursor(src Source) cursor {
	switch s := src.(type) {
	case *Timeline:
		return cursor{tl: s}
	case Sum:
		c := cursor{sum: make([]cursor, len(s))}
		for i, part := range s {
			c.sum[i] = newCursor(part)
		}
		return c
	case PSU:
		return cursor{psu: []cursor{newCursor(s.Source)}, eff: s.eff(), lossW: s.StandbyW}
	}
	return cursor{src: src}
}

// meanWatts reads the mean power over [t0, t1), a window that follows
// the last one read or starts a new scan.
func (c *cursor) meanWatts(t0, t1 simtime.Time) float64 {
	switch {
	case c.tl != nil:
		return c.tl.meanWatts(t0, t1, &c.at)
	case c.sum != nil:
		var w float64 // as Sum.MeanWatts
		for i := range c.sum {
			w += c.sum[i].meanWatts(t0, t1)
		}
		return w
	case c.psu != nil:
		return c.psu[0].meanWatts(t0, t1)/c.eff + c.lossW // as PSU.MeanWatts
	}
	return c.src.MeanWatts(t0, t1)
}

// Ticker samples a meter channel live on the simulation clock: one
// closure-free kernel event per cycle, each reading the cycle that just
// elapsed.  Post-hoc Measure needs the run to have finished; a ticker
// produces the same stream while the replay is still in flight, which
// is what a monitoring daemon streams to clients.  Device models stamp
// their power trajectory at service start (timestamps may lead the
// clock), so a just-elapsed cycle is always fully recorded.  The ticker
// reads the meter's source, as it was at Tick, through Measure's
// cursor; a timeline Set between two reads, even one that rewrites or
// moves the step the cursor rests on, is read as Measure reads it,
// because each read re-validates the cursor's position first.
type Ticker struct {
	engine *simtime.Engine
	meter  *Meter
	rng    *rand.Rand
	src    cursor
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
		src:    newCursor(m.Source),
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
	t.samples = append(t.samples, t.meter.sampleCycle(t.rng, &t.src, t.prev, now))
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
	var prev step
	i := 0
	for k := 0; k <= len(tl.sealed); k++ {
		c, pal := tl.chunkAt(k)
		for j := range c.steps {
			s := c.step(j, pal)
			if i > 0 && s.at <= prev.at {
				return fmt.Errorf("powersim: timeline step %d at %v does not advance past %v", i, s.at, prev.at)
			}
			if math.IsNaN(s.w) || math.IsInf(s.w, 0) {
				return fmt.Errorf("powersim: timeline step %d has non-finite draw %v", i, s.w)
			}
			prev = s
			i++
		}
	}
	if i > 0 && tl.last != prev {
		return fmt.Errorf("powersim: timeline header step %+v disagrees with last stored step %+v", tl.last, prev)
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
