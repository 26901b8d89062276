package workload

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/blktrace"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// MaxBunches is the most bunches one synthesis makes: the .replay
// codec writes the bunch count as a uint32.  A trace below it can still
// exceed memory; the cap only refuses what no file could hold before
// anything is allocated.
const MaxBunches = math.MaxUint32

// SynthOptions perturb a synthesis run.  The zero value reproduces the
// profile as faithfully as the model allows.
type SynthOptions struct {
	// Seed drives the generator; the same profile and seed always
	// produce a byte-identical trace.
	Seed uint64
	// Bunches overrides the synthesized bunch count (0 = profile's); it
	// may not exceed MaxBunches.
	Bunches int
	// LoadScale multiplies the arrival rate: 2 halves every gap, 0.5
	// doubles it.  0 means 1 (unscaled); it must be finite.
	LoadScale float64
	// ReadRatio overrides the read/write mix when in [0,1]; negative
	// keeps the profile's mix, and NaN is rejected.  The zero value
	// would silently force an all-write trace, so use -1 (or any
	// negative) for "keep".
	ReadRatio float64
	// Device overrides the output trace's device label; empty derives
	// "derived-<profile name>".
	Device string
}

// normalize fills defaults and validates ranges.
func (o SynthOptions) normalize(p *Profile) (SynthOptions, error) {
	if o.Bunches == 0 {
		o.Bunches = p.Bunches
	}
	if o.Bunches < 0 {
		return o, fmt.Errorf("workload: negative bunch count %d", o.Bunches)
	}
	if int64(o.Bunches) > MaxBunches {
		return o, fmt.Errorf("workload: %d bunches exceed the %d a .replay file holds", o.Bunches, int64(MaxBunches))
	}
	if o.LoadScale == 0 {
		o.LoadScale = 1
	}
	if math.IsNaN(o.LoadScale) || math.IsInf(o.LoadScale, 0) {
		return o, fmt.Errorf("workload: non-finite load scale %v", o.LoadScale)
	}
	if o.LoadScale < 0 {
		return o, fmt.Errorf("workload: negative load scale %v", o.LoadScale)
	}
	if math.IsNaN(o.ReadRatio) {
		return o, fmt.Errorf("workload: read ratio is NaN")
	}
	if o.ReadRatio > 1 {
		return o, fmt.Errorf("workload: read ratio %v above 1", o.ReadRatio)
	}
	if o.Device == "" {
		o.Device = "derived-" + p.Name
	}
	return o, nil
}

// Synthesize samples the profile back into a paper-format trace.  The
// generator is seeded and deterministic: bunch sizes, request sizes and
// the read/write mix are quota-drawn so short syntheses still track the
// source proportions tightly; interarrival gaps walk the 2-state Markov
// chain and are rescaled so the horizon matches the profile duration
// (divided by LoadScale); offsets follow a sequential-run state machine
// whose run starts land in Zipf-ranked hot zones.
func Synthesize(p *Profile, opts SynthOptions) (*blktrace.Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts, err := opts.normalize(p)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(opts.Seed, 0x10ad5caf))
	n := opts.Bunches
	tr := &blktrace.Trace{Device: opts.Device}
	if n == 0 {
		return tr, nil
	}

	// Concurrency, sizing and mix: quota-drawn sequences.
	bunchSizes := p.BunchSize.Draw(n, rng)
	total := 0
	for _, bs := range bunchSizes {
		total += int(bs)
	}
	sizes := p.RequestSize.Draw(total, rng)
	readRatio := p.ReadRatio
	if opts.ReadRatio >= 0 {
		readRatio = opts.ReadRatio
	}
	ops := drawOps(total, readRatio, rng)

	// Arrival times: Markov-modulated gaps, rescaled to the target
	// horizon so offered load is controlled by LoadScale alone.
	times := drawTimes(p, n, opts.LoadScale, rng)

	// Placement: sequential-run state machine over Zipf hot zones.
	pl := newPlacer(&p.Spatial, rng)

	tr.Bunches = make([]blktrace.Bunch, n)
	io := 0
	for i := 0; i < n; i++ {
		pkgs := make([]blktrace.IOPackage, bunchSizes[i])
		for j := range pkgs {
			size := sizes[io]
			pkgs[j] = blktrace.IOPackage{
				Sector: pl.place(size),
				Size:   size,
				Op:     ops[io],
			}
			io++
		}
		tr.Bunches[i] = blktrace.Bunch{Time: times[i], Packages: pkgs}
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("workload: synthesized trace invalid: %w", err)
	}
	return tr, nil
}

// drawOps quota-draws the read/write mix: exactly round(n*readRatio)
// reads, shuffled.
func drawOps(n int, readRatio float64, rng *rand.Rand) []storage.Op {
	ops := make([]storage.Op, n)
	reads := int(math.Round(float64(n) * readRatio))
	for i := 0; i < reads; i++ {
		ops[i] = storage.Read
	}
	for i := reads; i < n; i++ {
		ops[i] = storage.Write
	}
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}

// drawTimes walks the gap model's Markov chain for n-1 gaps and
// rescales the sequence so its sum equals the profile's mean gap times
// (n-1) divided by loadScale — burst/idle structure from the chain,
// offered intensity pinned by construction.
func drawTimes(p *Profile, n int, loadScale float64, rng *rand.Rand) []simtime.Duration {
	times := make([]simtime.Duration, n)
	if n <= 1 {
		return times
	}
	m := &p.Gaps
	gaps := make([]float64, n-1)
	var sum float64
	burst := rng.Float64() < m.StartBurst
	for i := range gaps {
		// A state with no observed gaps cannot be sampled; fall through
		// to the other one (a constant-rate trace classifies every gap
		// burst, leaving idle empty).
		if burst && m.Burst.Empty() {
			burst = false
		}
		if !burst && m.Idle.Empty() {
			burst = true
		}
		var g float64
		var stay float64
		if burst {
			g = float64(m.Burst.Sample(rng))
			stay = m.BurstStay
		} else {
			g = float64(m.Idle.Sample(rng))
			stay = m.IdleStay
		}
		gaps[i] = g
		sum += g
		if rng.Float64() >= stay {
			burst = !burst
		}
	}
	target := m.MeanNs * float64(n-1) / loadScale
	scale := 1.0
	if sum > 0 && target > 0 {
		scale = target / sum
	}
	var acc float64
	for i, g := range gaps {
		acc += g * scale
		times[i+1] = simtime.Duration(math.Round(acc))
	}
	return times
}

// placer is the sequential-run state machine: each run starts at a
// uniform offset inside a Zipf-ranked hot zone and continues
// contiguously for a sampled run length.
type placer struct {
	s       *SpatialModel
	rng     *rand.Rand
	zipfCum []float64 // cumulative Zipf weights over ZoneRank
	next    int64     // next contiguous sector
	runLeft int
}

func newPlacer(s *SpatialModel, rng *rand.Rand) *placer {
	p := &placer{s: s, rng: rng}
	ranks := len(s.ZoneRank)
	if ranks == 0 {
		ranks = 1
	}
	p.zipfCum = make([]float64, ranks)
	var cum float64
	for i := 0; i < ranks; i++ {
		cum += 1 / math.Pow(float64(i+1), s.ZipfTheta)
		p.zipfCum[i] = cum
	}
	return p
}

// place returns the starting sector for a request of the given size.
func (p *placer) place(size int64) int64 {
	sectors := (size + storage.SectorSize - 1) / storage.SectorSize
	if p.runLeft > 0 && p.next+sectors <= p.s.EndSector {
		sector := p.next
		p.next = sector + sectors
		p.runLeft--
		return sector
	}
	// New run: Zipf-pick a zone rank, then a uniform start within it.
	zone := 0
	if n := len(p.s.ZoneRank); n > 0 {
		u := p.rng.Float64() * p.zipfCum[n-1]
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if p.zipfCum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		zone = p.s.ZoneRank[lo]
	}
	span := p.s.EndSector - p.s.BaseSector
	zones := int64(p.s.Zones)
	if zones <= 0 {
		zones = 1
	}
	zLo := p.s.BaseSector + int64(zone)*span/zones
	zHi := p.s.BaseSector + (int64(zone)+1)*span/zones
	maxStart := p.s.EndSector - sectors
	if zHi > maxStart {
		zHi = maxStart
	}
	if zLo > zHi {
		zLo = zHi
	}
	if zLo < 0 {
		zLo = 0
	}
	sector := zLo
	if zHi > zLo {
		sector += p.rng.Int64N(zHi - zLo + 1)
	}
	runLen := p.s.RunIOs.Sample(p.rng)
	if runLen < 1 {
		runLen = 1
	}
	p.runLeft = int(runLen) - 1
	p.next = sector + sectors
	return sector
}
