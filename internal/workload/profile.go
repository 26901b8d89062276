// Package workload characterizes block traces into compact statistical
// profiles and synthesizes new traces from them — the
// characterization→synthesis direction of TraceTracker-style workload
// reconstruction, layered on TRACER's trace repository.
//
// A Profile captures four aspects of a blktrace.Trace:
//
//   - interarrival structure: a 2-state Markov-modulated burst/idle
//     process, each state carrying an empirical gap CDF;
//   - concurrency and sizing: bunch-size and request-size empirical
//     distributions plus the read/write mix;
//   - spatial locality: seek-distance and sequential-run-length
//     distributions (accounted by blktrace.SeekCounter, shared with
//     ComputeStats) and a Zipf fit of the per-zone access skew;
//   - identity: source device, counts and duration, so derived traces
//     can be named and fidelity-checked against their origin.
//
// Profiles serialize to JSON (`tracer analyze` emits them, `tracegen
// -from-profile` consumes them), and Synthesize turns one back into a
// paper-format bunch/IO_package trace deterministically from a seed,
// optionally perturbing load and read/write mix.
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/blktrace"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// ProfileVersion is the JSON schema version.
const ProfileVersion = 1

// zoneCount is the spatial resolution of the hot-zone fit: the footprint
// is divided into up to this many equal zones.
const zoneCount = 64

// GapModel is the interarrival model: a 2-state Markov-modulated
// process whose states ("burst": gaps at or below the threshold,
// "idle": above) each carry an empirical gap CDF.  Synthesis walks the
// chain and inverse-CDF-samples the state's distribution.
type GapModel struct {
	// MeanNs is the mean interarrival gap of the source trace.
	MeanNs float64 `json:"mean_ns"`
	// ThresholdNs splits gaps into burst (<=) and idle (>).
	ThresholdNs int64 `json:"threshold_ns"`
	// StartBurst is the fraction of gaps classified burst (used as the
	// chain's initial-state probability).
	StartBurst float64 `json:"start_burst"`
	// BurstStay and IdleStay are the self-transition probabilities.
	BurstStay float64 `json:"burst_stay"`
	IdleStay  float64 `json:"idle_stay"`
	// Burst and Idle are the per-state empirical gap distributions.
	Burst Distribution `json:"burst"`
	Idle  Distribution `json:"idle"`
}

// SpatialModel captures where requests land.
type SpatialModel struct {
	// BaseSector and EndSector bound the touched footprint
	// [BaseSector, EndSector).
	BaseSector int64 `json:"base_sector"`
	EndSector  int64 `json:"end_sector"`
	// SeqRatio is the fraction of IOs continuing the previous request.
	SeqRatio float64 `json:"seq_ratio"`
	// RunIOs is the distribution of maximal sequential-run lengths.
	RunIOs Distribution `json:"run_ios"`
	// SeekSectors is the distribution of absolute seek distances.
	SeekSectors Distribution `json:"seek_sectors"`
	// ZipfTheta is the skew exponent fitted to per-zone access counts;
	// 0 means uniform.
	ZipfTheta float64 `json:"zipf_theta"`
	// Zones is the number of equal zones the footprint was divided
	// into; ZoneRank lists the zone indices hottest-first (zones never
	// touched are omitted).
	Zones    int   `json:"zones"`
	ZoneRank []int `json:"zone_rank"`
}

// Profile is the serializable workload characterization.
type Profile struct {
	Version int `json:"version"`
	// Name labels the profile (derived trace names embed it).
	Name string `json:"name"`
	// Device is the source trace's device label.
	Device string `json:"device"`
	// Bunches, IOs and DurationNs pin the source trace's shape.
	Bunches    int   `json:"bunches"`
	IOs        int   `json:"ios"`
	DurationNs int64 `json:"duration_ns"`

	// ReadRatio is the fraction of IOs that are reads.
	ReadRatio float64 `json:"read_ratio"`
	// BunchSize and RequestSize are the concurrency and sizing models.
	BunchSize   Distribution `json:"bunch_size"`
	RequestSize Distribution `json:"request_size"`
	// Gaps and Spatial are the arrival and placement models.
	Gaps    GapModel     `json:"gaps"`
	Spatial SpatialModel `json:"spatial"`
}

// Validate checks the profile is complete enough to synthesize from.
func (p *Profile) Validate() error {
	if p.Version != ProfileVersion {
		return fmt.Errorf("workload: unsupported profile version %d", p.Version)
	}
	if p.Bunches <= 0 || p.IOs <= 0 {
		return fmt.Errorf("workload: profile has no bunches/IOs (%d/%d)", p.Bunches, p.IOs)
	}
	if !(p.ReadRatio >= 0 && p.ReadRatio <= 1) {
		return fmt.Errorf("workload: read ratio %v out of [0,1]", p.ReadRatio)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"gaps.start_burst", p.Gaps.StartBurst}, {"gaps.burst_stay", p.Gaps.BurstStay},
		{"gaps.idle_stay", p.Gaps.IdleStay}, {"spatial.seq_ratio", p.Spatial.SeqRatio},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("workload: %s %v is not a probability in [0,1]", f.name, f.v)
		}
	}
	if m := p.Gaps.MeanNs; !(m >= 0 && m <= float64(simtime.Horizon)) {
		return fmt.Errorf("workload: gaps.mean_ns %v outside [0, %d]", m, int64(simtime.Horizon))
	}
	if z := p.Spatial.ZipfTheta; !(z >= 0 && z <= maxZipfTheta) {
		return fmt.Errorf("workload: spatial.zipf_theta %v outside [0, %d], the range Analyze fits", z, maxZipfTheta)
	}
	if p.Spatial.BaseSector < 0 {
		return fmt.Errorf("workload: spatial.base_sector %d is negative", p.Spatial.BaseSector)
	}
	if p.Spatial.Zones < 0 {
		return fmt.Errorf("workload: spatial.zones %d is negative", p.Spatial.Zones)
	}
	seen := make(map[int]bool, len(p.Spatial.ZoneRank))
	for i, z := range p.Spatial.ZoneRank {
		if z < 0 || z >= p.Spatial.Zones {
			return fmt.Errorf("workload: spatial.zone_rank[%d] = %d outside the %d zones", i, z, p.Spatial.Zones)
		}
		if seen[z] {
			return fmt.Errorf("workload: spatial.zone_rank[%d] = %d repeats an earlier entry", i, z)
		}
		seen[z] = true
	}
	if p.BunchSize.Empty() || p.RequestSize.Empty() {
		return fmt.Errorf("workload: empty bunch-size or request-size distribution")
	}
	if p.Spatial.EndSector <= p.Spatial.BaseSector {
		return fmt.Errorf("workload: empty footprint [%d,%d)", p.Spatial.BaseSector, p.Spatial.EndSector)
	}
	for _, d := range []struct {
		name string
		d    Distribution
	}{
		{"bunch_size", p.BunchSize}, {"request_size", p.RequestSize},
		{"gaps.burst", p.Gaps.Burst}, {"gaps.idle", p.Gaps.Idle},
		{"spatial.run_ios", p.Spatial.RunIOs}, {"spatial.seek_sectors", p.Spatial.SeekSectors},
	} {
		if err := d.d.Validate(); err != nil {
			return fmt.Errorf("workload: %s: %w", d.name, err)
		}
	}
	// Both forms are sorted, so the first entry is the least bunch.
	if bs := p.BunchSize; len(bs.Values) > 0 && bs.Values[0] <= 0 || len(bs.Quantiles) > 0 && bs.Quantiles[0] <= 0 {
		return fmt.Errorf("workload: bunch_size: a bunch must hold at least one IO")
	}
	return nil
}

// Analyze streams a trace into a profile.  The name labels the profile;
// empty defaults to the trace's device label.
func Analyze(t *blktrace.Trace, name string) (*Profile, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if len(t.Bunches) == 0 {
		return nil, fmt.Errorf("workload: cannot profile an empty trace")
	}
	if name == "" {
		name = t.Device
	}
	p := &Profile{
		Version:    ProfileVersion,
		Name:       name,
		Device:     t.Device,
		Bunches:    len(t.Bunches),
		DurationNs: int64(t.Duration()),
	}

	// One pass for sizes, mix, footprint and the shared seek/run
	// accounting; gaps come from the bunch timestamps.
	var runLens, seekDists, bunchSizes, reqSizes []int64
	sc := blktrace.SeekCounter{
		OnSeek:   func(d int64) { seekDists = append(seekDists, d) },
		OnRunEnd: func(n int) { runLens = append(runLens, int64(n)) },
	}
	var reads int
	base, end := int64(math.MaxInt64), int64(0)
	for i := range t.Bunches {
		b := &t.Bunches[i]
		bunchSizes = append(bunchSizes, int64(len(b.Packages)))
		for _, pkg := range b.Packages {
			p.IOs++
			reqSizes = append(reqSizes, pkg.Size)
			if pkg.Op == storage.Read {
				reads++
			}
			if pkg.Sector < base {
				base = pkg.Sector
			}
			if e := pkg.Sector + (pkg.Size+storage.SectorSize-1)/storage.SectorSize; e > end {
				end = e
			}
			sc.Observe(pkg)
		}
	}
	sc.Finish()
	p.ReadRatio = float64(reads) / float64(p.IOs)
	p.BunchSize = NewDistribution(bunchSizes)
	p.RequestSize = NewDistribution(reqSizes)

	gaps := make([]int64, 0, len(t.Bunches)-1)
	for i := 1; i < len(t.Bunches); i++ {
		gaps = append(gaps, int64(t.Bunches[i].Time-t.Bunches[i-1].Time))
	}
	p.Gaps = fitGapModel(gaps)

	p.Spatial = SpatialModel{
		BaseSector:  base,
		EndSector:   end,
		SeqRatio:    float64(sc.SeqIOs) / float64(sc.IOs),
		RunIOs:      NewDistribution(runLens),
		SeekSectors: NewDistribution(seekDists),
	}
	fitZones(t, &p.Spatial)
	return p, nil
}

// fitGapModel classifies gaps into burst/idle around the mean gap and
// fits the 2-state chain: per-state empirical CDFs plus self-transition
// probabilities estimated from adjacent gap pairs.
func fitGapModel(gaps []int64) GapModel {
	var m GapModel
	if len(gaps) == 0 {
		return m
	}
	var sum float64
	for _, g := range gaps {
		sum += float64(g)
	}
	m.MeanNs = sum / float64(len(gaps))
	m.ThresholdNs = int64(m.MeanNs)

	var burst, idle []int64
	isBurst := make([]bool, len(gaps))
	for i, g := range gaps {
		if g <= m.ThresholdNs {
			isBurst[i] = true
			burst = append(burst, g)
		} else {
			idle = append(idle, g)
		}
	}
	m.StartBurst = float64(len(burst)) / float64(len(gaps))
	m.Burst = NewDistribution(burst)
	m.Idle = NewDistribution(idle)

	var bb, bAll, ii, iAll int
	for i := 1; i < len(isBurst); i++ {
		if isBurst[i-1] {
			bAll++
			if isBurst[i] {
				bb++
			}
		} else {
			iAll++
			if !isBurst[i] {
				ii++
			}
		}
	}
	m.BurstStay = stayProb(bb, bAll)
	m.IdleStay = stayProb(ii, iAll)
	return m
}

func stayProb(stay, total int) float64 {
	if total == 0 {
		return 1
	}
	return float64(stay) / float64(total)
}

// maxZipfTheta is the largest zone skew Analyze fits and Validate
// accepts.
const maxZipfTheta = 4

// fitZones counts per-zone accesses across the footprint, ranks the
// zones hottest-first, and fits a Zipf exponent to the ranked counts by
// log-log regression.
func fitZones(t *blktrace.Trace, s *SpatialModel) {
	span := s.EndSector - s.BaseSector
	zones := int64(zoneCount)
	if span < zones {
		zones = span
	}
	if zones <= 0 {
		zones = 1
	}
	s.Zones = int(zones)
	counts := make([]int64, zones)
	for i := range t.Bunches {
		for _, pkg := range t.Bunches[i].Packages {
			z := (pkg.Sector - s.BaseSector) * zones / span
			if z >= zones {
				z = zones - 1
			}
			counts[z]++
		}
	}
	type zc struct {
		zone  int
		count int64
	}
	ranked := make([]zc, 0, zones)
	for z, c := range counts {
		if c > 0 {
			ranked = append(ranked, zc{zone: z, count: c})
		}
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].count != ranked[b].count {
			return ranked[a].count > ranked[b].count
		}
		return ranked[a].zone < ranked[b].zone
	})
	s.ZoneRank = make([]int, len(ranked))
	for i, r := range ranked {
		s.ZoneRank[i] = r.zone
	}
	// theta is the negated slope of ln(count) over ln(rank).
	if len(ranked) >= 2 {
		var sx, sy, sxx, sxy float64
		for i, r := range ranked {
			x := math.Log(float64(i + 1))
			y := math.Log(float64(r.count))
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		n := float64(len(ranked))
		if denom := n*sxx - sx*sx; denom > 0 {
			theta := -(n*sxy - sx*sy) / denom
			s.ZipfTheta = math.Max(0, math.Min(maxZipfTheta, theta))
		}
	}
}

// Encode writes the profile as indented JSON.
func (p *Profile) Encode(w io.Writer) error {
	blob, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}

// Decode reads a JSON profile and validates it.
func Decode(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("workload: decode profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// WriteProfile saves a profile to a JSON file.
func WriteProfile(path string, p *Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadProfile loads and validates a JSON profile file.
func ReadProfile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
