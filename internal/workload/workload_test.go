package workload

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/parsweep"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/synth"
)

// webTrace is a realistic bursty source for round-trip tests.
func webTrace() *blktrace.Trace {
	p := synth.DefaultWebServer()
	p.Duration = 20 * simtime.Second
	return synth.WebServerTrace(p)
}

// fixedTrace is a small deterministic trace with known structure: a
// hot front zone, 4 KB reads, sequential pairs every other bunch.
func fixedTrace() *blktrace.Trace {
	b := blktrace.NewBuilder("fixture")
	at := simtime.Duration(0)
	sector := int64(0)
	for i := 0; i < 60; i++ {
		at += 10 * simtime.Millisecond
		if i%2 == 0 {
			sector = int64(i%8) * 100000
		} else {
			sector += 8 // continue the previous 4 KB request
		}
		op := storage.Read
		if i%5 == 0 {
			op = storage.Write
		}
		if err := b.Record(at, blktrace.IOPackage{Sector: sector, Size: 4096, Op: op}); err != nil {
			panic(err)
		}
	}
	return b.Trace()
}

func TestAnalyzeCapturesStructure(t *testing.T) {
	tr := fixedTrace()
	p, err := Analyze(tr, "fix")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "fix" || p.Device != "fixture" {
		t.Fatalf("identity: %q %q", p.Name, p.Device)
	}
	if p.Bunches != 60 || p.IOs != 60 {
		t.Fatalf("counts: %d bunches %d IOs", p.Bunches, p.IOs)
	}
	st := blktrace.ComputeStats(tr)
	if math.Abs(p.ReadRatio-st.ReadRatio) > 1e-12 {
		t.Fatalf("read ratio %v, stats say %v", p.ReadRatio, st.ReadRatio)
	}
	if rs := p.RequestSize; !slices.Equal(rs.Values, []int64{4096}) || !slices.Equal(rs.Counts, []int64{60}) {
		t.Fatalf("request sizes %+v, want 60 x 4096", rs)
	}
	// Half the IOs continue the previous one.
	if math.Abs(p.Spatial.SeqRatio-float64(st.IOs-st.Seeks)/float64(st.IOs)) > 1e-12 {
		t.Fatalf("seq ratio %v vs stats %+v", p.Spatial.SeqRatio, st)
	}
	if p.Spatial.RunIOs.Empty() || p.Spatial.SeekSectors.Empty() {
		t.Fatal("spatial distributions empty")
	}
	// Constant 10ms gaps: the gap model must reproduce the mean and
	// classify everything into one state.
	if p.Gaps.MeanNs != float64(10*simtime.Millisecond) {
		t.Fatalf("gap mean %v", p.Gaps.MeanNs)
	}
	if p.Gaps.Idle.Empty() == p.Gaps.Burst.Empty() {
		t.Fatalf("constant gaps must occupy exactly one state: %+v", p.Gaps)
	}
}

func TestAnalyzeRejectsEmptyTrace(t *testing.T) {
	if _, err := Analyze(&blktrace.Trace{Device: "x"}, ""); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	p, err := Analyze(webTrace(), "web")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.json")
	if err := WriteProfile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("profile changed across JSON round trip:\n%+v\nvs\n%+v", p, got)
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte(`{"version":1}`))); err == nil {
		t.Fatal("profile without distributions accepted")
	}
	if _, err := Decode(bytes.NewReader([]byte(`not json`))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestValidateRejectsUnsynthesizableProfiles: profiles whose
// histogram counts overflow int64, whose bunch sizes include an empty
// or negative bunch, or whose footprint, zones, probabilities, mean
// gap or zone skew make no sense fail Validate with the field named,
// instead of panicking or synthesizing nonsense.
func TestValidateRejectsUnsynthesizableProfiles(t *testing.T) {
	fixture, err := Analyze(fixedTrace(), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	fixtureZones, fixtureRanks := fixture.Spatial.Zones, len(fixture.Spatial.ZoneRank)
	fixtureTopZone := fixture.Spatial.ZoneRank[0]
	cases := []struct {
		name string
		mut  func(*Profile)
		want string
	}{
		{"run_ios counts overflow", func(p *Profile) {
			p.Spatial.RunIOs = Distribution{Values: []int64{1, 2}, Counts: []int64{math.MaxInt64, 1}}
		}, "spatial.run_ios: histogram counts overflow int64 at value 2"},
		{"zero bunch in histogram", func(p *Profile) {
			p.BunchSize = Distribution{Values: []int64{0, 1}, Counts: []int64{1, 1}}
		}, "bunch_size: a bunch must hold at least one IO"},
		{"negative bunch in histogram", func(p *Profile) {
			p.BunchSize = Distribution{Values: []int64{-3}, Counts: []int64{5}}
		}, "bunch_size: a bunch must hold at least one IO"},
		{"non-positive bunch in quantiles", func(p *Profile) {
			p.BunchSize = Distribution{Quantiles: []int64{-1, 1, 2}}
		}, "bunch_size: a bunch must hold at least one IO"},
		{"negative base sector", func(p *Profile) { p.Spatial.BaseSector = -8 }, "spatial.base_sector -8 is negative"},
		{"zone rank at zones", func(p *Profile) { p.Spatial.ZoneRank[0] = p.Spatial.Zones },
			fmt.Sprintf("spatial.zone_rank[0] = %d outside the %d zones", fixtureZones, fixtureZones)},
		{"zone rank above zones", func(p *Profile) { p.Spatial.ZoneRank[0] = 1 << 40 },
			fmt.Sprintf("spatial.zone_rank[0] = %d outside the %d zones", 1<<40, fixtureZones)},
		{"negative zone rank", func(p *Profile) { p.Spatial.ZoneRank[0] = -1 },
			fmt.Sprintf("spatial.zone_rank[0] = -1 outside the %d zones", fixtureZones)},
		{"repeated zone rank", func(p *Profile) { p.Spatial.ZoneRank = append(p.Spatial.ZoneRank, p.Spatial.ZoneRank[0]) },
			fmt.Sprintf("spatial.zone_rank[%d] = %d repeats an earlier entry", fixtureRanks, fixtureTopZone)},
		{"negative zones", func(p *Profile) { p.Spatial.Zones, p.Spatial.ZoneRank = -3, nil }, "spatial.zones -3 is negative"},
		{"burst stay above 1", func(p *Profile) { p.Gaps.BurstStay = 1.5 }, "gaps.burst_stay 1.5 is not a probability in [0,1]"},
		{"idle stay below 0", func(p *Profile) { p.Gaps.IdleStay = -0.25 }, "gaps.idle_stay -0.25 is not a probability in [0,1]"},
		{"start burst above 1", func(p *Profile) { p.Gaps.StartBurst = 2 }, "gaps.start_burst 2 is not a probability in [0,1]"},
		{"seq ratio below 0", func(p *Profile) { p.Spatial.SeqRatio = -1 }, "spatial.seq_ratio -1 is not a probability in [0,1]"},
		{"NaN probability", func(p *Profile) { p.Gaps.BurstStay = math.NaN() }, "gaps.burst_stay NaN is not a probability in [0,1]"},
		{"NaN read ratio", func(p *Profile) { p.ReadRatio = math.NaN() }, "read ratio NaN out of [0,1]"},
		{"negative mean gap", func(p *Profile) { p.Gaps.MeanNs = -1 }, "gaps.mean_ns -1 outside [0, 4611686018427387904]"},
		{"infinite mean gap", func(p *Profile) { p.Gaps.MeanNs = math.Inf(1) }, "gaps.mean_ns +Inf outside [0, 4611686018427387904]"},
		{"mean gap past the horizon", func(p *Profile) { p.Gaps.MeanNs = 1e300 }, "gaps.mean_ns 1e+300 outside [0, 4611686018427387904]"},
		{"huge zipf theta", func(p *Profile) { p.Spatial.ZipfTheta = 1e300 }, "spatial.zipf_theta 1e+300 outside [0, 4], the range Analyze fits"},
		{"negative zipf theta", func(p *Profile) { p.Spatial.ZipfTheta = -1e300 }, "spatial.zipf_theta -1e+300 outside [0, 4], the range Analyze fits"},
		{"NaN zipf theta", func(p *Profile) { p.Spatial.ZipfTheta = math.NaN() }, "spatial.zipf_theta NaN outside [0, 4], the range Analyze fits"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Analyze(fixedTrace(), "fixture")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Synthesize(p, SynthOptions{Seed: 1, ReadRatio: -1}); err != nil {
				t.Fatalf("unmutated profile: %v", err)
			}
			c.mut(p)
			if err := p.Validate(); err == nil || err.Error() != "workload: "+c.want {
				t.Fatalf("Validate() = %v, want %q", err, "workload: "+c.want)
			}
			if _, err := Synthesize(p, SynthOptions{Seed: 1, ReadRatio: -1}); err == nil {
				t.Fatal("Synthesize accepted the profile")
			}
		})
	}
}

// encode renders a trace to its canonical binary form for byte-level
// comparison.
func encode(t *testing.T, tr *blktrace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := blktrace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSynthesizeDeterministic(t *testing.T) {
	p, err := Analyze(webTrace(), "web")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Synthesize(p, SynthOptions{Seed: 7, ReadRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(p, SynthOptions{Seed: 7, ReadRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, a), encode(t, b)) {
		t.Fatal("same profile + same seed produced different traces")
	}
	c, err := Synthesize(p, SynthOptions{Seed: 8, ReadRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encode(t, a), encode(t, c)) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestSynthesizeDeterministicAcrossWorkers regenerates the same seeded
// variants under a 1-worker and an 8-worker parsweep and requires
// byte-identical traces — synthesis must not depend on scheduling.
func TestSynthesizeDeterministicAcrossWorkers(t *testing.T) {
	p, err := Analyze(webTrace(), "web")
	if err != nil {
		t.Fatal(err)
	}
	gen := func(workers int) [][]byte {
		out, err := parsweep.Map(context.Background(), parsweep.Options{Workers: workers}, 8,
			func(i int) ([]byte, error) {
				tr, err := Synthesize(p, SynthOptions{Seed: uint64(i + 1), ReadRatio: -1})
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				if err := blktrace.Write(&buf, tr); err != nil {
					return nil, err
				}
				return buf.Bytes(), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := gen(1), gen(8)
	for i := range seq {
		if !bytes.Equal(seq[i], par[i]) {
			t.Fatalf("variant %d differs between 1-worker and 8-worker sweeps", i)
		}
	}
}

func TestSynthesizeTracksSource(t *testing.T) {
	src := webTrace()
	p, err := Analyze(src, "web")
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Synthesize(p, SynthOptions{Seed: 1, ReadRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Device != "derived-web" {
		t.Fatalf("device label %q", syn.Device)
	}
	ss, ys := blktrace.ComputeStats(src), blktrace.ComputeStats(syn)
	relErr := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(a), 1e-9) }
	if ys.Bunches != ss.Bunches {
		t.Fatalf("bunches %d vs %d", ys.Bunches, ss.Bunches)
	}
	// Quota sampling: IO count and mix track the source tightly.
	if relErr(float64(ss.IOs), float64(ys.IOs)) > 0.02 {
		t.Fatalf("IOs %d vs source %d", ys.IOs, ss.IOs)
	}
	if math.Abs(ss.ReadRatio-ys.ReadRatio) > 0.02 {
		t.Fatalf("read ratio %v vs %v", ys.ReadRatio, ss.ReadRatio)
	}
	if relErr(ss.AvgRequestBytes, ys.AvgRequestBytes) > 0.10 {
		t.Fatalf("mean request %v vs %v", ys.AvgRequestBytes, ss.AvgRequestBytes)
	}
	// The horizon is pinned by gap rescaling, so offered IOPS track.
	if relErr(ss.MeanIOPS, ys.MeanIOPS) > 0.05 {
		t.Fatalf("IOPS %v vs %v", ys.MeanIOPS, ss.MeanIOPS)
	}
	if math.Abs(ss.RandomRatio-ys.RandomRatio) > 0.15 {
		t.Fatalf("random ratio %v vs %v", ys.RandomRatio, ss.RandomRatio)
	}
}

func TestSynthesizePerturbations(t *testing.T) {
	p, err := Analyze(webTrace(), "web")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Synthesize(p, SynthOptions{Seed: 3, ReadRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	refStats := blktrace.ComputeStats(ref)

	// Doubling the load halves the horizon (same IO count).
	fast, err := Synthesize(p, SynthOptions{Seed: 3, LoadScale: 2, ReadRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	fs := blktrace.ComputeStats(fast)
	if ratio := fs.MeanIOPS / refStats.MeanIOPS; math.Abs(ratio-2) > 0.1 {
		t.Fatalf("load scale 2 changed IOPS by %vx", ratio)
	}

	// Overriding the mix lands exactly on the requested ratio.
	wr, err := Synthesize(p, SynthOptions{Seed: 3, ReadRatio: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if ws := blktrace.ComputeStats(wr); math.Abs(ws.ReadRatio-0.25) > 0.01 {
		t.Fatalf("read override: got ratio %v", ws.ReadRatio)
	}

	// Scaling the bunch count keeps per-bunch structure.
	short, err := Synthesize(p, SynthOptions{Seed: 3, Bunches: 100, ReadRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(short.Bunches); got != 100 {
		t.Fatalf("bunch override: got %d", got)
	}
}

func TestSynthesizeRejectsBadOptions(t *testing.T) {
	p, err := Analyze(fixedTrace(), "fix")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(p, SynthOptions{Bunches: -1}); err == nil {
		t.Fatal("negative bunches accepted")
	}
	if _, err := Synthesize(p, SynthOptions{LoadScale: -2}); err == nil {
		t.Fatal("negative load scale accepted")
	}
	if _, err := Synthesize(p, SynthOptions{ReadRatio: 2}); err == nil {
		t.Fatal("read ratio > 1 accepted")
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := Synthesize(p, SynthOptions{LoadScale: scale, ReadRatio: -1})
		if err == nil || !strings.Contains(err.Error(), "non-finite load scale") {
			t.Fatalf("load scale %v: err %v, want a non-finite load scale error", scale, err)
		}
	}
	if _, err := Synthesize(p, SynthOptions{ReadRatio: math.NaN()}); err == nil || !strings.Contains(err.Error(), "read ratio is NaN") {
		t.Fatalf("NaN read ratio: err %v", err)
	}
	if _, err := Synthesize(&Profile{}, SynthOptions{}); err == nil {
		t.Fatal("invalid profile accepted")
	}
	// More bunches than a .replay file holds, asked for or declared by
	// the profile, fail before anything is allocated.
	const over = "bunches exceed the 4294967295 a .replay file holds"
	if _, err := Synthesize(p, SynthOptions{Bunches: MaxBunches + 1, ReadRatio: -1}); err == nil || !strings.Contains(err.Error(), over) {
		t.Fatalf("MaxBunches+1 bunches: err %v", err)
	}
	huge := *p
	huge.Bunches = MaxBunches + 1
	if _, err := Synthesize(&huge, SynthOptions{ReadRatio: -1}); err == nil || !strings.Contains(err.Error(), over) {
		t.Fatalf("profile of MaxBunches+1 bunches: err %v", err)
	}
}

func TestDistributionQuotaDraw(t *testing.T) {
	d := NewDistribution([]int64{4096, 4096, 4096, 16384})
	rng := rand.New(rand.NewPCG(1, 2))
	got := d.Draw(400, rng)
	var small int
	for _, v := range got {
		if v == 4096 {
			small++
		}
	}
	// Largest-remainder quota: exactly 300 of 400 draws are 4096.
	if small != 300 {
		t.Fatalf("quota draw: %d/400 small values, want 300", small)
	}
}

func TestDistributionQuantileFallback(t *testing.T) {
	samples := make([]int64, 4000)
	rng := rand.New(rand.NewPCG(9, 9))
	for i := range samples {
		samples[i] = rng.Int64N(1 << 30)
	}
	d := NewDistribution(samples)
	if len(d.Quantiles) != quantilePoints || len(d.Values) != 0 {
		t.Fatalf("wide support must use quantiles: %d values %d quantiles", len(d.Values), len(d.Quantiles))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Sampled mean lands near the uniform mean.
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	if mean := sum / n; math.Abs(mean-float64(1<<29))/float64(1<<29) > 0.05 {
		t.Fatalf("quantile sampling mean %v", mean)
	}
}

func TestDistributionEmpty(t *testing.T) {
	var d Distribution
	if !d.Empty() {
		t.Fatalf("zero distribution: %+v", d)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	if got := d.Draw(5, rng); got != nil {
		t.Fatalf("draw from empty = %v", got)
	}
}
