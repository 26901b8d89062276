package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/powersim"
)

// The experiment tests assert the *shapes* the paper reports, not
// absolute watts: who wins, what is monotone, where curves flatten.

func TestFig7ShapeMatchesPaper(t *testing.T) {
	r, err := Fig7(DefaultConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.ChassisWatts <= 0 {
		t.Fatal("chassis power must be positive")
	}
	// Linearity: per-disk increments agree within meter noise.
	for i := 2; i < len(r.Rows); i++ {
		inc := r.Rows[i].Watts - r.Rows[i-1].Watts
		if !powersim.ApproxEqual(inc, r.PerDiskWatts, 0.05) {
			t.Fatalf("non-linear increment at %d disks: %.2f vs %.2f", i, inc, r.PerDiskWatts)
		}
	}
	// Paper: disks dominate beyond three disks.
	if r.DisksDominateAt != 3 {
		t.Fatalf("disks dominate at %d, want 3", r.DisksDominateAt)
	}
	var buf bytes.Buffer
	RenderFig7(&buf, r)
	if !strings.Contains(buf.String(), "Fig. 7") {
		t.Fatal("render missing header")
	}
}

func TestFig8AccuracyHigh(t *testing.T) {
	r, err := Fig8(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Paper reports <0.5% error on 2-minute traces; our scaled-down 2 s
	// collection still keeps the error small.
	if r.MaxError > 0.03 {
		t.Fatalf("max load-control error %.4f, want < 3%%", r.MaxError)
	}
	// Throughput must rise monotonically with configured load.
	var iops []float64
	for _, row := range r.Rows {
		iops = append(iops, row.IOPS)
		if row.AccuracyIOPS < 0.95 || row.AccuracyIOPS > 1.05 {
			t.Fatalf("accuracy out of band at %.0f%%: %v", row.ConfiguredLoad*100, row.AccuracyIOPS)
		}
	}
	if !metrics.Monotone(iops, +1, 0.01) {
		t.Fatalf("IOPS not monotone in load: %v", iops)
	}
	var buf bytes.Buffer
	RenderFig8(&buf, r)
	if !strings.Contains(buf.String(), "max error") {
		t.Fatal("render incomplete")
	}
}

func TestFig9EfficiencyLinearInLoad(t *testing.T) {
	r, err := Fig9(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	loads := DefaultConfig().Loads
	for _, s := range r.SubA {
		var eff []float64
		for _, m := range s.Points {
			eff = append(eff, m.Eff.IOPSPerWatt)
		}
		if !metrics.Monotone(eff, +1, 0.02) {
			t.Fatalf("%s: efficiency not increasing with load: %v", s.Label, eff)
		}
		corr, err := Pearson(loads, eff)
		if err != nil || corr < 0.99 {
			t.Fatalf("%s: efficiency-load correlation %.4f (%v), want ~linear", s.Label, corr, err)
		}
	}
	// Small requests earn more IOPS/Watt than large ones (paper's second
	// observation in VI-C): compare at full load.
	last := func(s Fig9Series) float64 { return s.Points[len(s.Points)-1].Eff.IOPSPerWatt }
	for i := 1; i < len(r.SubA); i++ {
		if last(r.SubA[i]) >= last(r.SubA[i-1]) {
			t.Fatalf("IOPS/Watt ordering violated: %s (%.3f) >= %s (%.3f)",
				r.SubA[i].Label, last(r.SubA[i]), r.SubA[i-1].Label, last(r.SubA[i-1]))
		}
	}
	for _, s := range r.SubB {
		var eff []float64
		for _, m := range s.Points {
			eff = append(eff, m.Eff.MBPSPerKW)
		}
		if !metrics.Monotone(eff, +1, 0.02) {
			t.Fatalf("SubB %s: MBPS/kW not increasing with load", s.Label)
		}
	}
}

func TestFig10EfficiencyFallsWithRandomRatio(t *testing.T) {
	r, err := Fig10(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, series []Fig10Series, pick func(Measurement) float64) {
		for _, s := range series {
			var eff []float64
			for _, p := range s.Points {
				eff = append(eff, pick(p.Meas))
			}
			if !metrics.Monotone(eff, -1, 0.03) {
				t.Fatalf("%s %s: efficiency not decreasing with random ratio: %v", name, s.Label, eff)
			}
			// Flattening beyond ~30% (paper VI-D): the per-unit slope in
			// [0, 0.3] must exceed the per-unit slope in [0.3, 1.0].
			// Points: 0, 0.1, 0.3, 0.5, 0.75, 1.0 -> index 2 is 0.3.
			early := (eff[0] - eff[2]) / 0.3
			late := (eff[2] - eff[len(eff)-1]) / 0.7
			if early <= late {
				t.Fatalf("%s %s: no flattening: early slope %.3f <= late %.3f", name, s.Label, early, late)
			}
		}
	}
	check("10a", r.SubA, func(m Measurement) float64 { return m.Eff.MBPSPerKW })
	check("10b", r.SubB, func(m Measurement) float64 { return m.Eff.IOPSPerWatt })
}

func TestFig11ReadRatioShapes(t *testing.T) {
	r, err := Fig11(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("series = %d", len(r.Series))
	}
	effOf := func(s Fig11Series) []float64 {
		var eff []float64
		for _, p := range s.Points {
			eff = append(eff, p.Meas.Eff.MBPSPerKW)
		}
		return eff
	}
	seq := effOf(r.Series[0])     // random 0%
	rand100 := effOf(r.Series[2]) // random 100%
	// Sequential workloads dip for mixed read/write ratios: the curve
	// must be U-shaped (paper VI-E).
	if !UShaped(seq, 0.05) {
		t.Fatalf("random-0%% curve not U-shaped: %v", seq)
	}
	// Read ratio matters far more at random 0% than at random 100%
	// (paper: "not very sensitive" at 50%/100%); compare dynamic range.
	sens := func(eff []float64) float64 {
		s := Summarize(eff)
		return s.Max / s.Min
	}
	if sens(seq) < 2*sens(rand100) {
		t.Fatalf("sensitivity contrast missing: seq %.2fx vs rand100 %.2fx", sens(seq), sens(rand100))
	}
}

func TestFig12ShapeSurvivesFiltering(t *testing.T) {
	r, err := Fig12(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 5 {
		t.Fatalf("series = %d", len(r.Series))
	}
	// Totals must scale roughly with the configured load.
	full := r.Series[len(r.Series)-1]
	for _, s := range r.Series {
		lp := s.Total.Result.IOPS / full.Total.Result.IOPS
		if math.Abs(lp-s.Load) > 0.08 {
			t.Fatalf("load %.0f%%: measured proportion %.3f", s.Load*100, lp)
		}
	}
	// The workload's temporal shape must survive: bucketed timelines at
	// 20% and 100% load must correlate strongly.
	bucket := func(s Fig12Series) []float64 {
		var out []float64
		for i := 0; i+10 <= len(s.Intervals); i += 10 {
			var sum float64
			for j := i; j < i+10; j++ {
				sum += s.Intervals[j].IOPS
			}
			out = append(out, sum/10)
		}
		return out
	}
	b20, b100 := bucket(r.Series[0]), bucket(full)
	n := len(b20)
	if len(b100) < n {
		n = len(b100)
	}
	if n < 5 {
		t.Fatalf("too few buckets: %d", n)
	}
	corr, err := Pearson(b20[:n], b100[:n])
	if err != nil {
		t.Fatal(err)
	}
	if corr < 0.8 {
		t.Fatalf("timeline correlation %.3f: filtering distorted the workload shape", corr)
	}
}

func TestTableIVWebAccuracy(t *testing.T) {
	r, err := TableIV(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: maximum error around 7% for the web trace.
	if r.MaxErrIOPS > 0.12 || r.MaxErrMBPS > 0.15 {
		t.Fatalf("web accuracy errors too large: IOPS %.4f MBPS %.4f", r.MaxErrIOPS, r.MaxErrMBPS)
	}
	if len(r.MeasuredIOPS) != 10 {
		t.Fatalf("rows = %d", len(r.MeasuredIOPS))
	}
	// 100% row is exact by construction.
	if math.Abs(r.MeasuredIOPS[9]-100) > 1e-9 {
		t.Fatalf("100%% row = %v", r.MeasuredIOPS[9])
	}
	var buf bytes.Buffer
	RenderAccuracyTable(&buf, r)
	if !strings.Contains(buf.String(), "web-o4") {
		t.Fatal("render incomplete")
	}
}

func TestTableVCelloAccuracyLooserThanFixedSize(t *testing.T) {
	cfg := DefaultConfig()
	cello, err := TableV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cello's uneven request sizes make MBPS control looser than the
	// fixed-size synthetic trace (paper Section VI-F), but it must stay
	// sane.
	if cello.MaxErrMBPS <= fixed.MaxError {
		t.Fatalf("cello MBPS error %.4f should exceed fixed-size error %.4f", cello.MaxErrMBPS, fixed.MaxError)
	}
	// The paper's own Table V shows a 32% error at the 10% load level;
	// bound the worst case loosely and the mid-to-high loads tighter.
	if cello.MaxErrMBPS > 0.5 {
		t.Fatalf("cello MBPS error %.4f implausibly large", cello.MaxErrMBPS)
	}
	for i, load := range cello.Configured {
		if load >= 0.5 {
			if e := math.Abs(cello.AccMBPS[i] - 1); e > 0.2 {
				t.Fatalf("cello error %.4f at load %.0f%% too large", e, load*100)
			}
		}
	}
}

func TestTableIIIMatchesPublishedStats(t *testing.T) {
	r, err := TableIII(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Stats.ReadRatio-r.PublishedReadRatio) > 0.03 {
		t.Fatalf("read ratio %.4f vs published %.4f", r.Stats.ReadRatio, r.PublishedReadRatio)
	}
	meanKB := r.Stats.AvgRequestBytes / 1024
	if meanKB < r.PublishedMeanReqKB*0.6 || meanKB > r.PublishedMeanReqKB*1.4 {
		t.Fatalf("mean request %.1f KB vs published %.1f KB", meanKB, r.PublishedMeanReqKB)
	}
	var buf bytes.Buffer
	RenderTableIII(&buf, r)
	if !strings.Contains(buf.String(), "Table III") {
		t.Fatal("render incomplete")
	}
}

func TestSSDStudyMatchesPaper(t *testing.T) {
	r, err := SSDStudy(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: SSD array idle = 195.8 W.
	if !powersim.ApproxEqual(r.IdleWatts, 195.8, 0.02) {
		t.Fatalf("SSD idle power %.1f W, want ~195.8", r.IdleWatts)
	}
	// High random ratio -> lower efficiency (paper VI-G), though far
	// gentler than on HDDs.
	var eff []float64
	for _, p := range r.RandomSweep {
		eff = append(eff, p.Meas.Eff.IOPSPerWatt)
	}
	if !metrics.Monotone(eff, -1, 0.05) {
		t.Fatalf("SSD efficiency not decreasing with random ratio: %v", eff)
	}
	// SSD array beats the HDD array on random workloads.
	for _, row := range r.HDDvsSSD {
		if row.Mode.RandomRatio == 1 && row.SSD.Eff.IOPSPerWatt <= row.HDD.Eff.IOPSPerWatt {
			t.Fatalf("SSD (%.3f IOPS/W) should beat HDD (%.3f) on %s",
				row.SSD.Eff.IOPSPerWatt, row.HDD.Eff.IOPSPerWatt, row.Mode)
		}
	}
	var buf bytes.Buffer
	RenderSSDStudy(&buf, r)
	if !strings.Contains(buf.String(), "195.8") {
		t.Fatal("render incomplete")
	}
}

func TestCompareFiltersUniformWins(t *testing.T) {
	r, err := CompareFilters(DefaultConfig(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's rationale for uniform selection: random selection
	// distorts the workload's crests and troughs.
	if r.UniformShapeErr >= r.RandomShapeErr {
		t.Fatalf("uniform shape error %.4f should beat random %.4f", r.UniformShapeErr, r.RandomShapeErr)
	}
	var buf bytes.Buffer
	RenderFilterComparison(&buf, r)
	if !strings.Contains(buf.String(), "uniform") {
		t.Fatal("render incomplete")
	}
}

func TestGroupSizeSweepAccurateEverywhere(t *testing.T) {
	r, err := GroupSizeSweep(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MaxErr > 0.05 {
			t.Fatalf("G=%d: error %.4f too large", row.GroupSize, row.MaxErr)
		}
	}
	var buf bytes.Buffer
	RenderGroupSizeSweep(&buf, r)
	if buf.Len() == 0 {
		t.Fatal("render empty")
	}
}

func TestCompareScalerBothHitTarget(t *testing.T) {
	r, err := CompareScaler(DefaultConfig(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.FilterLP-0.5) > 0.05 {
		t.Fatalf("filter LP %.3f", r.FilterLP)
	}
	if math.Abs(r.ScalerLP-0.5) > 0.05 {
		t.Fatalf("scaler LP %.3f", r.ScalerLP)
	}
	// Mechanism difference: the filter replays ~half the IOs, the
	// scaler replays all of them over twice the time.
	if r.ScalerIOs <= r.FilterIOs {
		t.Fatalf("scaler should replay more IOs: %d vs %d", r.ScalerIOs, r.FilterIOs)
	}
	var buf bytes.Buffer
	RenderScalerComparison(&buf, r)
	if buf.Len() == 0 {
		t.Fatal("render empty")
	}
}

func TestWritePathStudy(t *testing.T) {
	r, err := WritePathStudy(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// 4KB sequential writes never fill a stripe; 640KB aligned writes
	// mostly do.
	if r.Rows[0].FullStripeFrac > 0.01 {
		t.Fatalf("4KB writes full-stripe frac %.2f", r.Rows[0].FullStripeFrac)
	}
	if r.Rows[2].FullStripeFrac < 0.5 {
		t.Fatalf("640KB writes full-stripe frac %.2f, want most", r.Rows[2].FullStripeFrac)
	}
	var buf bytes.Buffer
	RenderWritePathStudy(&buf, r)
	if buf.Len() == 0 {
		t.Fatal("render empty")
	}
}

func TestRenderFig9to12Smoke(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CollectDuration /= 2
	f9, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f10, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f11, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f12, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig9(&buf, f9)
	RenderFig10(&buf, f10)
	RenderFig11(&buf, f11)
	RenderFig12(&buf, f12)
	for _, want := range []string{"Fig. 9a", "Fig. 10b", "Fig. 11", "Fig. 12"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %s", want)
		}
	}
}

func TestArrayKindString(t *testing.T) {
	if HDDArray.String() != "raid5-hdd" || SSDArray.String() != "raid5-ssd" {
		t.Fatal("kind names wrong")
	}
}

func TestConfigNormalize(t *testing.T) {
	var zero Config
	n := zero.normalize()
	d := DefaultConfig()
	if n.CollectDuration != d.CollectDuration || n.HDDs != d.HDDs || len(n.Loads) != len(d.Loads) {
		t.Fatalf("normalize: %+v", n)
	}
	custom := Config{HDDs: 4}
	if custom.normalize().HDDs != 4 {
		t.Fatal("normalize clobbered explicit field")
	}
}
