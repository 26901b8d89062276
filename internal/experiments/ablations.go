package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/blktrace"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// Ablation experiments probe the design choices DESIGN.md calls out:
// uniform vs random bunch selection, the bunch-group size, and
// filter-based load control vs inter-arrival scaling.

// FilterComparison contrasts the paper's uniform filter with the
// rejected random filter on a bursty real-world-like trace.
type FilterComparison struct {
	// UniformShapeErr and RandomShapeErr measure workload-shape
	// distortion: mean absolute deviation of each 10-bunch group's
	// retained IO fraction from the configured proportion.
	UniformShapeErr, RandomShapeErr float64
	// UniformAccErr and RandomAccErr are throughput accuracy errors
	// measured by replay.
	UniformAccErr, RandomAccErr float64
	// Load is the configured proportion compared at.
	Load float64
}

// shapeError measures how unevenly a filtered trace draws from the
// original's bunch groups, weighted by IO count.
func shapeError(orig, filtered *blktrace.Trace, load float64, group int) float64 {
	counts := func(t *blktrace.Trace) map[int64]float64 {
		m := map[int64]float64{}
		for i, b := range t.Bunches {
			_ = i
			m[int64(b.Time/simtime.Duration(group)/simtime.Millisecond)] += float64(len(b.Packages))
		}
		return m
	}
	// Group by position in the original bunch sequence instead of by
	// time: build an index of time -> group.
	groupOf := map[simtime.Duration]int{}
	for i, b := range orig.Bunches {
		groupOf[b.Time] = i / group
	}
	origIOs := map[int]float64{}
	for i, b := range orig.Bunches {
		origIOs[i/group] += float64(len(b.Packages))
	}
	filtIOs := map[int]float64{}
	for _, b := range filtered.Bunches {
		filtIOs[groupOf[b.Time]] += float64(len(b.Packages))
	}
	_ = counts
	var dev float64
	var n int
	for g, total := range origIOs {
		if total == 0 {
			continue
		}
		dev += math.Abs(filtIOs[g]/total - load)
		n++
	}
	if n == 0 {
		return 0
	}
	return dev / float64(n)
}

// CompareFilters runs the uniform-vs-random ablation at the given load
// on a bursty web-server-like trace.
func CompareFilters(cfg Config, load float64) (*FilterComparison, error) {
	cfg = cfg.normalize()
	wp := synth.DefaultWebServer()
	wp.Seed = cfg.Seed
	trace := synth.WebServerTrace(wp)

	uniform := replay.UniformFilter{Proportion: load}
	random := replay.RandomFilter{Proportion: load, Seed: cfg.Seed}

	res := &FilterComparison{Load: load}
	res.UniformShapeErr = shapeError(trace, uniform.Apply(trace), load, replay.DefaultGroupSize)
	res.RandomShapeErr = shapeError(trace, random.Apply(trace), load, replay.DefaultGroupSize)

	// The three replays (full-load reference, uniform, random) are
	// independent cells on fresh arrays.
	filters := []replay.Filter{replay.UniformFilter{Proportion: 1.0}, uniform, random}
	ms, err := pmap(cfg, len(filters),
		func(i int) string { return filters[i].Name() },
		func(i int) (*Measurement, error) { return measureReplay(cfg, HDDArray, trace, filters[i]) })
	if err != nil {
		return nil, err
	}
	full, mu, mr := ms[0], ms[1], ms[2]
	res.UniformAccErr = metrics.ErrorRate(metrics.Accuracy(metrics.LoadProportion(full.Result.IOPS, mu.Result.IOPS), load))
	res.RandomAccErr = metrics.ErrorRate(metrics.Accuracy(metrics.LoadProportion(full.Result.IOPS, mr.Result.IOPS), load))
	return res, nil
}

// RenderFilterComparison prints the ablation.
func RenderFilterComparison(w io.Writer, r *FilterComparison) {
	fmt.Fprintf(w, "Ablation — uniform vs random bunch selection at load %.0f%%\n", r.Load*100)
	fmt.Fprintf(w, "shape distortion: uniform %.4f, random %.4f\n", r.UniformShapeErr, r.RandomShapeErr)
	fmt.Fprintf(w, "throughput accuracy error: uniform %.4f, random %.4f\n", r.UniformAccErr, r.RandomAccErr)
}

// GroupSizeResult sweeps the bunch-group size G.
type GroupSizeResult struct {
	Load float64
	Rows []GroupSizeRow
}

// GroupSizeRow is one group size's worst accuracy error over the loads.
type GroupSizeRow struct {
	GroupSize int
	MaxErr    float64
}

// GroupSizeSweep measures load-control accuracy for G in {5, 10, 20}
// (the paper fixes G=10).
func GroupSizeSweep(cfg Config) (*GroupSizeResult, error) {
	cfg = cfg.normalize()
	mode := synth.Mode{RequestBytes: 4096, ReadRatio: 0, RandomRatio: 0.5}
	trace, err := collectTrace(cfg, HDDArray, mode)
	if err != nil {
		return nil, err
	}
	// Flatten the full-load reference plus the (G, load) grid into one
	// cell list: cell 0 is the reference, the rest are grid cells.
	groups := []int{5, 10, 20}
	loads := []float64{0.2, 0.4, 0.6, 0.8}
	nLoads := len(loads)
	filters := make([]replay.UniformFilter, 0, 1+len(groups)*nLoads)
	filters = append(filters, replay.UniformFilter{Proportion: 1.0})
	for _, g := range groups {
		for _, load := range loads {
			filters = append(filters, replay.UniformFilter{Proportion: load, GroupSize: g})
		}
	}
	ms, err := pmap(cfg, len(filters),
		func(i int) string { return fmt.Sprintf("G=%d %s", filters[i].GroupSize, filters[i].Name()) },
		func(i int) (*Measurement, error) { return measureReplay(cfg, HDDArray, trace, filters[i]) })
	if err != nil {
		return nil, err
	}
	full, grid := ms[0], ms[1:]
	res := &GroupSizeResult{}
	for gi, g := range groups {
		var maxErr float64
		for li, load := range loads {
			m := grid[gi*nLoads+li]
			e := metrics.ErrorRate(metrics.Accuracy(metrics.LoadProportion(full.Result.IOPS, m.Result.IOPS), load))
			if e > maxErr {
				maxErr = e
			}
		}
		res.Rows = append(res.Rows, GroupSizeRow{GroupSize: g, MaxErr: maxErr})
	}
	return res, nil
}

// RenderGroupSizeSweep prints the sweep.
func RenderGroupSizeSweep(w io.Writer, r *GroupSizeResult) {
	fmt.Fprintln(w, "Ablation — bunch-group size")
	fmt.Fprintln(w, "G\tmax accuracy error")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d\t%.4f\n", row.GroupSize, row.MaxErr)
	}
}

// ScalerComparison contrasts the two load-control mechanisms the tool
// offers: the proportional filter (drops bunches, keeps timeline) and
// the interval scaler (keeps bunches, stretches timeline).
type ScalerComparison struct {
	Load float64
	// FilterIOPS and ScalerIOPS are absolute throughputs when targeting
	// the same relative intensity.
	FilterIOPS, ScalerIOPS float64
	// FilterIOs and ScalerIOs show the mechanism difference: the filter
	// replays a subset, the scaler replays everything.
	FilterIOs, ScalerIOs int64
	// FilterLP and ScalerLP are the measured intensity proportions.
	FilterLP, ScalerLP float64
}

// CompareScaler runs both mechanisms at the same target intensity.
func CompareScaler(cfg Config, load float64) (*ScalerComparison, error) {
	cfg = cfg.normalize()
	mode := synth.Mode{RequestBytes: 4096, ReadRatio: 0.5, RandomRatio: 0.5}
	trace, err := collectTrace(cfg, HDDArray, mode)
	if err != nil {
		return nil, err
	}
	filters := []replay.Filter{
		replay.UniformFilter{Proportion: 1.0},
		replay.UniformFilter{Proportion: load},
		replay.IntervalScaler{Intensity: load},
	}
	ms, err := pmap(cfg, len(filters),
		func(i int) string { return filters[i].Name() },
		func(i int) (*Measurement, error) { return measureReplay(cfg, HDDArray, trace, filters[i]) })
	if err != nil {
		return nil, err
	}
	full, mf, msc := ms[0], ms[1], ms[2]
	return &ScalerComparison{
		Load:       load,
		FilterIOPS: mf.Result.IOPS,
		ScalerIOPS: msc.Result.IOPS,
		FilterIOs:  mf.Result.Completed,
		ScalerIOs:  msc.Result.Completed,
		FilterLP:   metrics.LoadProportion(full.Result.IOPS, mf.Result.IOPS),
		ScalerLP:   metrics.LoadProportion(full.Result.IOPS, msc.Result.IOPS),
	}, nil
}

// RenderScalerComparison prints the comparison.
func RenderScalerComparison(w io.Writer, r *ScalerComparison) {
	fmt.Fprintf(w, "Ablation — proportional filter vs interval scaler at %.0f%% intensity\n", r.Load*100)
	fmt.Fprintf(w, "filter: %.1f IOPS over %d IOs (LP %.3f)\n", r.FilterIOPS, r.FilterIOs, r.FilterLP)
	fmt.Fprintf(w, "scaler: %.1f IOPS over %d IOs (LP %.3f)\n", r.ScalerIOPS, r.ScalerIOs, r.ScalerLP)
}

// WritePathResult probes the RAID-5 write paths: request sizes below a
// full stripe pay read-modify-write, full-stripe writes do not.
type WritePathResult struct {
	Rows []WritePathRow
}

// WritePathRow is one request size's write-path split and efficiency.
type WritePathRow struct {
	RequestBytes     int64
	FullStripeFrac   float64
	DiskWritesPerReq float64
	Eff              metrics.Efficiency
}

// WritePathStudy sweeps sequential write request sizes across the
// stripe boundary (strip 128 KB x 5 data disks = 640 KB full stripe).
func WritePathStudy(cfg Config) (*WritePathResult, error) {
	cfg = cfg.normalize()
	sizes := []int64{4 << 10, 128 << 10, 640 << 10}
	rows, err := pmap(cfg, len(sizes),
		func(i int) string { return sizeLabel(sizes[i]) },
		func(i int) (WritePathRow, error) {
			size := sizes[i]
			mode := synth.Mode{RequestBytes: size, ReadRatio: 0, RandomRatio: 0}
			trace, err := collectTrace(cfg, HDDArray, mode)
			if err != nil {
				return WritePathRow{}, err
			}
			s, err := Build(cfg, StackSpec{Kind: HDDArray})
			if err != nil {
				return WritePathRow{}, err
			}
			a := s.Array
			r, err := replay.Replay(s.Engine, a, trace, replay.Options{})
			if err != nil {
				return WritePathRow{}, err
			}
			st := a.Stats()
			total := st.FullStripeWrites + st.RMWStripes
			row := WritePathRow{RequestBytes: size}
			if total > 0 {
				row.FullStripeFrac = float64(st.FullStripeWrites) / float64(total)
			}
			if st.Writes > 0 {
				row.DiskWritesPerReq = float64(st.DiskWrites) / float64(st.Writes)
			}
			row.Eff = metrics.NewEfficiency(r.IOPS, r.MBPS, a.PowerSource().MeanWatts(r.Start, r.End), 0)
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	return &WritePathResult{Rows: rows}, nil
}

// RenderWritePathStudy prints the study.
func RenderWritePathStudy(w io.Writer, r *WritePathResult) {
	fmt.Fprintln(w, "Ablation — RAID-5 write paths (sequential writes)")
	fmt.Fprintln(w, "req size\tfull-stripe%\tdisk-writes/req\tMBPS/kW")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%.0f%%\t%.2f\t%.2f\n",
			sizeLabel(row.RequestBytes), row.FullStripeFrac*100, row.DiskWritesPerReq, row.Eff.MBPSPerKW)
	}
}
