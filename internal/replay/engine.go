package replay

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/blktrace"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Options tune a replay run.
type Options struct {
	// SamplingCycle is the reporting interval for per-interval
	// throughput (paper default: 1 second, configurable).
	SamplingCycle simtime.Duration
	// Tail bounds how long the engine waits after the last bunch for
	// outstanding completions; zero waits indefinitely (until the
	// simulation drains, which always terminates for the device models
	// in this repository).
	Tail simtime.Duration
	// Observer, when non-nil, receives every issue and completion as it
	// happens.  The conformance layer (internal/check) uses it to
	// assert causality and per-device FIFO ordering without adding any
	// cost to unobserved runs.
	Observer Observer
	// Telemetry, when non-nil, records issue/complete counts, response
	// latency, in-flight depth and filter pass/drop into a telemetry
	// set.  It rides its own field rather than Observer because the
	// conformance checker owns (and overwrites) Observer; a nil probe
	// costs one pointer compare per call and never allocates.
	Telemetry *telemetry.ReplayProbe
}

// Observer receives per-IO notifications from a replay run.  bunch is
// the index of the originating bunch in the (possibly filtered) trace;
// pkg is the package's index within that bunch.  Completion callbacks
// fire from inside the simulation, so implementations must not block.
type Observer interface {
	ObserveIssue(bunch, pkg int, at simtime.Time)
	ObserveComplete(bunch, pkg int, issued, finished simtime.Time)
}

// Interval is one sampling cycle's throughput record, matching the
// per-interval IOPS/MBPS TRACER's GUI plots during a run (Fig. 12).
type Interval struct {
	// Start and End bound the cycle.
	Start, End simtime.Time
	// IOs and Bytes count completions inside the cycle.
	IOs   int64
	Bytes int64
	// IOPS and MBPS are the cycle's throughput.
	IOPS, MBPS float64
	// MeanResponse averages response time of the IOs completing in the
	// cycle; zero when none completed.
	MeanResponse simtime.Duration
}

// Result summarises one replay run.
type Result struct {
	// Trace identifies the replayed (possibly filtered) trace.
	Trace string
	// Filter names the load-control filter used.
	Filter string
	// Start and End bound the run on the virtual clock.
	Start, End simtime.Time
	// Issued and Completed count IOs; they are equal after a clean run.
	Issued, Completed int64
	// Bytes is the payload volume replayed.
	Bytes int64
	// IOPS and MBPS are throughput over the whole run.
	IOPS, MBPS float64
	// MeanResponse and MaxResponse aggregate per-IO response times.
	MeanResponse, MaxResponse simtime.Duration
	// P50, P95 and P99 are response-time percentiles: tail latency is
	// the cost dimension energy-conservation techniques trade against
	// savings, so the tool reports it directly.
	P50Response, P95Response, P99Response simtime.Duration
	// Intervals hold the per-cycle series.
	Intervals []Interval
}

// Duration reports the run length.
func (r *Result) Duration() simtime.Duration { return r.End.Sub(r.Start) }

// Replay replays the trace against dev on engine, issuing each bunch at
// its original timestamp (offset from the current virtual time) and all
// packages of a bunch concurrently.  It runs the simulation to
// completion and returns the measured throughput.
//
// Replay is open-loop, as the paper's tool is: bunch issue times come
// from the trace, not from completions, so an overloaded device simply
// accumulates queueing — visible as growing response times.
func Replay(engine *simtime.Engine, dev storage.Device, trace *blktrace.Trace, opts Options) (*Result, error) {
	if err := trace.Validate(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	cycle := opts.SamplingCycle
	if cycle <= 0 {
		cycle = simtime.Second
	}
	start := engine.Now()
	res := &Result{Trace: trace.Device, Start: start}
	// One run handler serves every bunch-issue event, carrying the bunch
	// index in the event argument: no closure per bunch, and the engine
	// heap is grown once so bulk scheduling never pays an append growth.
	// The completion slice is the hottest remaining allocation of a
	// replay run: one record per IO package, appended from the tightest
	// callback.  The trace knows its package count up front, so reserve
	// it all.
	run := &openLoopRun{
		dev:         dev,
		trace:       trace,
		res:         res,
		obs:         opts.Observer,
		tel:         opts.Telemetry,
		completions: make([]completion, 0, trace.NumIOs()),
	}
	engine.Grow(len(trace.Bunches))
	for i := range trace.Bunches {
		engine.ScheduleEvent(start.Add(trace.Bunches[i].Time), run, simtime.EventArg{I64: int64(i)})
	}
	if opts.Tail > 0 {
		engine.RunUntil(start.Add(trace.Duration() + opts.Tail))
	} else {
		engine.Run()
	}

	finalize(res, run.completions, start.Add(trace.Duration()), cycle)
	return res, nil
}

// openLoopRun is the closure-free bunch-issue handler for one Replay
// call: OnEvent fires at a bunch's arrival time and submits all of its
// packages concurrently.
type openLoopRun struct {
	dev         storage.Device
	trace       *blktrace.Trace
	res         *Result
	obs         Observer
	tel         *telemetry.ReplayProbe
	completions []completion
}

// OnEvent implements simtime.Handler; arg.I64 is the bunch index.
func (r *openLoopRun) OnEvent(e *simtime.Engine, arg simtime.EventArg) {
	issueTime := e.Now()
	bunch := int(arg.I64)
	for pi, p := range r.trace.Bunches[arg.I64].Packages {
		size := p.Size
		r.res.Issued++
		if r.obs != nil {
			r.obs.ObserveIssue(bunch, pi, issueTime)
		}
		r.tel.OnIssue(bunch, pi, issueTime)
		pkg := pi
		r.dev.Submit(p.Request(), func(finish simtime.Time) {
			r.res.Completed++
			if r.obs != nil {
				r.obs.ObserveComplete(bunch, pkg, issueTime, finish)
			}
			r.tel.OnComplete(bunch, pkg, issueTime, finish, size)
			r.completions = append(r.completions, completion{
				finish:   finish,
				issue:    issueTime,
				bytes:    size,
				response: finish.Sub(issueTime),
			})
		})
	}
}

// completion records one finished IO for aggregation.
type completion struct {
	finish   simtime.Time
	issue    simtime.Time
	bytes    int64
	response simtime.Duration
}

// finalize derives throughput, response statistics and the per-cycle
// interval series from raw completions.  minEnd extends the run window
// (open-loop replay measures over at least the trace duration even if
// the device finished early).  finalize takes ownership of the
// completions slice and may reorder it.
func finalize(res *Result, completions []completion, minEnd simtime.Time, cycle simtime.Duration) {
	end := minEnd
	var respSum simtime.Duration
	for _, c := range completions {
		if c.finish > end {
			end = c.finish
		}
		res.Bytes += c.bytes
		respSum += c.response
		if c.response > res.MaxResponse {
			res.MaxResponse = c.response
		}
	}
	res.End = end

	// Per-cycle series, bucketing completions by finish time.  Bucket
	// sums are order-independent, so this runs before the percentile
	// sort reorders the slice.
	start := res.Start
	if res.Duration() > 0 {
		nBuckets := int((res.Duration() + cycle - 1) / cycle)
		type agg struct {
			ios, bytes int64
			resp       simtime.Duration
		}
		buckets := make([]agg, nBuckets)
		res.Intervals = make([]Interval, 0, nBuckets)
		for _, c := range completions {
			i := int(c.finish.Sub(start) / cycle)
			if i < 0 {
				// A completion can finish before res.Start when the
				// caller's engine clock ran ahead of the replay start;
				// clamp symmetrically with the upper bound.
				i = 0
			}
			if i >= nBuckets {
				i = nBuckets - 1
			}
			buckets[i].ios++
			buckets[i].bytes += c.bytes
			buckets[i].resp += c.response
		}
		for i, b := range buckets {
			ivStart := start.Add(simtime.Duration(i) * cycle)
			ivEnd := ivStart.Add(cycle)
			if ivEnd > res.End {
				ivEnd = res.End
			}
			secs := ivEnd.Sub(ivStart).Seconds()
			iv := Interval{Start: ivStart, End: ivEnd, IOs: b.ios, Bytes: b.bytes}
			if secs > 0 {
				iv.IOPS = float64(b.ios) / secs
				iv.MBPS = float64(b.bytes) / (1 << 20) / secs
			}
			if b.ios > 0 {
				iv.MeanResponse = b.resp / simtime.Duration(b.ios)
			}
			res.Intervals = append(res.Intervals, iv)
		}
	}

	if res.Completed > 0 {
		res.MeanResponse = respSum / simtime.Duration(res.Completed)
		// Sort the completions themselves by response time instead of
		// copying responses into a scratch slice: the records are not
		// needed in finish order past this point, so the percentile
		// pass allocates nothing.
		slices.SortFunc(completions, func(a, b completion) int {
			return cmp.Compare(a.response, b.response)
		})
		res.P50Response = metrics.NearestRank(completions, 0.50).response
		res.P95Response = metrics.NearestRank(completions, 0.95).response
		res.P99Response = metrics.NearestRank(completions, 0.99).response
	}
	if secs := res.Duration().Seconds(); secs > 0 {
		res.IOPS = float64(res.Completed) / secs
		res.MBPS = float64(res.Bytes) / (1 << 20) / secs
	}
}

// ReplayClosedLoop replays the trace's requests in order while ignoring
// their timestamps, keeping queueDepth requests outstanding — the
// "reduce idle periods to raise intensity" mode Section IV-A motivates,
// taken to its as-fast-as-possible limit.  It measures the device's
// peak capability under the trace's exact access pattern.
func ReplayClosedLoop(engine *simtime.Engine, dev storage.Device, trace *blktrace.Trace, queueDepth int, opts Options) (*Result, error) {
	if err := trace.Validate(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if queueDepth <= 0 {
		queueDepth = 8
	}
	cycle := opts.SamplingCycle
	if cycle <= 0 {
		cycle = simtime.Second
	}
	start := engine.Now()
	res := &Result{Trace: trace.Device, Start: start, Filter: "closed-loop"}
	nIOs := trace.NumIOs()
	completions := make([]completion, 0, nIOs)

	// Flatten to a request list preserving trace order, remembering each
	// package's (bunch, pkg) origin for the observer.
	type flatPkg struct {
		p          blktrace.IOPackage
		bunch, pkg int
	}
	pkgs := make([]flatPkg, 0, nIOs)
	for i := range trace.Bunches {
		for pi, p := range trace.Bunches[i].Packages {
			pkgs = append(pkgs, flatPkg{p: p, bunch: i, pkg: pi})
		}
	}
	next := 0
	var issue func()
	issue = func() {
		if next >= len(pkgs) {
			return
		}
		fp := pkgs[next]
		next++
		res.Issued++
		issueTime := engine.Now()
		if opts.Observer != nil {
			opts.Observer.ObserveIssue(fp.bunch, fp.pkg, issueTime)
		}
		opts.Telemetry.OnIssue(fp.bunch, fp.pkg, issueTime)
		dev.Submit(fp.p.Request(), func(finish simtime.Time) {
			res.Completed++
			if opts.Observer != nil {
				opts.Observer.ObserveComplete(fp.bunch, fp.pkg, issueTime, finish)
			}
			opts.Telemetry.OnComplete(fp.bunch, fp.pkg, issueTime, finish, fp.p.Size)
			completions = append(completions, completion{
				finish:   finish,
				issue:    issueTime,
				bytes:    fp.p.Size,
				response: finish.Sub(issueTime),
			})
			issue()
		})
	}
	for i := 0; i < queueDepth && i < len(pkgs); i++ {
		issue()
	}
	engine.Run()
	finalize(res, completions, start, cycle)
	return res, nil
}

// ReplayFiltered applies the filter and replays the result, stamping
// the filter name into the Result.
func ReplayFiltered(engine *simtime.Engine, dev storage.Device, trace *blktrace.Trace, f Filter, opts Options) (*Result, error) {
	filtered := f.Apply(trace)
	opts.Telemetry.OnFilter(filtered.NumIOs(), trace.NumIOs()-filtered.NumIOs())
	res, err := Replay(engine, dev, filtered, opts)
	if err != nil {
		return nil, err
	}
	res.Filter = f.Name()
	return res, nil
}

// ReplayAtLoad is the common case: replay at a configured load
// proportion using the paper's uniform filter with the default group
// size.
func ReplayAtLoad(engine *simtime.Engine, dev storage.Device, trace *blktrace.Trace, proportion float64, opts Options) (*Result, error) {
	return ReplayFiltered(engine, dev, trace, UniformFilter{Proportion: proportion}, opts)
}
