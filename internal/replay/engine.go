package replay

import (
	"cmp"
	"fmt"

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
	if err := checkTrace(trace, dev, engine.Now()); err != nil {
		return nil, err
	}
	cycle := opts.SamplingCycle
	if cycle <= 0 {
		cycle = simtime.Second
	}
	start := engine.Now()
	res := &Result{Trace: trace.Device, Start: start}
	// One run handler serves every bunch-issue event, carrying the bunch
	// index in the event argument: no closure per bunch.  The bunches go
	// in as one series, so the heap holds only the next bunch instead of
	// the whole unissued trace.  The replay runs the simulation until it
	// drains, which always terminates for the device models in this
	// repository, so every issued IO has completed when Replay returns.
	r := newRun(engine, dev, trace, res, opts)
	engine.ScheduleSeries(len(trace.Bunches), func(i int) simtime.Time {
		return start.Add(trace.Bunches[i].Time)
	}, r)
	engine.Run()

	finalize(res, r.completions, start.Add(trace.Duration()), cycle)
	return res, nil
}

// checkTrace rejects, before anything is issued, a trace that breaks
// blktrace's rules, places a bunch past simtime.Horizon when replayed
// from start, or holds a package larger than the whole device.  The
// devices fold an offset past their end back into range, but no offset
// fits a package bigger than the device itself.
func checkTrace(trace *blktrace.Trace, dev storage.Device, start simtime.Time) error {
	if err := trace.Validate(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	capacity := dev.Capacity()
	for i, b := range trace.Bunches {
		if room := simtime.Horizon.Sub(start); b.Time > room {
			return fmt.Errorf("replay: bunch %d at %v lies past the simulation horizon %v", i, b.Time, room)
		}
		for j, p := range b.Packages {
			if capacity > 0 && p.Size > capacity {
				return fmt.Errorf("replay: bunch %d package %d: size %d exceeds device capacity %d", i, j, p.Size, capacity)
			}
		}
	}
	return nil
}

// run is the state of one replay call.  Both modes issue every package
// through issue and complete it through an in-flight record.
type run struct {
	engine      *simtime.Engine
	dev         storage.Device
	trace       *blktrace.Trace
	res         *Result
	obs         Observer
	tel         *telemetry.ReplayProbe
	completions []completion
	// free is a LIFO list of idle in-flight records.
	free []*inflight
	// closedLoop makes each completion issue the package at the
	// cursor (nextBunch, nextPkg), walking the trace in order.
	closedLoop         bool
	nextBunch, nextPkg int
}

func newRun(engine *simtime.Engine, dev storage.Device, trace *blktrace.Trace, res *Result, opts Options) *run {
	// The completion slice is the one record kept per IO.  The trace
	// knows its package count up front, so reserve it all.
	return &run{
		engine:      engine,
		dev:         dev,
		trace:       trace,
		res:         res,
		obs:         opts.Observer,
		tel:         opts.Telemetry,
		completions: make([]completion, 0, trace.NumIOs()),
	}
}

// OnEvent implements simtime.Handler for the open-loop bunch series:
// it fires at a bunch's arrival time, arg.I64 is the bunch index, and
// all of the bunch's packages are issued concurrently.
func (r *run) OnEvent(_ *simtime.Engine, arg simtime.EventArg) {
	bunch := int(arg.I64)
	for pi := range r.trace.Bunches[bunch].Packages {
		r.issue(bunch, pi)
	}
}

// issue submits package pkg of bunch now, through an idle record.
func (r *run) issue(bunch, pkg int) {
	now := r.engine.Now()
	p := r.trace.Bunches[bunch].Packages[pkg]
	f := r.get()
	f.bunch, f.pkg, f.issued, f.size = bunch, pkg, now, p.Size
	r.res.Issued++
	if r.obs != nil {
		r.obs.ObserveIssue(bunch, pkg, now)
	}
	r.tel.OnIssue(bunch, pkg, now)
	r.dev.Submit(p.Request(), f.done)
}

// issueNext issues the closed-loop cursor's package now and advances
// the cursor; it reports false once the trace is exhausted.
func (r *run) issueNext() bool {
	if r.nextBunch >= len(r.trace.Bunches) {
		return false
	}
	r.issue(r.nextBunch, r.nextPkg)
	if r.nextPkg++; r.nextPkg == len(r.trace.Bunches[r.nextBunch].Packages) {
		r.nextBunch, r.nextPkg = r.nextBunch+1, 0
	}
	return true
}

// inflight carries one issued package to its completion.  Records
// recycle through the run's free list and bind their completion
// callback once, when first created, so a warm replay allocates
// nothing per IO.
type inflight struct {
	r          *run
	bunch, pkg int
	issued     simtime.Time
	size       int64
	busy       bool
	// done is complete bound once: the callback the device fires.
	done func(simtime.Time)
}

// get takes an idle record off the run's free list.
func (r *run) get() *inflight {
	var f *inflight
	if n := len(r.free); n > 0 {
		f = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		f = &inflight{r: r}
		f.done = f.complete
	}
	f.busy = true
	return f
}

// complete records the package's completion and recycles the record.
// An idle record cannot be owed one: the device completed a request
// twice, and the record may already carry a later IO.
func (f *inflight) complete(finish simtime.Time) {
	if !f.busy {
		panic(fmt.Sprintf("replay: completion at %v landed on an idle in-flight record (a device completed a request twice)", finish))
	}
	f.busy = false
	r := f.r
	r.res.Completed++
	if r.obs != nil {
		r.obs.ObserveComplete(f.bunch, f.pkg, f.issued, finish)
	}
	r.tel.OnComplete(f.bunch, f.pkg, f.issued, finish, f.size)
	r.completions = append(r.completions, completion{
		finish:   finish,
		bytes:    f.size,
		response: finish.Sub(f.issued),
	})
	if r.closedLoop {
		r.issueNext()
	}
	r.free = append(r.free, f)
}

// completion records one finished IO for aggregation.
type completion struct {
	finish   simtime.Time
	bytes    int64
	response simtime.Duration
}

// replayTails are the quantiles a replay reports: p50, p95 and p99.
var replayTails = [...]float64{0.50, 0.95, 0.99}

// byResponse orders completions by response time.
func byResponse(a, b completion) int { return cmp.Compare(a.response, b.response) }

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
	// selection reorders the slice.
	start := res.Start
	if res.Duration() > 0 {
		// Round up without adding: a cycle as long as the run would
		// wrap Duration() + cycle.
		nBuckets := int(res.Duration() / cycle)
		if res.Duration()%cycle != 0 {
			nBuckets++
		}
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
			ivEnd := res.End
			if cycle < ivEnd.Sub(ivStart) {
				ivEnd = ivStart.Add(cycle)
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
		// Select on the completions themselves instead of copying
		// responses into a scratch slice: the records are not needed in
		// finish order past this point, so the percentile pass
		// allocates nothing.
		var tails [3]completion
		metrics.NearestRank(completions, replayTails[:], tails[:], byResponse)
		res.P50Response, res.P95Response, res.P99Response = tails[0].response, tails[1].response, tails[2].response
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
	if err := checkTrace(trace, dev, engine.Now()); err != nil {
		return nil, err
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
	r := newRun(engine, dev, trace, res, opts)
	r.closedLoop = true
	for range queueDepth {
		if !r.issueNext() {
			break
		}
	}
	engine.Run()
	finalize(res, r.completions, start, cycle)
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
