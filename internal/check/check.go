// Package check is the simulation conformance layer: it asserts that a
// replay run obeyed the physics the rest of the repository models.
//
// TRACER's value is that its IOPS/Watt and MBPS/Kilowatt numbers can be
// trusted across load points and RAID modes; after aggressive
// performance rewrites (the parallel sweep executor, the 4-ary heap
// kernel) the conformance layer is the guard against silent drift.  It
// has three pillars:
//
//   - physics invariants (this file): pluggable assertions wired into
//     replay, both disk models, the RAID controller and the power
//     simulator — energy equals the integral of the sampled power
//     timeline, completions never precede issues, per-disk busy time
//     never exceeds wall time, RAID-5 parity traffic matches the
//     read-modify-write accounting, and bunch FIFO order is preserved;
//   - golden fixtures (golden.go): committed traces with committed
//     replay outputs, re-run and diffed with tolerance-aware
//     comparison by `tracer verify` and the test driver;
//   - randomized differential testing, which is test code: a seeded
//     trace fuzzer with its codec and load-scaling properties, the
//     kernel held to a linear-scan reference on random re-entrant
//     schedules and the sweep's worker-count identity live in
//     fuzz_test.go, the fleet determinism gate in fleet_test.go, and
//     the kernel's differential test against its frozen container/heap
//     baseline in internal/simtime's tests.
//
// The golden gates (golden.go, cache.go, optimize.go, slo.go) and the
// round-trip fidelity pass (fidelity.go) share one harness (gate.go):
// a typed golden diff, one JSON read/write pair, the worker-count
// identity runner and the fixture walk with its -update bootstrap and
// first-failure export.
package check

import (
	"fmt"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// DefaultEnergyTol is the relative tolerance for the energy
// conservation invariant.  Sampling is noise-free during checked runs,
// so the only divergence between the sampled integral and the timeline
// integral is float summation order; 1e-6 absorbs it with orders of
// magnitude to spare while still catching any real accounting bug.
const DefaultEnergyTol = 1e-6

// Options tune a checked replay.
type Options struct {
	// Load is the uniform-filter load proportion; 0 or 1 replays the
	// whole trace unfiltered.
	Load float64
	// Replay passes through to the replay engine.  The Observer field
	// is overwritten by the checker.
	Replay replay.Options
	// FIFOCompletions additionally asserts completions arrive in issue
	// order.  Only valid for strictly serial FIFO devices (a bare HDD
	// or SSD model); a RAID array completes across members out of
	// order by design.
	FIFOCompletions bool
}

// Violation is one failed invariant.
type Violation struct {
	// Invariant names the failed assertion (e.g. "causality").
	Invariant string
	// Detail describes the observed inconsistency.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Report summarises a checked run: which invariants were asserted and
// which failed.
type Report struct {
	// Checked lists every invariant asserted during the run.
	Checked []string
	// Violations lists the failures; empty means the run conformed.
	Violations []Violation
}

// add records an assertion outcome: the invariant was checked, and
// failed if err is non-nil.
func (r *Report) add(invariant string, err error) {
	for _, c := range r.Checked {
		if c == invariant {
			goto recorded
		}
	}
	r.Checked = append(r.Checked, invariant)
recorded:
	if err != nil {
		r.Violations = append(r.Violations, Violation{Invariant: invariant, Detail: err.Error()})
	}
}

// Err returns nil for a conforming run, or one error listing every
// violation.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "check: %d invariant violation(s):", len(r.Violations))
	for _, v := range r.Violations {
		sb.WriteString("\n  ")
		sb.WriteString(v.String())
	}
	return fmt.Errorf("%s", sb.String())
}

// Result bundles a checked replay's outputs.
type Result struct {
	// Replay is the performance outcome.
	Replay *replay.Result
	// Samples are the noise-free power samples metered over the run
	// (nil when the device exposes no power source or timeline).
	Samples []powersim.Sample
	// MeanWatts and EnergyJ aggregate the samples.
	MeanWatts, EnergyJ float64
	// Report holds the conformance outcome.
	Report *Report
}

// observer implements replay.Observer, asserting issue-side ordering
// and completion-side causality as the run progresses.  Violations are
// deduplicated to the first occurrence per invariant so a systemic bug
// in a million-IO replay does not produce a million-line report.
type observer struct {
	report *Report

	lastBunch     int
	lastIssueTime simtime.Time
	issues        int64
	completes     int64

	fifo         bool
	lastComplete int64 // issue sequence of the last completion
	seq          map[[2]int]int64

	sawFIFOViolation      bool
	sawCausalityViolation bool
	sawDoubleComplete     bool
	sawOrderViolation     bool
}

func newObserver(report *Report, fifo bool) *observer {
	o := &observer{report: report, lastBunch: -1, lastComplete: -1, fifo: fifo, seq: make(map[[2]int]int64)}
	// Register the always-on invariants up front so Checked reflects
	// them even on a run with zero IOs.
	report.add("bunch-fifo-issue", nil)
	report.add("causality", nil)
	report.add("single-completion", nil)
	if fifo {
		report.add("fifo-completions", nil)
	}
	return o
}

// ObserveIssue implements replay.Observer.
func (o *observer) ObserveIssue(bunch, pkg int, at simtime.Time) {
	if !o.sawFIFOViolation {
		if bunch < o.lastBunch {
			o.sawFIFOViolation = true
			o.report.add("bunch-fifo-issue", fmt.Errorf("bunch %d issued after bunch %d", bunch, o.lastBunch))
		}
		if at < o.lastIssueTime {
			o.sawFIFOViolation = true
			o.report.add("bunch-fifo-issue", fmt.Errorf("issue time %v precedes previous issue %v", at, o.lastIssueTime))
		}
	}
	o.lastBunch = bunch
	o.lastIssueTime = at
	o.seq[[2]int{bunch, pkg}] = o.issues
	o.issues++
}

// ObserveComplete implements replay.Observer.
func (o *observer) ObserveComplete(bunch, pkg int, issued, finished simtime.Time) {
	o.completes++
	if finished < issued && !o.sawCausalityViolation {
		o.sawCausalityViolation = true
		o.report.add("causality", fmt.Errorf("bunch %d pkg %d finished %v before issue %v", bunch, pkg, finished, issued))
	}
	key := [2]int{bunch, pkg}
	seq, issuedSeen := o.seq[key]
	if !issuedSeen {
		if !o.sawDoubleComplete {
			o.sawDoubleComplete = true
			o.report.add("single-completion", fmt.Errorf("bunch %d pkg %d completed twice or without issue", bunch, pkg))
		}
		return
	}
	delete(o.seq, key)
	if o.fifo && !o.sawOrderViolation {
		if seq < o.lastComplete {
			o.sawOrderViolation = true
			o.report.add("fifo-completions", fmt.Errorf("issue #%d completed after issue #%d on a FIFO device", seq, o.lastComplete))
		}
	}
	if seq > o.lastComplete {
		o.lastComplete = seq
	}
}

// finish asserts the end-of-run accounting: everything issued has
// completed.
func (o *observer) finish() {
	var err error
	if len(o.seq) != 0 {
		err = fmt.Errorf("%d issued IOs never completed", len(o.seq))
	} else if o.issues != o.completes {
		err = fmt.Errorf("issued %d != completed %d", o.issues, o.completes)
	}
	o.report.add("issue-complete-balance", err)
}

// powerSourced is satisfied by devices exposing an aggregate wall-power
// source (raid.Array).
type powerSourced interface {
	PowerSource() powersim.Source
}

// timelined is satisfied by single devices exposing a DC power timeline
// (both disk models).
type timelined interface {
	Timeline() *powersim.Timeline
}

// selfChecking is satisfied by devices whose accounting can be
// self-verified after a drain (both disk models).
type selfChecking interface {
	CheckInvariants(now simtime.Time) error
}

// opCounted is satisfied by devices reporting completed operations
// (both disk models); the conformance layer cross-checks members
// against the RAID controller's issue counters.
type opCounted interface {
	ServedOps() int64
}

// ReplayChecked replays trace against dev with the full invariant suite
// armed: the replay observer asserts ordering and causality inline, and
// after the engine drains the device models, the RAID controller and
// the power accounting are cross-checked.  The returned Result carries
// the replay output and the conformance report; err is non-nil only for
// setup failures (a malformed trace), never for invariant violations —
// read Result.Report for those.
func ReplayChecked(engine *simtime.Engine, dev storage.Device, trace *blktrace.Trace, opts Options) (*Result, error) {
	report := &Report{}
	obs := newObserver(report, opts.FIFOCompletions)
	ropts := opts.Replay
	ropts.Observer = obs

	var res *replay.Result
	var err error
	if opts.Load > 0 && opts.Load < 1 {
		res, err = replay.ReplayFiltered(engine, dev, trace, replay.UniformFilter{Proportion: opts.Load}, ropts)
	} else {
		res, err = replay.Replay(engine, dev, trace, ropts)
	}
	if err != nil {
		return nil, err
	}
	out := &Result{Replay: res, Report: report}

	report.add("engine-drained", drainErr(engine))
	obs.finish()
	checkDevice(engine, dev, res, report, out)
	return out, nil
}

func drainErr(engine *simtime.Engine) error {
	if n := engine.Pending(); n != 0 {
		return fmt.Errorf("%d events still pending after run", n)
	}
	return nil
}

// checkDevice runs the post-drain physics assertions appropriate for
// the device's type: power conservation for anything with a power
// source or timeline, self-accounting for the disk models, and the
// controller algebra plus cross-layer operation conservation for a
// RAID array.
func checkDevice(engine *simtime.Engine, dev storage.Device, res *replay.Result, report *Report, out *Result) {
	now := engine.Now()

	// Power: meter the run noise-free and require the sampled energy to
	// equal the timeline integral.
	var src powersim.Source
	switch d := dev.(type) {
	case powerSourced:
		src = d.PowerSource()
	case timelined:
		src = d.Timeline()
	}
	if src != nil {
		meter := &powersim.Meter{Source: src, Cycle: simtime.Second / 4}
		out.Samples = meter.Measure(res.Start, res.End)
		out.MeanWatts = powersim.MeanWatts(out.Samples)
		out.EnergyJ = powersim.EnergyJ(out.Samples)
		report.add("energy-conservation", powersim.VerifySampledEnergy(src, out.Samples, DefaultEnergyTol))
	}

	switch d := dev.(type) {
	case *cache.Cache:
		// Cache algebra: write conservation (every dirtied byte was
		// either written back or is still resident — and none remain
		// once the engine drained with idle-drain armed), set-placement
		// and associativity bounds, occupancy recounts.  The backing
		// array is then checked exactly as a bare array would be; the
		// front-end op-conservation check does not apply because cache
		// hits complete without an array op by design.
		report.add("cache-invariants", d.CheckInvariants(now))
		if arr, ok := d.Backing().(*raid.Array); ok {
			report.add("raid-parity-accounting", arr.CheckInvariants())
			report.add("disk-busy-bounded", nil)
			report.add("op-conservation", raidOpConservation(arr))
			// Instead, conservation holds at the cache/array boundary:
			// after the drained run, every operation the cache issued to
			// the backing (miss fills, bypasses, writebacks) was served
			// by the array front, and nothing else reached it.
			var err error
			cs := d.Stats()
			if issued := cs.BackingReads + cs.BackingWrites; issued != arr.FrontServed() {
				err = fmt.Errorf("cache issued %d backing ops (reads %d + writes %d), array served %d",
					issued, cs.BackingReads, cs.BackingWrites, arr.FrontServed())
			}
			report.add("backing-op-conservation", err)
		}
	case *raid.Array:
		// Controller algebra (parity accounting, member self-checks,
		// timeline monotonicity) is one composite invariant family; the
		// busy-time bound is asserted inside each member's self-check.
		report.add("raid-parity-accounting", d.CheckInvariants())
		report.add("disk-busy-bounded", nil)
		report.add("op-conservation", raidOpConservation(d))
	case selfChecking:
		report.add("disk-busy-bounded", d.CheckInvariants(now))
		if oc, ok := dev.(opCounted); ok {
			var err error
			if served := oc.ServedOps(); served != res.Completed {
				err = fmt.Errorf("device served %d ops, replay completed %d", served, res.Completed)
			}
			report.add("op-conservation", err)
		}
	}
}

// raidOpConservation cross-checks the controller's issued-operation
// counters against the member disks' served-operation counters: every
// disk-level read or write the controller planned must have been served
// by exactly one member, and nothing else may have touched the members.
func raidOpConservation(a *raid.Array) error {
	var served int64
	for _, d := range a.Disks() {
		oc, ok := d.(opCounted)
		if !ok {
			return nil // member model without counters; nothing to check
		}
		served += oc.ServedOps()
	}
	s := a.Stats()
	if issued := s.DiskReads + s.DiskWrites; served != issued {
		return fmt.Errorf("members served %d ops, controller issued %d (reads %d + writes %d)",
			served, issued, s.DiskReads, s.DiskWrites)
	}
	return nil
}
