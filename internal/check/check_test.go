package check

import (
	"strings"
	"testing"

	"repro/internal/disksim"
	"repro/internal/experiments"
	"repro/internal/simtime"
)

// requireChecked asserts the report claims to have asserted each named
// invariant.
func requireChecked(t *testing.T, r *Report, names ...string) {
	t.Helper()
	have := make(map[string]bool, len(r.Checked))
	for _, c := range r.Checked {
		have[c] = true
	}
	for _, n := range names {
		if !have[n] {
			t.Errorf("invariant %q was not asserted; checked: %v", n, r.Checked)
		}
	}
}

// TestReplayCheckedHDDArrayConforms replays a fuzzed trace on the full
// RAID-5 HDD array with every invariant armed: energy conservation,
// causality, busy-time bounds, parity accounting, FIFO issue order,
// drain and operation conservation must all hold.
func TestReplayCheckedHDDArrayConforms(t *testing.T) {
	s, err := experiments.Build(experiments.DefaultConfig(), experiments.StackSpec{Kind: experiments.HDDArray})
	if err != nil {
		t.Fatal(err)
	}
	trace := RandomTrace(DefaultFuzzParams(1))
	res, err := ReplayChecked(s.Engine, s.Device, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Report.Err(); err != nil {
		t.Fatal(err)
	}
	requireChecked(t, res.Report,
		"energy-conservation",
		"causality",
		"bunch-fifo-issue",
		"disk-busy-bounded",
		"raid-parity-accounting",
		"op-conservation",
		"engine-drained",
		"issue-complete-balance",
		"single-completion",
	)
	if len(res.Report.Checked) < 5 {
		t.Fatalf("only %d invariants asserted: %v", len(res.Report.Checked), res.Report.Checked)
	}
	if res.Replay.Completed == 0 || res.Replay.Completed != res.Replay.Issued {
		t.Fatalf("replay did no work: %+v", res.Replay)
	}
	if res.EnergyJ <= 0 || res.MeanWatts <= 0 {
		t.Fatalf("power not metered: %v J, %v W", res.EnergyJ, res.MeanWatts)
	}
}

// TestReplayCheckedSSDArrayConforms exercises the filtered-replay path
// and the SSD models under the same invariant suite.
func TestReplayCheckedSSDArrayConforms(t *testing.T) {
	s, err := experiments.Build(experiments.DefaultConfig(), experiments.StackSpec{Kind: experiments.SSDArray})
	if err != nil {
		t.Fatal(err)
	}
	trace := RandomTrace(DefaultFuzzParams(2))
	res, err := ReplayChecked(s.Engine, s.Device, trace, Options{Load: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Report.Err(); err != nil {
		t.Fatal(err)
	}
	requireChecked(t, res.Report, "energy-conservation", "raid-parity-accounting", "op-conservation")
}

// TestReplayCheckedBareHDDFIFO replays against a single strictly serial
// disk, which additionally must complete requests in issue order.
func TestReplayCheckedBareHDDFIFO(t *testing.T) {
	engine := simtime.NewEngine()
	hdd := disksim.NewHDD(engine, disksim.Seagate7200())
	trace := RandomTrace(DefaultFuzzParams(3))
	res, err := ReplayChecked(engine, hdd, trace, Options{FIFOCompletions: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Report.Err(); err != nil {
		t.Fatal(err)
	}
	requireChecked(t, res.Report,
		"fifo-completions", "disk-busy-bounded", "op-conservation", "energy-conservation")
}

// TestObserverDetectsCausalityViolation feeds the observer a completion
// that precedes its issue.
func TestObserverDetectsCausalityViolation(t *testing.T) {
	r := &Report{}
	o := newObserver(r, false)
	o.ObserveIssue(0, 0, 100)
	o.ObserveComplete(0, 0, 100, 50)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "causality") {
		t.Fatalf("causality violation not detected: %v", err)
	}
}

// TestObserverDetectsBunchOrderViolation feeds issues out of bunch
// order.
func TestObserverDetectsBunchOrderViolation(t *testing.T) {
	r := &Report{}
	o := newObserver(r, false)
	o.ObserveIssue(1, 0, 100)
	o.ObserveIssue(0, 0, 200)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "bunch-fifo-issue") {
		t.Fatalf("bunch order violation not detected: %v", err)
	}
}

// TestObserverDetectsIssueTimeRegression feeds a non-monotone issue
// clock.
func TestObserverDetectsIssueTimeRegression(t *testing.T) {
	r := &Report{}
	o := newObserver(r, false)
	o.ObserveIssue(0, 0, 200)
	o.ObserveIssue(1, 0, 100)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "precedes previous issue") {
		t.Fatalf("issue-time regression not detected: %v", err)
	}
}

// TestObserverDetectsDoubleCompletion completes the same package twice.
func TestObserverDetectsDoubleCompletion(t *testing.T) {
	r := &Report{}
	o := newObserver(r, false)
	o.ObserveIssue(0, 0, 10)
	o.ObserveComplete(0, 0, 10, 20)
	o.ObserveComplete(0, 0, 10, 30)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "single-completion") {
		t.Fatalf("double completion not detected: %v", err)
	}
}

// TestObserverDetectsLostIO issues without completing.
func TestObserverDetectsLostIO(t *testing.T) {
	r := &Report{}
	o := newObserver(r, false)
	o.ObserveIssue(0, 0, 10)
	o.finish()
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "issue-complete-balance") {
		t.Fatalf("lost IO not detected: %v", err)
	}
}

// TestObserverDetectsFIFOCompletionViolation completes out of issue
// order with FIFO asserted.
func TestObserverDetectsFIFOCompletionViolation(t *testing.T) {
	r := &Report{}
	o := newObserver(r, true)
	o.ObserveIssue(0, 0, 10)
	o.ObserveIssue(0, 1, 10)
	o.ObserveComplete(0, 1, 10, 20)
	o.ObserveComplete(0, 0, 10, 30)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "fifo-completions") {
		t.Fatalf("FIFO completion violation not detected: %v", err)
	}
}

// TestReportErrNilWhenClean covers the happy path of Err.
func TestReportErrNilWhenClean(t *testing.T) {
	r := &Report{}
	r.add("anything", nil)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(r.Checked) != 1 {
		t.Fatalf("Checked = %v", r.Checked)
	}
	// Re-adding the same invariant must not duplicate the entry.
	r.add("anything", nil)
	if len(r.Checked) != 1 {
		t.Fatalf("Checked duplicated: %v", r.Checked)
	}
}
