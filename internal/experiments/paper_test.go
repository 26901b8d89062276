package experiments

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/replay"
	"repro/internal/simtime"
)

// TestFailingExperimentDoesNotAbortTable pins the partial-failure
// contract: an artifact that errors prints a FAIL line in its frame,
// the rest of the table still renders, and the summary error names it
// while wrapping the cause.
func TestFailingExperimentDoesNotAbortTable(t *testing.T) {
	cause := errors.New("boom")
	arts := []Artifact{
		{Name: "broken", Render: func(Config, io.Writer) error { return cause }},
		Artifacts()[0], // fig7
	}
	var buf bytes.Buffer
	err := RenderArtifacts(&buf, DefaultConfig(), arts)
	if err == nil || !strings.Contains(err.Error(), "1 of 2 experiments failed (broken)") {
		t.Fatalf("summary error = %v", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("summary error does not wrap the cause: %v", err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "=== broken ===\nFAIL broken: boom\n\n=== fig7 ===\nFig. 7") || !strings.HasSuffix(out, "\n\n") {
		t.Fatalf("output: %s", out)
	}
}

// TestRenderFig12BucketsByTime: each bucket is its IOs over the seconds
// it covers, a final bucket shorter than one sampling cycle is dropped,
// and a series without a row's bucket prints "-".
func TestRenderFig12BucketsByTime(t *testing.T) {
	timeline := func(full int, tail simtime.Duration, tailIOs int64) []replay.Interval {
		var ivs []replay.Interval
		at := simtime.Time(0)
		for i := 0; i < full; i++ {
			ivs = append(ivs, replay.Interval{Start: at, End: at.Add(simtime.Second), IOs: 10})
			at = at.Add(simtime.Second)
		}
		return append(ivs, replay.Interval{Start: at, End: at.Add(tail), IOs: tailIOs})
	}
	r := &Fig12Result{Series: []Fig12Series{
		// A 5 ms drain holding 5 IOs: 1000 IOPS if it counted.
		{Load: 0.5, Intervals: timeline(20, 5*simtime.Millisecond, 5)},
		// Four full cycles and a half one: (40+4) IOs over 4.5 s.
		{Load: 1, Intervals: timeline(24, simtime.Second/2, 4)},
	}}
	var buf bytes.Buffer
	RenderFig12(&buf, r)
	want := "bucket\tload50%\tload100%\n0\t10.0\t10.0\n1\t10.0\t10.0\n2\t-\t9.8\n"
	if _, got, _ := strings.Cut(buf.String(), "\n"); got != want {
		t.Fatalf("rows:\n%s\nwant:\n%s", got, want)
	}
}
