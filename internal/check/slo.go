// SLO conformance: the burn-rate alert stream is a pure function of
// the spec and the attributed completion stream, because the fleet
// coordinator feeds completions to the engine in member order at window
// barriers and the engine buckets them by finish timestamp.  SLOChecked
// runs the canonical rebuild-storm scenario — a member disk dies under
// foreground load and the raid rebuild drags the latency tail through
// the objective — and hands back the alert stream, the /slo snapshot,
// the telemetry summary and a Prometheus scrape, so the gate can
// require byte-identical alerts at any worker count, a fire during the
// rebuild that resolves after recovery, and a scrape that agrees with
// summary.json to the exact integer.
package check

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/simtime"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// Golden file names under the slo corpus directory: the committed spec
// the scenario is evaluated against, the expected alert stream and the
// expected end-of-run status snapshot.
const (
	SLOSpecFixture    = "rebuild-storm.spec.json"
	SLOAlertsGolden   = "rebuild-storm.alerts.jsonl"
	SLOSnapshotGolden = "rebuild-storm.slo.json"
)

// StormSpec is the canonical rebuild-storm SLO spec: one tenant class
// covering the whole stream with a p95 latency objective, windows tight
// enough that a sub-second run can burn through them.
func StormSpec() slo.Spec {
	return slo.Spec{
		Version:       slo.SpecVersion,
		Name:          "rebuild-storm",
		FastWindow:    100 * simtime.Millisecond,
		SlowWindow:    400 * simtime.Millisecond,
		EvalInterval:  20 * simtime.Millisecond,
		BurnThreshold: 2,
		Classes: []slo.ClassSpec{
			{
				Name: "all",
				Objectives: []slo.Objective{
					{Name: "latency-p95", Kind: slo.KindLatency, Target: 0.95, ThresholdNs: 40 * simtime.Millisecond},
				},
			},
		},
	}
}

// SLORun carries one rebuild-storm run's artifacts.
type SLORun struct {
	Result   *fleet.Result
	Alerts   []byte // alerts.jsonl bytes (the committed golden)
	Snapshot []byte // indented slo.Status JSON (the /slo surface)
	Summary  []byte // telemetry summary.json bytes
	Prom     []byte // Prometheus scrape of the same registry
}

// SLOChecked runs the canonical rebuild-storm scenario — four HDD
// arrays under round-robin placement, a member disk on array 1 failing
// at 300ms with a 32MiB rebuild — at the given worker count, evaluates
// the spec over it, and verifies the acceptance gates: accounting and
// array invariants hold, the fault recovers, at least one burn-rate
// alert fires during the rebuild and resolves afterwards, and the
// Prometheus scrape validates and agrees with summary.json exactly.
func SLOChecked(spec slo.Spec, workers int) (*SLORun, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = 7
	const arrays = 4
	f, err := fleet.New(cfg, experiments.HDDArray, arrays, workers)
	if err != nil {
		return nil, err
	}
	eng, err := slo.NewEngine(spec)
	if err != nil {
		return nil, err
	}
	stream := fleet.NewSynthStream(fleet.SynthParams{
		Duration:   1200 * simtime.Millisecond,
		MeanIOPS:   float64(60 * arrays),
		Clients:    256,
		Size:       32 << 10,
		ReadRatio:  0.6,
		WorkingSet: 1 << 30,
		Seed:       99,
	})
	set := telemetry.New(telemetry.Options{})
	res, err := f.Run(stream, fleet.Options{
		Policy:    fleet.NewRoundRobin(),
		Telemetry: set,
		SLO:       eng,
		Faults:    []fleet.Fault{{Array: 1, At: 300 * simtime.Millisecond, RebuildBytes: 32 << 20, ChunkBytes: 8 << 20}},
	})
	if err != nil {
		return nil, err
	}

	if res.Offered != res.Admitted || res.Admitted != res.Completed {
		return nil, fmt.Errorf("slo: offered %d, admitted %d, completed %d diverge without admission control",
			res.Offered, res.Admitted, res.Completed)
	}
	for i, e := range f.Engines() {
		if n := e.Pending(); n != 0 {
			return nil, fmt.Errorf("slo: array %d: %d events pending after run", i, n)
		}
	}
	for i, a := range f.Arrays() {
		if err := a.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("slo: array %d: %w", i, err)
		}
	}
	if len(res.Faults) != 1 {
		return nil, fmt.Errorf("slo: %d fault results, want 1", len(res.Faults))
	}
	ft := res.Faults[0]
	if ft.Error != "" {
		return nil, fmt.Errorf("slo: fault injection failed: %s", ft.Error)
	}
	if ft.RecoveredAt <= ft.FailedAt {
		return nil, fmt.Errorf("slo: rebuild never recovered (failed %v, recovered %v)", ft.FailedAt, ft.RecoveredAt)
	}
	if len(res.PerClass) == 0 || res.PerClass[0].Completed != res.Completed {
		return nil, fmt.Errorf("slo: per-class rows do not cover the %d completions", res.Completed)
	}

	var alerts bytes.Buffer
	if err := eng.WriteAlerts(&alerts); err != nil {
		return nil, err
	}
	if err := checkStormAlerts(alerts.Bytes(), ft); err != nil {
		return nil, err
	}
	snap, err := marshalGolden(eng.Snapshot())
	if err != nil {
		return nil, err
	}

	summary, err := exportSummary(set)
	if err != nil {
		return nil, err
	}
	var prom bytes.Buffer
	if err := set.Registry().WritePrometheus(&prom); err != nil {
		return nil, err
	}
	if err := checkPromAgainstSummary(prom.Bytes(), summary); err != nil {
		return nil, err
	}
	return &SLORun{Result: res, Alerts: alerts.Bytes(), Snapshot: snap, Summary: summary, Prom: prom.Bytes()}, nil
}

// checkStormAlerts enforces the acceptance criterion on the alert
// stream: at least one fire after the disk failed, resolved afterwards,
// with the degraded array among the fire's top contributors.
func checkStormAlerts(blob []byte, ft fleet.FaultResult) error {
	alerts, err := slo.ReadAlerts(blob)
	if err != nil {
		return err
	}
	var fired, resolved, attributed bool
	for _, a := range alerts {
		if a.Event == slo.EventFire && a.At > ft.FailedAt {
			fired = true
			for _, t := range a.TopArrays {
				if t.Array == ft.Array {
					attributed = true
				}
			}
		}
		if fired && a.Event == slo.EventResolve {
			resolved = true
		}
	}
	if !fired {
		return fmt.Errorf("slo: no burn-rate alert fired during the rebuild storm (stream: %d alerts)", len(alerts))
	}
	if !resolved {
		return fmt.Errorf("slo: storm alert never resolved after recovery")
	}
	if !attributed {
		return fmt.Errorf("slo: no fire attributes the degraded array %d in its top contributors", ft.Array)
	}
	return nil
}

// checkPromAgainstSummary validates the scrape and requires every
// non-probe summary column to appear in it with the exact same integer
// value — both surfaces read the same registry, so any disagreement is
// an exposition bug, not drift.
func checkPromAgainstSummary(prom, summaryJSON []byte) error {
	exp, err := telemetry.ValidateExposition(prom)
	if err != nil {
		return fmt.Errorf("slo: prometheus exposition invalid: %w", err)
	}
	var sum telemetry.Summary
	if err := json.Unmarshal(summaryJSON, &sum); err != nil {
		return fmt.Errorf("slo: summary.json: %w", err)
	}
	checked := 0
	for _, col := range sum.Columns {
		switch col.Kind {
		case "counter", "gauge", "watermark":
		default:
			continue // probes are sim-goroutine-owned and not scraped
		}
		fam := telemetry.PromFamilyName(col.Name, col.Kind)
		got, ok := exp.Value(fam, "")
		if !ok {
			return fmt.Errorf("slo: summary column %q missing from scrape as %q", col.Name, fam)
		}
		if got != col.Total {
			return fmt.Errorf("slo: %q: scrape %v != summary %v", fam, got, col.Total)
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("slo: no scrapable columns to cross-check against summary.json")
	}
	return nil
}

// exportSummary writes the set into a temp dir and reads summary.json
// back, so the gate compares exactly what an operator's artifact
// directory would hold.
func exportSummary(set *telemetry.Set) ([]byte, error) {
	dir, err := os.MkdirTemp("", "check-slo")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := set.WriteDir(dir); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(dir, telemetry.SummaryFile))
}

// verifySLO runs the SLO conformance pass against the committed corpus
// under dir: it loads the committed spec (bootstrapping it with the
// canonical StormSpec under -update), runs the rebuild-storm scenario
// at every worker count, requires the alert stream and snapshot to be
// byte-identical across counts, and diffs them against the committed
// goldens byte for byte: every value in the SLO surfaces is an integer
// or a quotient of two integers, so no float tolerance applies.
// opts.Update rewrites the goldens instead of diffing.  On a
// failure with opts.TelemetryDir set, the first worker count's
// artifacts (exportSLOFailure) are written there for CI to upload.
func verifySLO(dir string, opts VerifyOptions, out io.Writer) error {
	spec, err := loadOrInitStormSpec(dir, opts.Update, out)
	if err != nil {
		return err
	}

	failed := 0
	var firstErr error
	fail := func(name string, err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
		fmt.Fprintf(out, "FAIL %s: %v\n", name, err)
	}

	base, err := sameAtWorkers("alerts and snapshot", func(w int) (*SLORun, []byte, error) {
		run, err := SLOChecked(spec, w)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(out, "PASS storm/workers=%d (%d completions, %d alert(s), rebuilt by %v)\n",
			w, run.Result.Completed, countAlerts(run.Alerts), run.Result.Faults[0].RecoveredAt)
		return run, slices.Concat(run.Alerts, run.Snapshot), nil
	})
	if err != nil {
		fail("storm", err)
	} else {
		fmt.Fprintf(out, "PASS determinism (alerts and snapshot byte-identical at workers %v)\n", workerCounts)
	}
	if base == nil {
		return fmt.Errorf("slo verify: %w", err)
	}

	alertsPath := filepath.Join(dir, SLOAlertsGolden)
	snapPath := filepath.Join(dir, SLOSnapshotGolden)
	if opts.Update {
		if err := writeGoldenBytes(alertsPath, base.Alerts); err != nil {
			return err
		}
		if err := writeGoldenBytes(snapPath, base.Snapshot); err != nil {
			return err
		}
		fmt.Fprintf(out, "UPDATED %s, %s\n", SLOAlertsGolden, SLOSnapshotGolden)
	} else {
		if err := diffGoldenBytes(alertsPath, base.Alerts); err != nil {
			fail("golden/"+SLOAlertsGolden, err)
		}
		if err := diffGoldenBytes(snapPath, base.Snapshot); err != nil {
			fail("golden/"+SLOSnapshotGolden, err)
		}
		if failed == 0 {
			fmt.Fprintf(out, "PASS golden (alert stream and snapshot match the committed corpus)\n")
		}
	}

	if failed > 0 && opts.TelemetryDir != "" {
		if err := exportSLOFailure(opts.TelemetryDir, spec, base); err != nil {
			fmt.Fprintf(out, "telemetry export failed: %v\n", err)
		} else {
			fmt.Fprintf(out, "failure artifacts exported to %s\n", opts.TelemetryDir)
		}
	}
	if failed > 0 {
		return fmt.Errorf("slo verify: %d gate(s) failed: %w", failed, firstErr)
	}
	return nil
}

// loadOrInitStormSpec loads the committed spec fixture, writing the
// canonical one first under -update when the corpus is empty — the
// bootstrap path for a fresh checkout.
func loadOrInitStormSpec(dir string, update bool, out io.Writer) (slo.Spec, error) {
	path := filepath.Join(dir, SLOSpecFixture)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		if !update {
			return slo.Spec{}, fmt.Errorf("slo verify: no %s under %s (bootstrap with -update)", SLOSpecFixture, dir)
		}
		if err := writeGolden(path, StormSpec()); err != nil {
			return slo.Spec{}, err
		}
		fmt.Fprintf(out, "CREATED %s\n", path)
	}
	return slo.LoadSpec(path)
}

// countAlerts counts the newline-delimited records in an alert stream.
func countAlerts(blob []byte) int {
	alerts, err := slo.ReadAlerts(blob)
	if err != nil {
		return -1
	}
	return len(alerts)
}

// exportSLOFailure writes the failing run's artifacts into dir for CI
// to upload: the fresh alerts.jsonl, the slo.json snapshot, the
// telemetry summary.json, the metrics.prom scrape and the spec.  It
// re-runs nothing: these are the bytes the gate just checked.
func exportSLOFailure(dir string, spec slo.Spec, run *SLORun) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, slo.AlertsFile), run.Alerts, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "slo.json"), run.Snapshot, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, telemetry.SummaryFile), run.Summary, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "metrics.prom"), run.Prom, 0o644); err != nil {
		return err
	}
	return writeGolden(filepath.Join(dir, SLOSpecFixture), spec)
}
