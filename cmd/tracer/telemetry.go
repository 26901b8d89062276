package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/repository"
	"repro/internal/simtime"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// cmdReplay runs one fully instrumented replay: the trace is filtered
// to the requested load, replayed on a fresh array with every telemetry
// producer wired (replay probe, per-disk spans, power channel, kernel
// gauges), and the artifact directory is exported — summary.json,
// series.csv, events.jsonl, power_wall.csv and a Chrome trace that
// opens in Perfetto.  `tracer report -dir DIR` renders the result.
//
// -mmap loads -in as a memory-mapped ".rmap" trace (see traceconv -mode
// bin2map) and materializes it, so it replays exactly like the same
// trace read from a ".replay" file.
//
// -cache-tier interposes a writeback cache (see internal/cache) between
// the replay and the array; the remaining -cache-* flags tune it and
// are rejected without a tier, so a typo cannot silently replay
// uncached.
func cmdReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	name := fs.String("trace", "", "trace file name within the repository")
	in := fs.String("in", "", "replay a trace file directly instead of a repository entry")
	device := fs.String("device", "hdd", "array kind: hdd or ssd")
	load := fs.Float64("load", 100, "load percentage")
	telemetryDir := fs.String("telemetry-dir", "telemetry", "artifact output directory")
	cadence := fs.Duration("cadence", 1_000_000_000, "time-series sampling cadence (sim time)")
	mmap := fs.Bool("mmap", false, "load -in as a memory-mapped .rmap trace")
	cf := registerCacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*name == "") == (*in == "") {
		return fmt.Errorf("replay: exactly one of -trace or -in is required")
	}
	if *load <= 0 || *load > 1000 {
		return fmt.Errorf("replay: bad load percentage %v", *load)
	}
	if *mmap && *in == "" {
		return fmt.Errorf("replay: -mmap requires -in (repository entries are not .rmap files)")
	}
	if err := cf.validate("replay", fs); err != nil {
		return err
	}
	kind, err := experiments.KindFromString(*device)
	if err != nil {
		return err
	}
	var tr *blktrace.Trace
	switch {
	case *mmap:
		tr, err = readMapped(*in)
	case *in != "":
		tr, err = blktrace.ReadFile(*in)
	default:
		var repo *repository.Repository
		if repo, err = repository.Open(*dir); err == nil {
			tr, err = repo.Load(*name)
		}
	}
	if err != nil {
		return err
	}
	set := telemetry.New(telemetry.Options{Cadence: simtime.FromStd(*cadence)})
	if *cf.tier != "" {
		m, err := experiments.MeasureCachedAtLoadTelemetry(experiments.DefaultConfig(), kind, cf.spec(), tr, *load/100, set)
		if err != nil {
			return err
		}
		if err := set.WriteDir(*telemetryDir); err != nil {
			return err
		}
		r := m.Result
		fmt.Fprintf(out, "replayed %d IOs at load %.0f%% on %s behind %s: %.1f IOPS, %.3f MBPS, %.1f W\n",
			r.Completed, *load, kind, m.Spec, r.IOPS, r.MBPS, m.Power)
		fmt.Fprintf(out, "cache: %.1f%% hit (%d/%d), %d writebacks (%.1f KiB), %d evictions\n",
			m.Cache.HitRate()*100, m.Cache.Hits, m.Cache.Hits+m.Cache.Misses,
			m.Cache.Writebacks, float64(m.Cache.WritebackBytes)/1024, m.Cache.Evictions)
		fmt.Fprintf(out, "telemetry written to %s (render with: tracer report -dir %s)\n",
			*telemetryDir, *telemetryDir)
		return nil
	}
	run, err := experiments.MeasureAtLoadTelemetry(experiments.DefaultConfig(), kind, tr, *load/100, set)
	if err != nil {
		return err
	}
	if err := set.WriteDir(*telemetryDir); err != nil {
		return err
	}
	r := run.Meas.Result
	fmt.Fprintf(out, "replayed %d IOs at load %.0f%% on %s: %.1f IOPS, %.3f MBPS, %.1f W\n",
		r.Completed, *load, kind, r.IOPS, r.MBPS, run.Meas.Power)
	fmt.Fprintf(out, "telemetry written to %s (render with: tracer report -dir %s)\n",
		*telemetryDir, *telemetryDir)
	return nil
}

// readMapped opens a format-v2 ".rmap" trace and copies it into a heap
// trace, releasing the mapping before the replay starts.
func readMapped(path string) (*blktrace.Trace, error) {
	m, err := blktrace.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return m.Materialize()
}

// cmdReport renders a telemetry artifact directory as text tables:
// metric totals with per-window mean/max, histogram quantiles,
// per-channel power digests — and, when the run carried an SLO engine,
// the burn-rate alert stream from alerts.jsonl.  -alert SEQ drills
// into one alert's full record.
func cmdReport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	dir := fs.String("dir", "telemetry", "telemetry artifact directory")
	alertSeq := fs.Int("alert", 0, "drill into the alert with this sequence number (requires alerts.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	blob, alertsErr := os.ReadFile(filepath.Join(*dir, slo.AlertsFile))
	if *alertSeq > 0 {
		if alertsErr != nil {
			return fmt.Errorf("report: -alert: %w", alertsErr)
		}
		return renderAlertDetail(out, blob, *alertSeq)
	}
	if err := telemetry.RenderReport(out, *dir); err != nil {
		return err
	}
	if alertsErr == nil {
		if err := renderAlerts(out, blob); err != nil {
			return err
		}
	}
	return nil
}

// renderAlerts prints the alert stream as a table.
func renderAlerts(out io.Writer, blob []byte) error {
	alerts, err := slo.ReadAlerts(blob)
	if err != nil {
		return err
	}
	if len(alerts) == 0 {
		fmt.Fprintln(out, "\nno burn-rate alerts fired")
		return nil
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nSEQ\tAT\tEVENT\tCLASS\tOBJECTIVE\tFAST\tSLOW\tBUDGET\tTOP ARRAYS")
	for _, a := range alerts {
		var tops []string
		for _, t := range a.TopArrays {
			tops = append(tops, fmt.Sprintf("%d(%d)", t.Array, t.Bad))
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%.2f\t%.2f\t%.0f%%\t%s\n",
			a.Seq, formatSim(a.At), a.Event, a.Class, a.Objective,
			a.FastBurn, a.SlowBurn, a.BudgetRemaining*100, strings.Join(tops, " "))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "drill down with: tracer report -dir DIR -alert SEQ")
	return nil
}

// renderAlertDetail dumps one alert's full record as indented JSON.
func renderAlertDetail(out io.Writer, blob []byte, seq int) error {
	alerts, err := slo.ReadAlerts(blob)
	if err != nil {
		return err
	}
	for _, a := range alerts {
		if a.Seq != seq {
			continue
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(a)
	}
	return fmt.Errorf("report: no alert with seq %d (stream has %d)", seq, len(alerts))
}
