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
	"repro/internal/replay"
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
	cf := registerCacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*name == "") == (*in == "") {
		return fmt.Errorf("replay: exactly one of -trace or -in is required")
	}
	if !(*load > 0 && *load <= 1000) { // NaN fails every comparison
		return fmt.Errorf("replay: bad load percentage %v", *load)
	}
	if err := cf.validate("replay", fs); err != nil {
		return err
	}
	kind, err := experiments.KindFromString(*device)
	if err != nil {
		return err
	}
	var tr *blktrace.Trace
	if *in != "" {
		tr, err = blktrace.ReadFile(*in)
	} else {
		var repo *repository.Repository
		if repo, err = repository.Open(*dir); err == nil {
			tr, err = repo.Load(*name)
		}
	}
	if err != nil {
		return err
	}
	spec := experiments.StackSpec{Kind: kind}
	if *cf.tier != "" {
		cs := cf.spec()
		spec.Cache = &cs
	}
	s, err := experiments.Build(experiments.DefaultConfig(), spec)
	if err != nil {
		return err
	}
	set := telemetry.New(telemetry.Options{Cadence: simtime.FromStd(*cadence)})
	m, err := experiments.Measure(s, tr, replay.UniformFilter{Proportion: *load / 100}, set)
	if err != nil {
		return err
	}
	if err := set.WriteDir(*telemetryDir); err != nil {
		return err
	}
	r := m.Result
	if s.Cache == nil {
		fmt.Fprintf(out, "replayed %d IOs at load %.0f%% on %s: %.1f IOPS, %.3f MBPS, %.1f W\n",
			r.Completed, *load, kind, r.IOPS, r.MBPS, m.Power)
	} else {
		st := s.Cache.Stats()
		fmt.Fprintf(out, "replayed %d IOs at load %.0f%% on %s behind %s: %.1f IOPS, %.3f MBPS, %.1f W\n",
			r.Completed, *load, kind, spec.Cache.Label(), r.IOPS, r.MBPS, m.Power)
		fmt.Fprintf(out, "cache: %.1f%% hit (%d/%d), %d writebacks (%.1f KiB), %d evictions\n",
			st.HitRate()*100, st.Hits, st.Hits+st.Misses,
			st.Writebacks, float64(st.WritebackBytes)/1024, st.Evictions)
	}
	fmt.Fprintf(out, "telemetry written to %s (render with: tracer report -dir %s)\n",
		*telemetryDir, *telemetryDir)
	return nil
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
