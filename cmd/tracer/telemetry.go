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

	"repro/internal/slo"
	"repro/internal/telemetry"
)

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
