package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"text/tabwriter"
	"time"
)

// ReadSummary loads a telemetry directory's summary.json.
func ReadSummary(dir string) (*Summary, error) {
	f, err := os.Open(filepath.Join(dir, SummaryFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var s Summary
	if err := json.NewDecoder(f).Decode(&s); err != nil {
		return nil, fmt.Errorf("telemetry: %s: %w", SummaryFile, err)
	}
	return &s, nil
}

// seriesStats aggregates one column of series.csv.
type seriesStats struct {
	sum, min, max float64
	n             int
}

// readSeries parses series.csv into per-column stats plus the covered
// time span in seconds.
func readSeries(dir string) (names []string, stats []seriesStats, spanS float64, err error) {
	f, err := os.Open(filepath.Join(dir, SeriesFile))
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("telemetry: %s: %w", SeriesFile, err)
	}
	if len(header) < 2 || header[0] != "start_s" || header[1] != "end_s" {
		return nil, nil, 0, fmt.Errorf("telemetry: %s: unexpected header %v", SeriesFile, header)
	}
	names = header[2:]
	stats = make([]seriesStats, len(names))
	first, last := 0.0, 0.0
	rows := 0
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("telemetry: %s: %w", SeriesFile, err)
		}
		start, _ := strconv.ParseFloat(rec[0], 64)
		end, _ := strconv.ParseFloat(rec[1], 64)
		if rows == 0 {
			first = start
		}
		last = end
		rows++
		for i := 0; i < len(names) && i+2 < len(rec); i++ {
			v, _ := strconv.ParseFloat(rec[i+2], 64)
			st := &stats[i]
			if st.n == 0 || v < st.min {
				st.min = v
			}
			if st.n == 0 || v > st.max {
				st.max = v
			}
			st.sum += v
			st.n++
		}
	}
	return names, stats, last - first, nil
}

// RenderReport reads a telemetry directory and renders its summary as
// a human-readable table — the `tracer report` subcommand body.
func RenderReport(w io.Writer, dir string) error {
	sum, err := ReadSummary(dir)
	if err != nil {
		return err
	}
	names, stats, spanS, err := readSeries(dir)
	if err != nil {
		return err
	}
	byName := make(map[string]seriesStats, len(names))
	for i, n := range names {
		byName[n] = stats[i]
	}

	fmt.Fprintf(w, "telemetry %s: %d windows @ %s, %d spans (%d dropped)\n",
		dir, sum.Windows, time.Duration(sum.CadenceNs), sum.Spans, sum.Dropped)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nMETRIC\tKIND\tTOTAL\tMEAN/WIN\tMAX/WIN")
	for _, c := range sum.Columns {
		// A set that never sampled a window (a fleet run) has no
		// per-window figure, which is not a measured zero.
		mean, peak := "-", "-"
		if st := byName[c.Name]; st.n > 0 {
			mean, peak = fmtNum(st.sum/float64(st.n)), fmtNum(st.max)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", c.Name, c.Kind, fmtNum(c.Total), mean, peak)
	}
	if len(sum.Histogram) > 0 {
		fmt.Fprintln(tw, "\nHISTOGRAM\tCOUNT\tMEAN\tP50\tP95\tP99")
		for _, h := range sum.Histogram {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n", h.Name, h.Count,
				fmtNum(h.Mean), fmtNum(float64(h.P50)), fmtNum(float64(h.P95)), fmtNum(float64(h.P99)))
		}
	}
	if len(sum.Power) > 0 {
		fmt.Fprintln(tw, "\nPOWER\tSAMPLES\tENERGY (J)\tMEAN (W)")
		for _, p := range sum.Power {
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\n", p.Name, p.Samples, p.EnergyJ, p.MeanWatts)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if spanS > 0 {
		fmt.Fprintf(w, "\nseries span %.3f s; open %s in Perfetto (ui.perfetto.dev) for the span view\n",
			spanS, filepath.Join(dir, ChromeFile))
	}
	return nil
}

// fmtNum renders a value compactly: integers without decimals, large
// and small magnitudes in scientific-free fixed form.
func fmtNum(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
