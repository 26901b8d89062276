package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/simtime"
)

// cmdPaper regenerates the paper's evaluation artifacts (Figs. 7–12,
// Tables III–V, the VI-G SSD study, the ablation and extension
// studies, the mode sweep and the workload study) on the simulated
// testbed and prints them in the paper's layout, each framed by an
// "=== name ===" line.  Independent simulation cells fan out across
// -workers goroutines, and the output holds no wall-clock reading, so
// it is byte-identical at any worker count.  At the default -duration
// it is exactly the committed golden the paper gate of `tracer verify`
// diffs.  A failing artifact prints a FAIL line and the rest still
// run; the exit status is non-zero.
func cmdPaper(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	names := fs.String("run", "all", "comma-separated artifact names or 'all'")
	duration := fs.Duration("duration", 2*time.Second, "per-trace collection duration (virtual time)")
	workers := fs.Int("workers", 0, "parallel simulation cells (0 = all cores, 1 = sequential)")
	list := fs.Bool("list", false, "list artifact names and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arts := experiments.Artifacts()
	if *list {
		for _, a := range arts {
			fmt.Fprintln(out, a.Name)
		}
		return nil
	}
	if *duration <= 0 {
		return fmt.Errorf("paper: -duration must be positive, got %v", *duration)
	}
	if *names != "all" {
		want := strings.Split(*names, ",")
		for i, n := range want {
			want[i] = strings.TrimSpace(n)
			if !slices.ContainsFunc(arts, func(a experiments.Artifact) bool { return a.Name == want[i] }) {
				return fmt.Errorf("paper: unknown artifact %q (use -list)", want[i])
			}
		}
		arts = slices.DeleteFunc(arts, func(a experiments.Artifact) bool { return !slices.Contains(want, a.Name) })
	}
	cfg := experiments.DefaultConfig()
	cfg.CollectDuration = simtime.FromStd(*duration)
	cfg.Workers = *workers
	return experiments.RenderArtifacts(out, cfg, arts)
}
