package main

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/repository"
	"repro/internal/workload"
)

// cmdAnalyze characterizes a trace into a workload profile: interarrival
// burst/idle structure, request-size and bunch-size distributions,
// read/write mix, and spatial locality (seek distances, sequential runs,
// Zipf-fitted hot zones).  The JSON profile feeds tracegen -from-profile.
func cmdAnalyze(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	name := fs.String("trace", "", "trace file name within the repository")
	in := fs.String("in", "", "analyze a trace file directly instead of a repository entry")
	outPath := fs.String("out", "", "profile JSON output file (default: stdout)")
	label := fs.String("name", "", "profile label (default: derived from the trace name)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*name == "") == (*in == "") {
		return fmt.Errorf("analyze: exactly one of -trace or -in is required")
	}
	tr, err := loadTrace(*dir, *name, *in)
	if err != nil {
		return err
	}
	src := *name + *in // exactly one is set
	if *label == "" {
		*label = profileLabel(src)
	}
	profile, err := workload.Analyze(tr, *label)
	if err != nil {
		return err
	}
	if *outPath != "" {
		if err := workload.WriteProfile(*outPath, profile); err != nil {
			return err
		}
		fmt.Fprintf(out, "analyzed %s: %d bunches, %d IOs, read %.1f%%, seq %.1f%%, zipf theta %.2f -> %s\n",
			src, profile.Bunches, profile.IOs, profile.ReadRatio*100,
			profile.Spatial.SeqRatio*100, profile.Spatial.ZipfTheta, *outPath)
		return nil
	}
	return profile.Encode(out)
}

// profileLabel derives a short profile label from a trace file name or
// path: base name without the extension.
func profileLabel(src string) string {
	base := filepath.Base(src)
	for _, ext := range []string{repository.Ext, ".txt", ".trace"} {
		base = strings.TrimSuffix(base, ext)
	}
	if base == "" || base == "." {
		return "trace"
	}
	return base
}
