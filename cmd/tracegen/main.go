// Command tracegen is the standalone IOmeter-style workload generator:
// it drives a simulated array at peak intensity under a configured
// workload mode and writes the collected blktrace-format trace — the
// tool the paper uses to populate its 125-trace repository, usable
// without the rest of the framework.
//
// It has two mutually exclusive generation sources:
//
//	parametric:   tracegen -out trace.replay [-device hdd|ssd] [-size 4096]
//	              [-read 0.5] [-random 0.5] [-duration 2s] [-qd 8]
//	profile:      tracegen -from-profile profile.json {-out trace.replay | -repo DIR}
//	              [-scale 1.0] [-bunches N] [-read-mix F]
//	              [-periods diurnal|flash-crowd|multi-tenant|spec.json [-periods-duration D]]
//
// Common flags: [-text] [-seed 1].  A profile comes from `tracer
// analyze`; synthesis is seed-deterministic, so the same profile and
// seed always produce a byte-identical trace.  With -repo the derived
// trace is stored in the repository under the derived-name scheme
// instead of (or in addition to) -out.
//
// -periods turns on nonstationary multi-period synthesis: the profile
// is replayed window by window under a named preset or a JSON
// MultiPeriodSpec file (each window has its own load scale and read
// mix), producing diurnal swings, flash crowds or multi-tenant phase
// interleavings for cache warm-up/decay studies.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/repository"
	"repro/internal/simtime"
	"repro/internal/synth"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// parametricFlags and profileFlags partition the flag set by generation
// source; setting a flag from the wrong partition is an error, caught in
// checkFlagSources via fs.Visit.
var (
	parametricFlags = map[string]bool{
		"device": true, "size": true, "read": true, "random": true,
		"duration": true, "qd": true,
	}
	profileFlags = map[string]bool{
		"scale": true, "bunches": true, "read-mix": true, "repo": true,
		"periods": true, "periods-duration": true,
	}
)

// checkFlagSources rejects flags that do not belong to the selected
// generation source, naming the offenders and the fix.
func checkFlagSources(fs *flag.FlagSet, fromProfile bool) error {
	var wrong []string
	fs.Visit(func(f *flag.Flag) {
		if fromProfile && parametricFlags[f.Name] {
			wrong = append(wrong, "-"+f.Name)
		}
		if !fromProfile && profileFlags[f.Name] {
			wrong = append(wrong, "-"+f.Name)
		}
	})
	if len(wrong) == 0 {
		return nil
	}
	if fromProfile {
		return fmt.Errorf("%s configure the parametric generator and conflict with -from-profile (the profile already fixes the workload shape)", wrong)
	}
	return fmt.Errorf("%s only apply when synthesizing from a profile; add -from-profile profile.json or drop them", wrong)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	outPath := fs.String("out", "", "output trace file")
	device := fs.String("device", "hdd", "array kind: hdd or ssd")
	size := fs.Int64("size", 4096, "request size in bytes")
	read := fs.Float64("read", 0.5, "read ratio [0,1]")
	random := fs.Float64("random", 0.5, "random ratio [0,1]")
	duration := fs.Duration("duration", 2_000_000_000, "collection duration (virtual time)")
	qd := fs.Int("qd", 8, "outstanding IOs (queue depth)")
	text := fs.Bool("text", false, "write the text format instead of binary")
	seed := fs.Uint64("seed", 1, "generator seed")
	fromProfile := fs.String("from-profile", "", "synthesize from this workload profile JSON instead of the parametric generator")
	scale := fs.Float64("scale", 1, "profile synthesis: arrival-rate multiplier")
	bunches := fs.Int("bunches", 0, "profile synthesis: bunch count (0 = same as profile)")
	readMix := fs.Float64("read-mix", -1, "profile synthesis: override read ratio [0,1] (-1 = keep profile's)")
	repoDir := fs.String("repo", "", "profile synthesis: also store the trace in this repository under the derived-name scheme")
	periods := fs.String("periods", "", "profile synthesis: nonstationary windows — a preset (diurnal, flash-crowd, multi-tenant) or a MultiPeriodSpec JSON file")
	periodsDuration := fs.Duration("periods-duration", 10*60*1_000_000_000, "profile synthesis: total duration a -periods preset is scaled to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFlagSources(fs, *fromProfile != ""); err != nil {
		return err
	}
	if *periods == "" {
		var stray bool
		fs.Visit(func(f *flag.Flag) { stray = stray || f.Name == "periods-duration" })
		if stray {
			return fmt.Errorf("-periods-duration requires -periods")
		}
	}
	if *fromProfile != "" {
		opts := workload.SynthOptions{
			Seed:      *seed,
			Bunches:   *bunches,
			LoadScale: *scale,
			ReadRatio: *readMix,
		}
		if *periods != "" {
			if *bunches != 0 || *scale != 1 {
				return fmt.Errorf("-bunches and -scale conflict with -periods (each window sizes and scales itself)")
			}
			spec, err := loadPeriods(*periods, simtime.FromStd(*periodsDuration))
			if err != nil {
				return err
			}
			return runMultiPeriod(*fromProfile, *outPath, *repoDir, *text, spec, opts, out)
		}
		return runFromProfile(*fromProfile, *outPath, *repoDir, *text, opts, out)
	}
	if *outPath == "" {
		return fmt.Errorf("-out is required")
	}
	kind, err := experiments.KindFromString(*device)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	s, err := experiments.Build(cfg, experiments.StackSpec{Kind: kind})
	if err != nil {
		return err
	}
	tr, err := synth.Collect(s.Engine, s.Device, synth.CollectParams{
		Mode:            synth.Mode{RequestBytes: *size, ReadRatio: *read, RandomRatio: *random},
		Duration:        simtime.FromStd(*duration),
		QueueDepth:      *qd,
		WorkingSetBytes: cfg.WorkingSet,
		Seed:            *seed,
	})
	if err != nil {
		return err
	}
	if err := writeTrace(*outPath, tr, *text); err != nil {
		return err
	}
	st := blktrace.ComputeStats(tr)
	fmt.Fprintf(out, "wrote %s: %d IOs in %d bunches, peak %.0f IOPS / %.2f MBPS\n",
		*outPath, st.IOs, st.Bunches, st.MeanIOPS, st.MeanMBPS)
	return nil
}

// runFromProfile synthesizes a trace from an analyzed workload profile
// and writes it to a file, a repository, or both.
func runFromProfile(profilePath, outPath, repoDir string, text bool, opts workload.SynthOptions, out io.Writer) error {
	if outPath == "" && repoDir == "" {
		return fmt.Errorf("-from-profile needs a destination: -out FILE and/or -repo DIR")
	}
	profile, err := workload.ReadProfile(profilePath)
	if err != nil {
		return err
	}
	tr, err := workload.Synthesize(profile, opts)
	if err != nil {
		return err
	}
	st := blktrace.ComputeStats(tr)
	if outPath != "" {
		if err := writeTrace(outPath, tr, text); err != nil {
			return err
		}
		fmt.Fprintf(out, "synthesized %s from %s (seed %d): %d IOs in %d bunches, %.0f IOPS / %.2f MBPS offered\n",
			outPath, profile.Name, opts.Seed, st.IOs, st.Bunches, st.MeanIOPS, st.MeanMBPS)
	}
	if repoDir != "" {
		repo, err := repository.Open(repoDir)
		if err != nil {
			return err
		}
		// File under the source trace's device so the derived entry sits
		// next to the traces it models.
		entry, err := repo.StoreDerived(profile.Device, profile.Name, opts.Seed, tr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "stored %s: %d IOs in %d bunches, %.0f IOPS / %.2f MBPS offered\n",
			filepath.Base(entry.Path), st.IOs, st.Bunches, st.MeanIOPS, st.MeanMBPS)
	}
	return nil
}

// loadPeriods resolves -periods: a preset name scaled to total, or a
// JSON MultiPeriodSpec file (validated with labelled errors before any
// synthesis runs).
func loadPeriods(arg string, total simtime.Duration) (workload.MultiPeriodSpec, error) {
	switch arg {
	case "diurnal", "flash-crowd", "multi-tenant":
		return workload.PresetSpec(arg, total)
	}
	blob, err := os.ReadFile(arg)
	if err != nil {
		return workload.MultiPeriodSpec{}, fmt.Errorf("-periods %q is neither a preset (diurnal, flash-crowd, multi-tenant) nor a readable spec file: %w", arg, err)
	}
	var spec workload.MultiPeriodSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return workload.MultiPeriodSpec{}, fmt.Errorf("periods spec %s: %w", arg, err)
	}
	if err := spec.Validate(); err != nil {
		return workload.MultiPeriodSpec{}, err
	}
	return spec, nil
}

// runMultiPeriod synthesizes a nonstationary trace from a profile and a
// window spec and writes it like runFromProfile.
func runMultiPeriod(profilePath, outPath, repoDir string, text bool, spec workload.MultiPeriodSpec, opts workload.SynthOptions, out io.Writer) error {
	if outPath == "" && repoDir == "" {
		return fmt.Errorf("-from-profile needs a destination: -out FILE and/or -repo DIR")
	}
	profile, err := workload.ReadProfile(profilePath)
	if err != nil {
		return err
	}
	tr, err := workload.SynthesizeMulti(profile, spec, opts)
	if err != nil {
		return err
	}
	st := blktrace.ComputeStats(tr)
	if outPath != "" {
		if err := writeTrace(outPath, tr, text); err != nil {
			return err
		}
		fmt.Fprintf(out, "synthesized %s from %s x %s (%d windows, seed %d): %d IOs in %d bunches over %.1fs\n",
			outPath, profile.Name, spec.Name, len(spec.Periods), opts.Seed, st.IOs, st.Bunches, st.Duration.Seconds())
	}
	if repoDir != "" {
		repo, err := repository.Open(repoDir)
		if err != nil {
			return err
		}
		entry, err := repo.StoreDerived(profile.Device, profile.Name+"-"+spec.Name, opts.Seed, tr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "stored %s: %d IOs in %d bunches over %.1fs\n",
			filepath.Base(entry.Path), st.IOs, st.Bunches, st.Duration.Seconds())
	}
	return nil
}

// writeTrace writes a trace in the binary or text format.
func writeTrace(path string, tr *blktrace.Trace, text bool) error {
	if !text {
		return blktrace.WriteFile(path, tr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := blktrace.WriteText(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
