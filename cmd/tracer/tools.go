package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/repository"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// Trace-manipulation subcommands: slice, merge, remap, dump.  They
// wrap internal/blktrace's utilities so operators can prepare replay
// inputs (cut a window out of a long trace, merge per-device streams,
// retarget capacities) without writing Go.

// storeAs writes a trace into the repository under a real-trace label.
func storeAs(repo *repository.Repository, device, label string, t *blktrace.Trace) (string, error) {
	e, err := repo.StoreReal(device, label, t)
	if err != nil {
		return "", err
	}
	parts := strings.Split(e.Path, "/")
	return parts[len(parts)-1], nil
}

// cmdSlice cuts a time window out of a trace.
func cmdSlice(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slice", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	name := fs.String("trace", "", "input trace name")
	from := fs.Duration("from", 0, "window start (virtual time)")
	to := fs.Duration("to", 0, "window end (virtual time, required)")
	label := fs.String("label", "", "output label (default <input>-slice)")
	device := fs.String("device", "raid5-hdd", "device label for the output name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *to == 0 {
		return fmt.Errorf("slice: -trace and -to are required")
	}
	repo, err := repository.Open(*dir)
	if err != nil {
		return err
	}
	tr, err := repo.Load(*name)
	if err != nil {
		return err
	}
	got, err := blktrace.Slice(tr, simtime.FromStd(*from), simtime.FromStd(*to))
	if err != nil {
		return err
	}
	lbl := *label
	if lbl == "" {
		lbl = strings.TrimSuffix(*name, repository.Ext) + "-slice"
	}
	stored, err := storeAs(repo, *device, lbl, got)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sliced %s [%v, %v) -> %s: %d IOs\n", *name, *from, *to, stored, got.NumIOs())
	return nil
}

// cmdMerge interleaves several repository traces.
func cmdMerge(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	names := fs.String("traces", "", "comma-separated input trace names")
	label := fs.String("label", "merged", "output label")
	device := fs.String("device", "raid5-hdd", "device label for the output name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := repository.Open(*dir)
	if err != nil {
		return err
	}
	var inputs []*blktrace.Trace
	for _, n := range strings.Split(*names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		tr, err := repo.Load(n)
		if err != nil {
			return err
		}
		inputs = append(inputs, tr)
	}
	if len(inputs) < 2 {
		return fmt.Errorf("merge: need at least two traces, got %d", len(inputs))
	}
	got, err := blktrace.Merge(*label, inputs...)
	if err != nil {
		return err
	}
	stored, err := storeAs(repo, *device, *label, got)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "merged %d traces -> %s: %d IOs in %d bunches\n",
		len(inputs), stored, got.NumIOs(), got.NumBunches())
	return nil
}

// cmdRemap rescales a trace's address space.
func cmdRemap(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("remap", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	name := fs.String("trace", "", "input trace name")
	fromBytes := fs.Int64("from-bytes", 0, "source capacity in bytes (required)")
	toBytes := fs.Int64("to-bytes", 0, "target capacity in bytes (required)")
	label := fs.String("label", "", "output label (default <input>-remap)")
	device := fs.String("device", "raid5-hdd", "device label for the output name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *fromBytes <= 0 || *toBytes <= 0 {
		return fmt.Errorf("remap: -trace, -from-bytes and -to-bytes are required")
	}
	repo, err := repository.Open(*dir)
	if err != nil {
		return err
	}
	tr, err := repo.Load(*name)
	if err != nil {
		return err
	}
	got, err := blktrace.RemapAddresses(tr, *fromBytes, *toBytes)
	if err != nil {
		return err
	}
	lbl := *label
	if lbl == "" {
		lbl = strings.TrimSuffix(*name, repository.Ext) + "-remap"
	}
	stored, err := storeAs(repo, *device, lbl, got)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "remapped %s %d -> %d bytes -> %s\n", *name, *fromBytes, *toBytes, stored)
	return nil
}

// cmdDump prints the head of a trace in human-readable form.
func cmdDump(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dump", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	name := fs.String("trace", "", "trace name")
	n := fs.Int("n", 10, "number of bunches to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("dump: -trace is required")
	}
	tr, err := loadTrace(*dir, *name, "")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace %s (device %s), %d bunches, %d IOs\n", *name, tr.Device, tr.NumBunches(), tr.NumIOs())
	for i, b := range tr.Bunches {
		if i >= *n {
			fmt.Fprintf(out, "... %d more bunches\n", tr.NumBunches()-*n)
			break
		}
		fmt.Fprintf(out, "t=%.6fs (%d IOs)\n", b.Time.Seconds(), len(b.Packages))
		for _, p := range b.Packages {
			op := "R"
			if p.Op == storage.Write {
				op = "W"
			}
			fmt.Fprintf(out, "  %s sector %d size %d\n", op, p.Sector, p.Size)
		}
	}
	return nil
}
