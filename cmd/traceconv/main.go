// Command traceconv is the trace-format transformer (paper Section
// III-A2): it converts HP SRT-style trace files into the blktrace
// ".replay" format TRACER loads, and between the binary and readable
// text formats.
//
// Conversions stream bunch-by-bunch — the full record set is never
// materialized — except from SRT sources, whose unsorted timestamps
// force a global sort before bunching.  The output is written under a
// temporary name and renamed over -out only once the whole input has
// converted, so a failed conversion leaves an existing -out untouched.
//
// Usage:
//
//	traceconv -in cello.srt -out cello.replay [-srcdev disk3] [-window 100us] [-outdev cello99]
//	traceconv -in t.replay -out t.txt -mode bin2text
//	traceconv -in t.txt -out t.replay -mode text2bin
//
// The general form of -mode is <from>2<to> with from one of srt, bin,
// text and to one of bin, text; plain "srt" means srt2bin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/simtime"
	"repro/internal/srt"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "traceconv:", err)
		os.Exit(1)
	}
}

// bunchWriter is the streaming sink shared by all output formats.
type bunchWriter interface {
	WriteBunch(blktrace.Bunch) error
	Close() error
}

// scanSource pushes a trace through the streaming callbacks: device
// first, then each bunch in order with a reusable package buffer.
type scanSource func(device func(string) error, fn blktrace.ScanFunc) error

func parseMode(mode string) (from, to string, err error) {
	if mode == "srt" {
		return "srt", "bin", nil
	}
	parts := strings.SplitN(mode, "2", 2)
	if len(parts) != 2 {
		return "", "", fmt.Errorf("unknown mode %q", mode)
	}
	from, to = parts[0], parts[1]
	switch from {
	case "srt", "bin", "text":
	default:
		return "", "", fmt.Errorf("unknown source format %q", from)
	}
	switch to {
	case "bin", "text":
	default:
		return "", "", fmt.Errorf("unknown output format %q", to)
	}
	return from, to, nil
}

func newSource(from, path string, opts srt.ConvertOptions) (scanSource, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	switch from {
	case "bin":
		return func(dev func(string) error, fn blktrace.ScanFunc) error {
			return blktrace.ScanBinary(f, dev, fn)
		}, f.Close, nil
	case "text":
		return func(dev func(string) error, fn blktrace.ScanFunc) error {
			return blktrace.ScanText(f, dev, fn)
		}, f.Close, nil
	default:
		// SRT records may arrive out of order; conversion sorts
		// globally, so this source alone materializes.
		return func(dev func(string) error, fn blktrace.ScanFunc) error {
			tr, err := srt.ConvertStream(f, opts)
			if err != nil {
				return err
			}
			if err := dev(tr.Device); err != nil {
				return err
			}
			for _, b := range tr.Bunches {
				if err := fn(b); err != nil {
					return err
				}
			}
			return nil
		}, f.Close, nil
	}
}

func newSink(to string, f *os.File, device string) (bunchWriter, error) {
	switch to {
	case "bin":
		return blktrace.NewBinaryStreamWriter(f, device)
	case "text":
		return blktrace.NewTextStreamWriter(f, device)
	}
	return nil, fmt.Errorf("unknown output format %q", to)
}

// output is the conversion's destination.  A new or regular -out is
// written as path+".tmp" and renamed over path by commit, as the trace
// repository stores entries, so a failed conversion leaves an existing
// file untouched and creates none.  Any other path (a device or a
// pipe) is written in place.
type output struct {
	*os.File
	final string // path that commit renames the file to; "" in place
}

func createOutput(path string) (*output, error) {
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		return &output{File: f}, nil
	}
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	return &output{File: f, final: path}, nil
}

// commit closes the file and moves it into place.
func (o *output) commit() error {
	err := o.Close()
	if err == nil && o.final != "" {
		err = os.Rename(o.Name(), o.final)
	}
	if err != nil {
		o.discard()
	}
	return err
}

// discard closes the file and removes the temporary copy.
func (o *output) discard() {
	o.Close()
	if o.final != "" {
		os.Remove(o.Name())
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("traceconv", flag.ContinueOnError)
	in := fs.String("in", "", "input file (required)")
	outPath := fs.String("out", "", "output file (required)")
	mode := fs.String("mode", "srt", "conversion <from>2<to> with <from> srt, bin or text and <to> bin or text; srt means srt2bin")
	srcDev := fs.String("srcdev", "", "srt: filter records to one source device")
	outDev := fs.String("outdev", "", "srt: device label for the output trace")
	window := fs.Duration("window", 100_000, "srt: bunch coalescing window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *outPath == "" {
		return fmt.Errorf("-in and -out are required")
	}
	from, to, err := parseMode(*mode)
	if err != nil {
		return err
	}

	scan, closeSrc, err := newSource(from, *in, srt.ConvertOptions{
		Device:       *srcDev,
		OutputDevice: *outDev,
		BunchWindow:  simtime.FromStd(*window),
	})
	if err != nil {
		return err
	}
	defer closeSrc()

	dst, err := createOutput(*outPath)
	if err != nil {
		return err
	}
	var (
		w        bunchWriter
		ios      int64
		bunches  int64
		duration simtime.Duration
	)
	err = scan(
		func(dev string) error {
			w, err = newSink(to, dst.File, dev)
			return err
		},
		func(b blktrace.Bunch) error {
			ios += int64(len(b.Packages))
			bunches++
			duration = b.Time
			return w.WriteBunch(b)
		})
	if err == nil && w != nil {
		err = w.Close()
	}
	if err != nil {
		dst.discard()
		return err
	}
	if err := dst.commit(); err != nil {
		return err
	}
	fmt.Fprintf(out, "converted %s -> %s (%s): %d IOs, %d bunches, %.3fs\n",
		*in, *outPath, *mode, ios, bunches, duration.Seconds())
	return nil
}
