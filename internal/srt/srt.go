// Package srt parses HP-labs-style SRT disk I/O trace records and
// converts them to the blktrace format TRACER replays.
//
// The paper's trace-format transformer turns HP cello96/cello99 trace
// files (extension .srt) into .replay files, because TRACER can only
// load blktrace-format traces (Section III-A2).  The HP distribution is
// proprietary and not available offline, so this package defines a
// documented textual SRT record layout carrying the same information as
// the disk-level records in the HP traces:
//
//	<timestamp-seconds> <device> <start-byte> <length-bytes> <R|W>
//
// one record per line, '#' comments allowed.  The converter groups
// records that arrive within a configurable bunch window (concurrent
// submissions) and rebases timestamps so the trace starts at zero —
// precisely what TRACER's transformer must do for replay to work.
package srt

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// Record is one SRT disk I/O event.
type Record struct {
	// Timestamp is seconds since an arbitrary epoch.
	Timestamp float64
	// Device names the disk the request targeted (e.g. "disk3").
	Device string
	// StartByte is the byte offset of the access.
	StartByte int64
	// Length is the access length in bytes.
	Length int64
	// Op is the transfer direction.
	Op storage.Op
}

// Parse reads SRT records from r.  Lines that are empty or start with
// '#' are skipped.  Records need not be time-sorted (the HP traces
// interleave devices); Convert sorts them.
func Parse(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var recs []Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 {
			return nil, fmt.Errorf("srt: line %d: want 5 fields, got %d", lineNo, len(fields))
		}
		ts, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || math.IsNaN(ts) || math.IsInf(ts, 0) || ts < 0 {
			return nil, fmt.Errorf("srt: line %d: bad timestamp %q", lineNo, fields[0])
		}
		start, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || start < 0 {
			return nil, fmt.Errorf("srt: line %d: bad start byte %q", lineNo, fields[2])
		}
		length, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil || length <= 0 {
			return nil, fmt.Errorf("srt: line %d: bad length %q", lineNo, fields[3])
		}
		if start > math.MaxInt64-length {
			return nil, fmt.Errorf("srt: line %d: start %d + length %d overflows", lineNo, start, length)
		}
		var op storage.Op
		switch strings.ToUpper(fields[4]) {
		case "R":
			op = storage.Read
		case "W":
			op = storage.Write
		default:
			return nil, fmt.Errorf("srt: line %d: bad op %q", lineNo, fields[4])
		}
		recs = append(recs, Record{Timestamp: ts, Device: fields[1], StartByte: start, Length: length, Op: op})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("srt: line %d: %w", lineNo+1, err)
	}
	return recs, nil
}

// ConvertOptions tune the SRT -> blktrace transformation.
type ConvertOptions struct {
	// Device filters records to one device name; empty keeps all.
	Device string
	// BunchWindow groups records whose timestamps fall within the same
	// window into one concurrent bunch.  Zero means exact timestamp
	// equality only.
	BunchWindow simtime.Duration
	// OutputDevice names the resulting trace; defaults to the filter
	// device or "srt".
	OutputDevice string
}

// Convert transforms SRT records to a blktrace trace: filter, sort by
// time, rebase to zero, and coalesce near-simultaneous records into
// bunches.  Conversion preserves the op mix, byte volume and relative
// timing of the source records.  A record that lands past
// simtime.Horizon after the first is an error: no replay could place
// it, and converting its offset to nanoseconds could wrap.
func Convert(recs []Record, opts ConvertOptions) (*blktrace.Trace, error) {
	filtered := make([]Record, 0, len(recs))
	for _, r := range recs {
		if opts.Device == "" || r.Device == opts.Device {
			filtered = append(filtered, r)
		}
	}
	name := opts.OutputDevice
	if name == "" {
		if opts.Device != "" {
			name = opts.Device
		} else {
			name = "srt"
		}
	}
	if len(filtered) == 0 {
		return &blktrace.Trace{Device: name}, nil
	}
	sort.SliceStable(filtered, func(i, j int) bool { return filtered[i].Timestamp < filtered[j].Timestamp })
	base := filtered[0].Timestamp
	builder := blktrace.NewBuilder(name)
	var bunchStart simtime.Duration = -1
	horizon := simtime.Horizon.Seconds()
	for _, r := range filtered {
		rel := r.Timestamp - base
		if rel > horizon {
			return nil, fmt.Errorf("srt: convert: record at %gs is %gs after the first, past the %gs simulation horizon", r.Timestamp, rel, horizon)
		}
		at := simtime.FromSeconds(rel)
		// Coalesce into the open bunch when inside the window.
		if bunchStart >= 0 && at-bunchStart <= opts.BunchWindow {
			at = bunchStart
		} else {
			bunchStart = at
		}
		pkg := blktrace.IOPackage{
			Sector: r.StartByte / storage.SectorSize,
			Size:   r.Length,
			Op:     r.Op,
		}
		if err := builder.Record(at, pkg); err != nil {
			return nil, fmt.Errorf("srt: convert: %w", err)
		}
	}
	t := builder.Trace()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("srt: converted trace invalid: %w", err)
	}
	return t, nil
}

// ConvertStream is a convenience that parses and converts in one step,
// mirroring the command-line transformer (cmd/traceconv).
func ConvertStream(r io.Reader, opts ConvertOptions) (*blktrace.Trace, error) {
	recs, err := Parse(r)
	if err != nil {
		return nil, err
	}
	return Convert(recs, opts)
}
