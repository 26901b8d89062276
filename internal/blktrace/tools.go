package blktrace

import (
	"fmt"
	"sort"

	"repro/internal/simtime"
)

// This file holds trace-manipulation utilities: the paper's workflow
// (slice a 30-minute window out of a week-long web trace, merge
// per-device cello streams, retarget capacities) needs them
// constantly, and they back the tracer CLI's slice/merge/remap
// subcommands.

// Slice returns the bunches with from <= Time < to, rebased so the
// window starts at zero.
func Slice(t *Trace, from, to simtime.Duration) (*Trace, error) {
	if to <= from || from < 0 {
		return nil, fmt.Errorf("blktrace: bad slice window [%v, %v)", from, to)
	}
	out := &Trace{Device: t.Device}
	for _, b := range t.Bunches {
		if b.Time < from || b.Time >= to {
			continue
		}
		out.Bunches = append(out.Bunches, Bunch{
			Time:     b.Time - from,
			Packages: append([]IOPackage(nil), b.Packages...),
		})
	}
	return out, nil
}

// Merge interleaves traces by timestamp into one stream, coalescing
// bunches that land on the same instant.  The paper's cello traces are
// per-device; replaying the machine's workload means merging them.
func Merge(device string, traces ...*Trace) (*Trace, error) {
	type stamped struct {
		time simtime.Duration
		pkgs []IOPackage
		seq  int // stable interleave for equal timestamps
	}
	var all []stamped
	seq := 0
	for _, t := range traces {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("blktrace: merge input: %w", err)
		}
		for _, b := range t.Bunches {
			all = append(all, stamped{time: b.Time, pkgs: b.Packages, seq: seq})
			seq++
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].time < all[j].time })
	builder := NewBuilder(device)
	for _, s := range all {
		for _, p := range s.pkgs {
			if err := builder.Record(s.time, p); err != nil {
				return nil, err
			}
		}
	}
	return builder.Trace(), nil
}

// RemapAddresses scales and wraps sector addresses so a trace collected
// on a store of fromBytes plays onto a device of toBytes while
// preserving relative locality: offsets scale linearly, sizes are kept,
// and everything stays sector-aligned.
func RemapAddresses(t *Trace, fromBytes, toBytes int64) (*Trace, error) {
	if fromBytes <= 0 || toBytes <= 0 {
		return nil, fmt.Errorf("blktrace: bad capacities %d -> %d", fromBytes, toBytes)
	}
	out := t.Clone()
	for i := range out.Bunches {
		for j := range out.Bunches[i].Packages {
			p := &out.Bunches[i].Packages[j]
			off := p.Sector * 512
			scaled := int64(float64(off) * float64(toBytes) / float64(fromBytes))
			if scaled+p.Size > toBytes {
				scaled = toBytes - p.Size
				if scaled < 0 {
					scaled = 0
				}
			}
			p.Sector = scaled / 512
		}
	}
	return out, nil
}
