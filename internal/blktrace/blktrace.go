// Package blktrace models block-level I/O trace files in the structure
// TRACER replays (paper Fig. 4).
//
// A trace is a sequence of bunches.  Each bunch carries an arrival
// timestamp and a set of IO_packages that were issued concurrently;
// each IO_package names a starting sector, a size in bytes and a
// read/write direction.  The paper's 2-minute RAID-5 trace holds about
// 50,000 bunches and 400,000 IO_packages in this shape.
//
// Traces are stored in two formats: a compact binary format (the
// ".replay" files TRACER loads) and a line-oriented text format
// convenient for inspection and for hand-written fixtures.  Each format
// has one decoder (ScanBinary, ScanText) and one record encoder
// (BinaryStreamWriter, TextStreamWriter); the whole-trace Read*/Write*
// helpers are built on them, and every decoder enforces Trace.Validate's
// rules bunch by bunch, failing with ErrBadFormat.
package blktrace

import (
	"fmt"
	"math"

	"repro/internal/simtime"
	"repro/internal/storage"
)

// IOPackage is one block-level request inside a bunch (paper Fig. 4):
// starting sector, request size in bytes, and the operation type.
type IOPackage struct {
	// Sector is the starting 512-byte sector on the device.
	Sector int64
	// Size is the request length in bytes.
	Size int64
	// Op is the transfer direction.
	Op storage.Op
}

// Request converts the package to a storage request.
func (p IOPackage) Request() storage.Request {
	return storage.Request{Op: p.Op, Offset: p.Sector * storage.SectorSize, Size: p.Size}
}

// Bunch is a set of concurrent IO_packages sharing one arrival time,
// expressed as an offset from the start of the trace.
type Bunch struct {
	// Time is the arrival time of every package in the bunch.
	Time simtime.Duration
	// Packages are the concurrent requests.  Replay issues them in
	// parallel (paper Section IV-A).
	Packages []IOPackage
}

// Trace is an ordered sequence of bunches plus the metadata TRACER's
// repository encodes in file names.
type Trace struct {
	// Device labels the storage system the trace was collected on.
	Device string
	// Bunches are ordered by non-decreasing Time.
	Bunches []Bunch
}

// NumBunches reports the number of bunches.
func (t *Trace) NumBunches() int { return len(t.Bunches) }

// NumIOs reports the total number of IO_packages.
func (t *Trace) NumIOs() int {
	n := 0
	for i := range t.Bunches {
		n += len(t.Bunches[i].Packages)
	}
	return n
}

// Duration reports the arrival time of the last bunch (the replay
// horizon; service of the final requests extends past it).
func (t *Trace) Duration() simtime.Duration {
	if len(t.Bunches) == 0 {
		return 0
	}
	return t.Bunches[len(t.Bunches)-1].Time
}

// TotalBytes sums request sizes across the trace.
func (t *Trace) TotalBytes() int64 {
	var b int64
	for i := range t.Bunches {
		for _, p := range t.Bunches[i].Packages {
			b += p.Size
		}
	}
	return b
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace { return t.copyBunches(nil, len(t.Bunches)) }

// Subset returns a deep copy of the bunches at the given indices, in
// that order, under the trace's device label.
func (t *Trace) Subset(idx []int) *Trace { return t.copyBunches(idx, len(idx)) }

// copyBunches deep-copies n bunches: those at idx, or the first n when
// idx is nil.  It sizes the output up front and copies every package
// into one flat buffer; each bunch's packages are a capacity-clipped
// window of it, so appending to one bunch never overwrites the next.
func (t *Trace) copyBunches(idx []int, n int) *Trace {
	src := func(k int) *Bunch {
		if idx == nil {
			return &t.Bunches[k]
		}
		return &t.Bunches[idx[k]]
	}
	total := 0
	for k := range n {
		total += len(src(k).Packages)
	}
	flat := make([]IOPackage, 0, total)
	out := &Trace{Device: t.Device, Bunches: make([]Bunch, n)}
	for k := range out.Bunches {
		b := src(k)
		out.Bunches[k].Time = b.Time
		if len(b.Packages) > 0 {
			lo := len(flat)
			flat = append(flat, b.Packages...)
			out.Bunches[k].Packages = flat[lo:len(flat):len(flat)]
		}
	}
	return out
}

// Validate checks the rules every decoder enforces as it reads:
// non-negative, non-decreasing bunch times, non-empty bunches, and
// packages with a valid op, a positive size and a byte range
// [Sector·512, Sector·512+Size) that fits in int64.  Its errors wrap
// ErrBadFormat and name the offending bunch and package.
func (t *Trace) Validate() error {
	var v validator
	for _, b := range t.Bunches {
		if err := v.check(b); err != nil {
			return err
		}
	}
	return nil
}

// validator applies Validate's rules one bunch at a time, so a decoder
// checks each bunch as it reads it.
type validator struct {
	prev simtime.Duration
	n    int // bunches accepted so far
}

func (v *validator) check(b Bunch) error {
	switch {
	case b.Time < 0:
		return fmt.Errorf("%w: bunch %d has negative time %v", ErrBadFormat, v.n, b.Time)
	case v.n > 0 && b.Time < v.prev:
		return fmt.Errorf("%w: bunch %d time %v precedes bunch %d time %v", ErrBadFormat, v.n, b.Time, v.n-1, v.prev)
	case len(b.Packages) == 0:
		return fmt.Errorf("%w: bunch %d is empty", ErrBadFormat, v.n)
	}
	for j, p := range b.Packages {
		if err := p.check(); err != nil {
			return fmt.Errorf("%w: bunch %d package %d: %v", ErrBadFormat, v.n, j, err)
		}
	}
	v.prev = b.Time
	v.n++
	return nil
}

// check reports why no device could serve p: an invalid op, a
// non-positive size, or a byte range [Sector·512, Sector·512+Size) that
// does not fit in int64, where Request would wrap it.
func (p IOPackage) check() error {
	if p.Sector > math.MaxInt64/storage.SectorSize {
		return fmt.Errorf("sector %d: byte offset overflows int64", p.Sector)
	}
	r := p.Request()
	if err := r.Validate(0); err != nil {
		return err
	}
	if r.Size > math.MaxInt64-r.Offset {
		return fmt.Errorf("byte range at %d of %d bytes overflows int64", r.Offset, r.Size)
	}
	return nil
}

// Stats summarises the workload characteristics the paper's repository
// encodes in trace names and reports in Table III.
type Stats struct {
	// Bunches and IOs are structural counts.
	Bunches, IOs int
	// Duration is the arrival span of the trace.
	Duration simtime.Duration
	// TotalBytes is the sum of request sizes.
	TotalBytes int64
	// AvgRequestBytes is TotalBytes / IOs.
	AvgRequestBytes float64
	// ReadRatio is the fraction of IOs that are reads (by count).
	ReadRatio float64
	// RandomRatio is the fraction of IOs that do NOT continue the
	// previous request's sector range (first IO counts as random).
	RandomRatio float64
	// MeanIOPS and MeanMBPS are offered intensity over Duration.
	MeanIOPS, MeanMBPS float64
	// MaxBunchSize is the largest concurrency level in one bunch.
	MaxBunchSize int
	// Seeks counts IOs that did not continue the previous request's
	// byte range (the numerator of RandomRatio; the first IO counts).
	Seeks int
	// MeanSeekSectors and MaxSeekSectors summarise the absolute
	// distance (in sectors) jumped at each seek after the first IO.
	MeanSeekSectors float64
	MaxSeekSectors  int64
	// SeqRuns counts maximal sequential runs; MeanRunIOs and MaxRunIOs
	// summarise their lengths in IOs.
	SeqRuns    int
	MeanRunIOs float64
	MaxRunIOs  int
}

// SeekCounter accumulates the spatial-locality accounting shared by
// ComputeStats and the workload profiler: which IOs continue the
// previous request's byte range, how far each seek jumps, and how long
// sequential runs last.  The zero value is ready to use; feed every
// IOPackage in trace order through Observe and call Finish once at the
// end to flush the final run.
type SeekCounter struct {
	// OnSeek, when non-nil, receives the absolute seek distance in
	// sectors for every seek after the first IO (the first IO has no
	// predecessor, so no distance).
	OnSeek func(absSectors int64)
	// OnRunEnd, when non-nil, receives the length in IOs of every
	// completed maximal sequential run.
	OnRunEnd func(ios int)

	// IOs, Seeks and SeqIOs partition the observed stream: every IO is
	// either a seek (including the first) or a sequential continuation.
	IOs, Seeks, SeqIOs int
	// SumSeekSectors and MaxSeekSectors aggregate absolute seek
	// distances (float sum: distances on large devices can overflow an
	// int64 accumulator over long traces).
	SumSeekSectors float64
	MaxSeekSectors int64
	// Runs and MaxRunIOs aggregate completed sequential runs; they are
	// only final after Finish.
	Runs      int
	MaxRunIOs int

	started bool
	prevEnd int64 // byte address one past the previous request
	runIOs  int
}

// Observe feeds one IO in trace order.
func (c *SeekCounter) Observe(p IOPackage) {
	off := p.Sector * storage.SectorSize
	if c.started && off == c.prevEnd {
		c.SeqIOs++
		c.runIOs++
	} else {
		if c.started {
			dist := (off - c.prevEnd) / storage.SectorSize
			if dist < 0 {
				dist = -dist
			}
			c.SumSeekSectors += float64(dist)
			if dist > c.MaxSeekSectors {
				c.MaxSeekSectors = dist
			}
			if c.OnSeek != nil {
				c.OnSeek(dist)
			}
			c.endRun()
		}
		c.Seeks++
		c.runIOs = 1
		c.started = true
	}
	c.IOs++
	c.prevEnd = off + p.Size
}

// Finish flushes the trailing sequential run.  Observe must not be
// called afterwards.
func (c *SeekCounter) Finish() {
	if c.started {
		c.endRun()
		c.started = false
	}
}

func (c *SeekCounter) endRun() {
	c.Runs++
	if c.runIOs > c.MaxRunIOs {
		c.MaxRunIOs = c.runIOs
	}
	if c.OnRunEnd != nil {
		c.OnRunEnd(c.runIOs)
	}
	c.runIOs = 0
}

// ComputeStats derives workload statistics from the trace.
func ComputeStats(t *Trace) Stats {
	s := Stats{Bunches: len(t.Bunches), Duration: t.Duration()}
	var reads int
	var sc SeekCounter
	for i := range t.Bunches {
		b := &t.Bunches[i]
		if len(b.Packages) > s.MaxBunchSize {
			s.MaxBunchSize = len(b.Packages)
		}
		for _, p := range b.Packages {
			s.IOs++
			s.TotalBytes += p.Size
			if p.Op == storage.Read {
				reads++
			}
			sc.Observe(p)
		}
	}
	sc.Finish()
	s.Seeks = sc.Seeks
	s.MaxSeekSectors = sc.MaxSeekSectors
	s.SeqRuns = sc.Runs
	s.MaxRunIOs = sc.MaxRunIOs
	if seeks := sc.Seeks - 1; seeks > 0 {
		s.MeanSeekSectors = sc.SumSeekSectors / float64(seeks)
	}
	if sc.Runs > 0 {
		s.MeanRunIOs = float64(sc.IOs) / float64(sc.Runs)
	}
	if s.IOs > 0 {
		s.AvgRequestBytes = float64(s.TotalBytes) / float64(s.IOs)
		s.ReadRatio = float64(reads) / float64(s.IOs)
		s.RandomRatio = float64(sc.Seeks) / float64(s.IOs)
	}
	if secs := s.Duration.Seconds(); secs > 0 {
		s.MeanIOPS = float64(s.IOs) / secs
		s.MeanMBPS = float64(s.TotalBytes) / (1 << 20) / secs
	}
	return s
}

// Builder incrementally assembles a trace from timed I/O observations,
// coalescing packages that share an arrival time into one bunch.  The
// trace collector in internal/synth uses it; it is also convenient in
// tests.
type Builder struct {
	trace Trace
}

// NewBuilder returns a builder for a trace on the named device.
func NewBuilder(device string) *Builder {
	return &Builder{trace: Trace{Device: device}}
}

// Record appends one IO at the given arrival time.  Arrival times must
// be non-decreasing.
func (b *Builder) Record(at simtime.Duration, p IOPackage) error {
	n := len(b.trace.Bunches)
	if n > 0 && at < b.trace.Bunches[n-1].Time {
		return fmt.Errorf("blktrace: record at %v before last bunch %v", at, b.trace.Bunches[n-1].Time)
	}
	if n > 0 && at == b.trace.Bunches[n-1].Time {
		b.trace.Bunches[n-1].Packages = append(b.trace.Bunches[n-1].Packages, p)
		return nil
	}
	b.trace.Bunches = append(b.trace.Bunches, Bunch{Time: at, Packages: []IOPackage{p}})
	return nil
}

// Trace returns the assembled trace.  The builder must not be used
// afterwards.
func (b *Builder) Trace() *Trace { return &b.trace }
