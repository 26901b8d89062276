// Package blktrace models block-level I/O trace files in the structure
// TRACER replays (paper Fig. 4).
//
// A trace is a sequence of bunches.  Each bunch carries an arrival
// timestamp and a set of IO_packages that were issued concurrently;
// each IO_package names a starting sector, a size in bytes and a
// read/write direction.  The paper's 2-minute RAID-5 trace holds about
// 50,000 bunches and 400,000 IO_packages in this shape.
//
// Two codecs are provided: a compact binary format (the ".replay" files
// TRACER loads) and a line-oriented text format convenient for
// inspection and for hand-written fixtures.
package blktrace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

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

// BunchTime reports bunch i's arrival offset.  BunchTime, BunchSize and
// Package mirror MappedTrace's accessors; fleet.TraceStream reads
// through them.
func (t *Trace) BunchTime(i int) simtime.Duration { return t.Bunches[i].Time }

// BunchSize reports the number of packages in bunch i.
func (t *Trace) BunchSize(i int) int { return len(t.Bunches[i].Packages) }

// Package returns package pkg of bunch i.
func (t *Trace) Package(i, pkg int) IOPackage { return t.Bunches[i].Packages[pkg] }

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
func (t *Trace) Clone() *Trace {
	out := &Trace{Device: t.Device, Bunches: make([]Bunch, len(t.Bunches))}
	for i, b := range t.Bunches {
		out.Bunches[i] = Bunch{Time: b.Time, Packages: append([]IOPackage(nil), b.Packages...)}
	}
	return out
}

// Validate checks structural invariants: non-decreasing bunch times,
// non-empty bunches, and well-formed packages.
func (t *Trace) Validate() error {
	var prev simtime.Duration = -1
	for i, b := range t.Bunches {
		if b.Time < 0 {
			return fmt.Errorf("blktrace: bunch %d has negative time %v", i, b.Time)
		}
		if b.Time < prev {
			return fmt.Errorf("blktrace: bunch %d time %v precedes bunch %d time %v", i, b.Time, i-1, prev)
		}
		prev = b.Time
		if len(b.Packages) == 0 {
			return fmt.Errorf("blktrace: bunch %d is empty", i)
		}
		for j, p := range b.Packages {
			if err := p.Request().Validate(0); err != nil {
				return fmt.Errorf("blktrace: bunch %d package %d: %w", i, j, err)
			}
		}
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

// Binary format
//
//	magic "TRCRPLAY" | u16 version | u16 devlen | devname |
//	u32 nbunches | for each bunch: i64 time_ns, u32 npackages,
//	for each package: i64 sector, i64 size, u8 op.

var binaryMagic = [8]byte{'T', 'R', 'C', 'R', 'P', 'L', 'A', 'Y'}

const (
	binaryVersion = 1
	// pkgRecordSize is the encoded size of one IOPackage record; file
	// length divided by it bounds the package count, which ReadFile uses
	// to pre-size the decode arena.
	pkgRecordSize = 17
	// fileBufSize is the bufio size for whole-file trace IO.  Trace
	// files are hundreds of kilobytes to tens of megabytes; 1 MiB keeps
	// syscall counts low without noticeable memory cost.
	fileBufSize = 1 << 20
	// arenaChunk is the fallback arena allocation granularity (in
	// packages) when no size hint is available.
	arenaChunk = 4096
)

// ErrBadFormat reports a malformed trace file.
var ErrBadFormat = errors.New("blktrace: malformed trace file")

// pkgArena carves per-bunch package slices out of large flat
// allocations, so decoding a 50k-bunch trace costs a handful of
// allocations instead of one per bunch.  Carved slices are capped
// (3-index) so a later append on a bunch cannot clobber its neighbour.
type pkgArena struct {
	buf []IOPackage
}

// take returns an empty slice with capacity n backed by the arena.
func (a *pkgArena) take(n int) []IOPackage {
	if n > len(a.buf) {
		chunk := arenaChunk
		if n > chunk {
			chunk = n
		}
		a.buf = make([]IOPackage, chunk)
	}
	s := a.buf[0:0:n]
	a.buf = a.buf[n:]
	return s
}

// Write encodes the trace in the binary .replay format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if err := writeTo(bw, t); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile encodes the trace to a file, buffered for bulk writing.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, fileBufSize)
	if err := writeTo(bw, t); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTo(bw *bufio.Writer, t *Trace) error {
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	if len(t.Device) > math.MaxUint16 {
		return fmt.Errorf("blktrace: device name too long (%d bytes)", len(t.Device))
	}
	var scratch [12]byte
	binary.LittleEndian.PutUint16(scratch[0:2], binaryVersion)
	binary.LittleEndian.PutUint16(scratch[2:4], uint16(len(t.Device)))
	if _, err := bw.Write(scratch[0:4]); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Device); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(scratch[0:4], uint32(len(t.Bunches)))
	if _, err := bw.Write(scratch[0:4]); err != nil {
		return err
	}
	for i := range t.Bunches {
		b := &t.Bunches[i]
		binary.LittleEndian.PutUint64(scratch[0:8], uint64(b.Time))
		binary.LittleEndian.PutUint32(scratch[8:12], uint32(len(b.Packages)))
		if _, err := bw.Write(scratch[0:12]); err != nil {
			return err
		}
		for _, p := range b.Packages {
			var rec [17]byte
			binary.LittleEndian.PutUint64(rec[0:8], uint64(p.Sector))
			binary.LittleEndian.PutUint64(rec[8:16], uint64(p.Size))
			rec[16] = byte(p.Op)
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Read decodes a binary .replay trace.
func Read(r io.Reader) (*Trace, error) {
	return readFrom(bufio.NewReader(r), 0)
}

// ReadFile decodes a binary .replay trace from a file.  The file length
// bounds the package count (each record is pkgRecordSize bytes), so the
// decode arena is sized in one allocation up front.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hint := 0
	if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
		hint = int(fi.Size() / pkgRecordSize)
	}
	return readFrom(bufio.NewReaderSize(f, fileBufSize), hint)
}

// readFrom decodes the binary format; pkgHint, when positive, is an
// upper bound on the total package count used to pre-size the arena.
func readFrom(br *bufio.Reader, pkgHint int) (*Trace, error) {
	var arena pkgArena
	if pkgHint > 0 {
		arena.buf = make([]IOPackage, pkgHint)
	}
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic[:])
	}
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:2]); v != binaryVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	devlen := int(binary.LittleEndian.Uint16(hdr[2:4]))
	dev := make([]byte, devlen)
	if _, err := io.ReadFull(br, dev); err != nil {
		return nil, fmt.Errorf("%w: device name: %v", ErrBadFormat, err)
	}
	var cnt [4]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, fmt.Errorf("%w: bunch count: %v", ErrBadFormat, err)
	}
	nb := int(binary.LittleEndian.Uint32(cnt[:]))
	// A corrupt or truncated file can carry arbitrary counts; bound
	// every preallocation so decoding fails with ErrBadFormat instead of
	// attempting a gigantic allocation.  Each bunch needs at least a
	// 12-byte header, and each package exactly pkgRecordSize bytes, so
	// the file-size hint caps both counts.  In stream mode (no hint) the
	// caps fall back to modest growth chunks; a lying count then fails
	// at the next ReadFull.
	if pkgHint > 0 && nb > pkgHint {
		return nil, fmt.Errorf("%w: bunch count %d exceeds file size", ErrBadFormat, nb)
	}
	t := &Trace{Device: string(dev)}
	if nb > 0 {
		capHint := nb
		if capHint > arenaChunk && pkgHint == 0 {
			capHint = arenaChunk
		}
		t.Bunches = make([]Bunch, 0, capHint)
	}
	totalPkgs := 0
	for i := 0; i < nb; i++ {
		var bh [12]byte
		if _, err := io.ReadFull(br, bh[:]); err != nil {
			return nil, fmt.Errorf("%w: bunch %d header: %v", ErrBadFormat, i, err)
		}
		bt := simtime.Duration(binary.LittleEndian.Uint64(bh[0:8]))
		np := int(binary.LittleEndian.Uint32(bh[8:12]))
		if np < 0 {
			return nil, fmt.Errorf("%w: bunch %d package count %d", ErrBadFormat, i, np)
		}
		totalPkgs += np
		if pkgHint > 0 && totalPkgs > pkgHint {
			return nil, fmt.Errorf("%w: bunch %d: package count exceeds file size", ErrBadFormat, i)
		}
		take := np
		if pkgHint == 0 && take > arenaChunk {
			// Stream mode: trust the count only up to the growth chunk;
			// genuine oversized bunches fall back to append growth.
			take = arenaChunk
		}
		bunch := Bunch{Time: bt, Packages: arena.take(take)}
		for j := 0; j < np; j++ {
			var rec [17]byte
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, fmt.Errorf("%w: bunch %d package %d: %v", ErrBadFormat, i, j, err)
			}
			bunch.Packages = append(bunch.Packages, IOPackage{
				Sector: int64(binary.LittleEndian.Uint64(rec[0:8])),
				Size:   int64(binary.LittleEndian.Uint64(rec[8:16])),
				Op:     storage.Op(rec[16]),
			})
		}
		t.Bunches = append(t.Bunches, bunch)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return t, nil
}

// WriteText encodes the trace in the line-oriented text format:
//
//	# blktrace-text v1
//	device <name>
//	B <time_ns> <npackages>
//	<sector> <size> R|W
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# blktrace-text v1")
	fmt.Fprintf(bw, "device %s\n", t.Device)
	for i := range t.Bunches {
		b := &t.Bunches[i]
		fmt.Fprintf(bw, "B %d %d\n", int64(b.Time), len(b.Packages))
		for _, p := range b.Packages {
			op := "R"
			if p.Op == storage.Write {
				op = "W"
			}
			fmt.Fprintf(bw, "%d %d %s\n", p.Sector, p.Size, op)
		}
	}
	return bw.Flush()
}

// ReadText decodes the text format written by WriteText.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	t := &Trace{}
	lineNo := 0
	pending := 0 // packages still expected for the current bunch
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "device":
			if len(fields) >= 2 {
				t.Device = fields[1]
			}
		case fields[0] == "B":
			if pending != 0 {
				return nil, fmt.Errorf("%w: line %d: new bunch with %d packages pending", ErrBadFormat, lineNo, pending)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("%w: line %d: bad bunch header", ErrBadFormat, lineNo)
			}
			ts, err1 := strconv.ParseInt(fields[1], 10, 64)
			np, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || np <= 0 {
				return nil, fmt.Errorf("%w: line %d: bad bunch header %q", ErrBadFormat, lineNo, line)
			}
			capNP := np
			if capNP > arenaChunk {
				// Don't let a corrupt count trigger a giant allocation;
				// real oversized bunches grow by append.
				capNP = arenaChunk
			}
			t.Bunches = append(t.Bunches, Bunch{Time: simtime.Duration(ts), Packages: make([]IOPackage, 0, capNP)})
			pending = np
		default:
			if pending == 0 {
				return nil, fmt.Errorf("%w: line %d: package outside bunch", ErrBadFormat, lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("%w: line %d: bad package line %q", ErrBadFormat, lineNo, line)
			}
			sector, err1 := strconv.ParseInt(fields[0], 10, 64)
			size, err2 := strconv.ParseInt(fields[1], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("%w: line %d: bad package numbers", ErrBadFormat, lineNo)
			}
			var op storage.Op
			switch fields[2] {
			case "R", "r":
				op = storage.Read
			case "W", "w":
				op = storage.Write
			default:
				return nil, fmt.Errorf("%w: line %d: bad op %q", ErrBadFormat, lineNo, fields[2])
			}
			b := &t.Bunches[len(t.Bunches)-1]
			b.Packages = append(b.Packages, IOPackage{Sector: sector, Size: size, Op: op})
			pending--
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pending != 0 {
		return nil, fmt.Errorf("%w: truncated final bunch (%d packages missing)", ErrBadFormat, pending)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
