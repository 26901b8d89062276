package blktrace

// Memory-mapped trace format (version 2, ".rmap"): a layout rearranged
// so a reader needs no decode pass at all —
//
//	magic "TRCRMMAP" | u16 version=2 | u16 devlen | devname |
//	u32 nbunches | u64 npackages |
//	npackages × package record (i64 sector, i64 size, u8 op — 17 bytes) |
//	nbunches × bunch record (i64 time_ns, u32 npackages — 12 bytes)
//
// Package records sit in one contiguous region in trace order, so a
// replay reads them as zero-copy views straight out of the file
// mapping; the small bunch-header section rides at the tail, which lets
// the writer stream packages through a buffer without knowing counts up
// front (the two header counts are patched in place on Close).  Opening
// validates structure in O(nbunches) — counts against the file size,
// non-decreasing times, package totals — without faulting in the
// package region.
//
// OpenMapped maps the file when the platform supports it and falls back
// to a buffered whole-file read otherwise; ReadMappedFile forces the
// buffered path.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/simtime"
	"repro/internal/storage"
)

var mappedMagic = [8]byte{'T', 'R', 'C', 'R', 'M', 'M', 'A', 'P'}

const (
	mappedVersion   = 2
	bunchRecordSize = 12
	mappedHeadLen   = 8 + 2 + 2 // magic, version, devlen
)

// MappedTrace is a read-only trace view backed by raw format-v2 bytes —
// a file mapping or an in-memory buffer.  Package records decode on
// access; nothing is materialized until Materialize copies the view
// into a *Trace for replay.  Its accessors mirror *Trace's (BunchTime,
// BunchSize, Package).  A MappedTrace must not be used after Close.
type MappedTrace struct {
	device   string
	nb       int
	np       int64
	pkgs     []byte  // np × pkgRecordSize, trace order
	bunches  []byte  // nb × bunchRecordSize
	pkgStart []int64 // prefix sums: bunch i's packages are [pkgStart[i], pkgStart[i+1])
	unmap    func() error
}

// Label reports the device label.
func (m *MappedTrace) Label() string { return m.device }

// NumBunches reports the number of bunches.
func (m *MappedTrace) NumBunches() int { return m.nb }

// NumIOs reports the total package count.
func (m *MappedTrace) NumIOs() int { return int(m.np) }

// Duration reports the arrival time of the last bunch.
func (m *MappedTrace) Duration() simtime.Duration {
	if m.nb == 0 {
		return 0
	}
	return m.BunchTime(m.nb - 1)
}

// BunchTime reports bunch i's arrival offset.
func (m *MappedTrace) BunchTime(i int) simtime.Duration {
	return simtime.Duration(binary.LittleEndian.Uint64(m.bunches[i*bunchRecordSize:]))
}

// BunchSize reports the number of packages in bunch i.
func (m *MappedTrace) BunchSize(i int) int { return int(m.pkgStart[i+1] - m.pkgStart[i]) }

// Package decodes package pkg of bunch i directly from the mapping.
func (m *MappedTrace) Package(i, pkg int) IOPackage {
	rec := m.pkgs[(m.pkgStart[i]+int64(pkg))*pkgRecordSize:]
	return IOPackage{
		Sector: int64(binary.LittleEndian.Uint64(rec[0:8])),
		Size:   int64(binary.LittleEndian.Uint64(rec[8:16])),
		Op:     storage.Op(rec[16]),
	}
}

// AppendPackages appends bunch i's packages to dst and returns it;
// streaming converters reuse one buffer across bunches.
func (m *MappedTrace) AppendPackages(i int, dst []IOPackage) []IOPackage {
	n := m.BunchSize(i)
	for j := 0; j < n; j++ {
		dst = append(dst, m.Package(i, j))
	}
	return dst
}

// Materialize copies the view into a heap *Trace (for code paths that
// need mutation, e.g. load filters) and validates it fully.
func (m *MappedTrace) Materialize() (*Trace, error) {
	t := &Trace{Device: m.device, Bunches: make([]Bunch, 0, m.nb)}
	arena := pkgArena{buf: make([]IOPackage, m.np)}
	for i := 0; i < m.nb; i++ {
		b := Bunch{Time: m.BunchTime(i), Packages: arena.take(m.BunchSize(i))}
		b.Packages = m.AppendPackages(i, b.Packages)
		t.Bunches = append(t.Bunches, b)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return t, nil
}

// Close releases the file mapping, if any.
func (m *MappedTrace) Close() error {
	unmap := m.unmap
	m.unmap = nil
	m.pkgs, m.bunches, m.pkgStart = nil, nil, nil
	if unmap != nil {
		return unmap()
	}
	return nil
}

// OpenMapped opens a format-v2 trace file as a zero-copy view, memory-
// mapping it when the platform supports that and falling back to a
// buffered whole-file read otherwise.
func OpenMapped(path string) (*MappedTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if data, unmap, err := mapFile(f, fi.Size()); err == nil {
		m, perr := parseMapped(data, unmap)
		if perr != nil {
			unmap()
			return nil, perr
		}
		return m, nil
	}
	return ReadMappedFile(path)
}

// ReadMappedFile reads a format-v2 trace fully into memory and returns
// the same view OpenMapped yields — the explicit buffered fallback.
func ReadMappedFile(path string) (*MappedTrace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseMapped(data, nil)
}

// parseMapped validates the v2 layout and builds the view.  The walk is
// O(nbunches) and touches only the header and the tail bunch section.
func parseMapped(data []byte, unmap func() error) (*MappedTrace, error) {
	if len(data) < mappedHeadLen {
		return nil, fmt.Errorf("%w: file shorter than header", ErrBadFormat)
	}
	if [8]byte(data[0:8]) != mappedMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, data[0:8])
	}
	if v := binary.LittleEndian.Uint16(data[8:10]); v != mappedVersion {
		return nil, fmt.Errorf("%w: unsupported mapped version %d", ErrBadFormat, v)
	}
	devlen := int(binary.LittleEndian.Uint16(data[10:12]))
	off := mappedHeadLen + devlen
	if len(data) < off+12 {
		return nil, fmt.Errorf("%w: truncated header", ErrBadFormat)
	}
	device := string(data[mappedHeadLen:off])
	nb := int(binary.LittleEndian.Uint32(data[off : off+4]))
	np := int64(binary.LittleEndian.Uint64(data[off+4 : off+12]))
	off += 12
	pkgBytes := np * pkgRecordSize
	bunchBytes := int64(nb) * bunchRecordSize
	if np < 0 || pkgBytes < 0 || int64(len(data))-int64(off) != pkgBytes+bunchBytes {
		return nil, fmt.Errorf("%w: counts (%d bunches, %d packages) disagree with file size %d",
			ErrBadFormat, nb, np, len(data))
	}
	m := &MappedTrace{
		device:   device,
		nb:       nb,
		np:       np,
		pkgs:     data[off : off+int(pkgBytes)],
		bunches:  data[off+int(pkgBytes):],
		pkgStart: make([]int64, nb+1),
		unmap:    unmap,
	}
	var total int64
	prev := simtime.Duration(-1)
	for i := 0; i < nb; i++ {
		rec := m.bunches[i*bunchRecordSize:]
		t := simtime.Duration(binary.LittleEndian.Uint64(rec[0:8]))
		n := int64(binary.LittleEndian.Uint32(rec[8:12]))
		if t < 0 || t < prev {
			return nil, fmt.Errorf("%w: bunch %d time %v out of order", ErrBadFormat, i, t)
		}
		if n <= 0 {
			return nil, fmt.Errorf("%w: bunch %d is empty", ErrBadFormat, i)
		}
		prev = t
		m.pkgStart[i] = total
		total += n
		if total > np {
			return nil, fmt.Errorf("%w: bunch %d: package total exceeds header count %d", ErrBadFormat, i, np)
		}
	}
	m.pkgStart[nb] = total
	if total != np {
		return nil, fmt.Errorf("%w: package total %d != header count %d", ErrBadFormat, total, np)
	}
	return m, nil
}

// countPatcher is the writer target: sequential writes plus the two
// in-place count patches on Close.  *os.File satisfies it.
type countPatcher interface {
	io.Writer
	io.WriterAt
}

// MappedWriter streams a trace into the format-v2 layout: package
// records flow straight through a buffer as bunches arrive, the 12-byte
// bunch headers accumulate in memory for the tail section, and the two
// counts are patched into the header on Close.  Nothing is ever
// materialized, so converting a multi-gigabyte trace runs in constant
// memory (plus 12 bytes per bunch).
type MappedWriter struct {
	f        countPatcher
	bw       *bufio.Writer
	bunches  []byte
	np       int64
	nb       int64
	countOff int64
	lastTime simtime.Duration
	closed   bool
}

// NewMappedWriter starts a format-v2 stream on f for the given device
// label.  The caller retains ownership of f and closes it after Close.
func NewMappedWriter(f countPatcher, device string) (*MappedWriter, error) {
	if len(device) > math.MaxUint16 {
		return nil, fmt.Errorf("blktrace: device name too long (%d bytes)", len(device))
	}
	w := &MappedWriter{f: f, bw: bufio.NewWriterSize(f, fileBufSize), countOff: int64(mappedHeadLen + len(device)), lastTime: -1}
	var hdr [4]byte
	if _, err := w.bw.Write(mappedMagic[:]); err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint16(hdr[0:2], mappedVersion)
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(len(device)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	if _, err := w.bw.WriteString(device); err != nil {
		return nil, err
	}
	var zero [12]byte // nbunches, npackages — patched on Close
	if _, err := w.bw.Write(zero[:]); err != nil {
		return nil, err
	}
	return w, nil
}

// WriteBunch appends one bunch; times must be non-decreasing and the
// bunch non-empty, mirroring Trace.Validate.
func (w *MappedWriter) WriteBunch(t simtime.Duration, pkgs []IOPackage) error {
	if w.closed {
		return fmt.Errorf("blktrace: write on closed MappedWriter")
	}
	if t < 0 || t < w.lastTime {
		return fmt.Errorf("blktrace: bunch at %v out of order (last %v)", t, w.lastTime)
	}
	if len(pkgs) == 0 {
		return fmt.Errorf("blktrace: empty bunch at %v", t)
	}
	if uint64(len(pkgs)) > math.MaxUint32 {
		return fmt.Errorf("blktrace: bunch at %v too large (%d packages)", t, len(pkgs))
	}
	w.lastTime = t
	var rec [pkgRecordSize]byte
	for _, p := range pkgs {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(p.Sector))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(p.Size))
		rec[16] = byte(p.Op)
		if _, err := w.bw.Write(rec[:]); err != nil {
			return err
		}
	}
	var bh [bunchRecordSize]byte
	binary.LittleEndian.PutUint64(bh[0:8], uint64(t))
	binary.LittleEndian.PutUint32(bh[8:12], uint32(len(pkgs)))
	w.bunches = append(w.bunches, bh[:]...)
	w.np += int64(len(pkgs))
	w.nb++
	return nil
}

// Close writes the tail bunch section, patches the header counts and
// flushes.  It does not close the underlying file.
func (w *MappedWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.nb > math.MaxUint32 {
		return fmt.Errorf("blktrace: too many bunches (%d)", w.nb)
	}
	if _, err := w.bw.Write(w.bunches); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	var cnt [12]byte
	binary.LittleEndian.PutUint32(cnt[0:4], uint32(w.nb))
	binary.LittleEndian.PutUint64(cnt[4:12], uint64(w.np))
	_, err := w.f.WriteAt(cnt[:], w.countOff)
	return err
}

// WriteMappedFile encodes a materialized trace to a format-v2 file.
func WriteMappedFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := NewMappedWriter(f, t.Device)
	if err != nil {
		f.Close()
		return err
	}
	for i := range t.Bunches {
		if err := w.WriteBunch(t.Bunches[i].Time, t.Bunches[i].Packages); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
