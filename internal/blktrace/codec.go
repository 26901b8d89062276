package blktrace

// Trace codecs.  Each on-disk format has exactly one decoder and one
// record encoder, and every decoder checks each bunch with the one
// validator behind Trace.Validate as it reads it:
//
//	format  decoder     record encoder      whole-trace helpers
//	binary  ScanBinary  BinaryStreamWriter  Read, ReadFile, Write, WriteFile
//	text    ScanText    TextStreamWriter    ReadText, WriteText
//
// The whole-trace helpers only collect or loop: Read* gather a scan
// into one flat package buffer, and Write* feed a trace's bunches to
// the record encoder.  So a conversion streams bunch by bunch, and the
// whole-trace and streaming paths cannot disagree on what a file means.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/simtime"
	"repro/internal/storage"
)

// Binary format (".replay", version 1), little-endian:
//
//	magic "TRCRPLAY" | u16 version | u16 devlen | devname |
//	u32 nbunches | for each bunch: i64 time_ns, u32 npackages,
//	for each package: i64 sector, i64 size, u8 op.

var binaryMagic = [8]byte{'T', 'R', 'C', 'R', 'P', 'L', 'A', 'Y'}

const (
	binaryVersion = 1
	// binaryHeadSize is the header's size without the device name:
	// magic, version, device name length and bunch count.
	binaryHeadSize = 8 + 2 + 2 + 4
	// bunchHeaderSize and pkgRecordSize are the encoded sizes of one
	// bunch header and one IOPackage record.
	bunchHeaderSize = 12
	pkgRecordSize   = 17
	// fileBufSize is the bufio size for whole-file trace IO.  Trace
	// files are hundreds of kilobytes to tens of megabytes; 1 MiB keeps
	// syscall counts low without noticeable memory cost.
	fileBufSize = 1 << 20
)

// ErrBadFormat reports a malformed trace: input no decoder can read, or
// a trace that breaks Trace.Validate's rules.
var ErrBadFormat = errors.New("blktrace: malformed trace file")

// ScanFunc receives each bunch in order.  The Packages slice is reused
// between calls and must not be retained.
type ScanFunc func(b Bunch) error

// ScanBinary decodes a binary .replay stream incrementally: device is
// called once with the label, then fn once per bunch in order.
func ScanBinary(r io.Reader, device func(string) error, fn ScanFunc) error {
	return scanBinary(bufio.NewReaderSize(r, fileBufSize), 0, device, fn)
}

// scanBinary is the binary decoder.  size, when positive, is the
// input's length in bytes: a header that claims more bunches or
// packages than that could hold fails before they are read.
func scanBinary(br *bufio.Reader, size int64, device func(string) error, fn ScanFunc) error {
	var rec [pkgRecordSize]byte // the scratch every fixed-size field is read into
	if _, err := io.ReadFull(br, rec[:8]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if [8]byte(rec[:8]) != binaryMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadFormat, rec[:8])
	}
	if _, err := io.ReadFull(br, rec[:4]); err != nil {
		return fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	if v := binary.LittleEndian.Uint16(rec[0:2]); v != binaryVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	devName := make([]byte, binary.LittleEndian.Uint16(rec[2:4]))
	if _, err := io.ReadFull(br, devName); err != nil {
		return fmt.Errorf("%w: device name: %v", ErrBadFormat, err)
	}
	if err := device(string(devName)); err != nil {
		return err
	}
	if _, err := io.ReadFull(br, rec[:4]); err != nil {
		return fmt.Errorf("%w: bunch count: %v", ErrBadFormat, err)
	}
	nb := int64(binary.LittleEndian.Uint32(rec[:4]))
	used := int64(binaryHeadSize + len(devName)) // bytes the header and the bunches so far need
	if size > 0 && used+nb*bunchHeaderSize > size {
		return fmt.Errorf("%w: bunch count %d exceeds file size", ErrBadFormat, nb)
	}
	var (
		v    validator
		pkgs []IOPackage
	)
	for i := int64(0); i < nb; i++ {
		if _, err := io.ReadFull(br, rec[:bunchHeaderSize]); err != nil {
			return fmt.Errorf("%w: bunch %d header: %v", ErrBadFormat, i, err)
		}
		at := simtime.Duration(binary.LittleEndian.Uint64(rec[0:8]))
		np := int64(binary.LittleEndian.Uint32(rec[8:12]))
		used += bunchHeaderSize + np*pkgRecordSize
		if size > 0 && used > size {
			return fmt.Errorf("%w: bunch %d: package count %d exceeds file size", ErrBadFormat, i, np)
		}
		pkgs = pkgs[:0]
		for j := int64(0); j < np; j++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return fmt.Errorf("%w: bunch %d package %d: %v", ErrBadFormat, i, j, err)
			}
			pkgs = append(pkgs, IOPackage{
				Sector: int64(binary.LittleEndian.Uint64(rec[0:8])),
				Size:   int64(binary.LittleEndian.Uint64(rec[8:16])),
				Op:     storage.Op(rec[16]),
			})
		}
		b := Bunch{Time: at, Packages: pkgs}
		if err := v.check(b); err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// Text format, one record per line:
//
//	# blktrace-text v1
//	device <name>
//	B <time_ns> <npackages>
//	<sector> <size> R|W
//
// Blank lines and lines starting with '#' are ignored.  The device line
// is optional, may appear once, and must precede the first bunch.  The
// device name is the rest of its line, so it may hold inner spaces but
// not leading or trailing whitespace or a line break.

// ScanText decodes the text format incrementally: device is called
// once, before any bunch, with the label of the device line ("" without
// one), then fn once per bunch in order.
func ScanText(r io.Reader, device func(string) error, fn ScanFunc) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		v         validator
		cur       Bunch
		pending   int // packages the current bunch still expects
		haveBunch bool
		sentDev   bool
		lineNo    int
	)
	sendDevice := func(name string) error {
		sentDev = true
		return device(name)
	}
	flush := func() error {
		if !haveBunch {
			return nil
		}
		haveBunch = false
		if err := v.check(cur); err != nil {
			return err
		}
		return fn(cur)
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "device":
			if sentDev {
				return fmt.Errorf("%w: line %d: device line must appear once, before the first bunch", ErrBadFormat, lineNo)
			}
			name := textDevice(line)
			if err := checkTextDevice(name); err != nil {
				return fmt.Errorf("%w: line %d: %v", ErrBadFormat, lineNo, err)
			}
			if err := sendDevice(name); err != nil {
				return err
			}
		case "B":
			if pending != 0 {
				return fmt.Errorf("%w: line %d: new bunch with %d packages pending", ErrBadFormat, lineNo, pending)
			}
			if err := flush(); err != nil {
				return err
			}
			if len(fields) != 3 {
				return fmt.Errorf("%w: line %d: bad bunch header", ErrBadFormat, lineNo)
			}
			ts, err1 := strconv.ParseInt(fields[1], 10, 64)
			np, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || np <= 0 {
				return fmt.Errorf("%w: line %d: bad bunch header %q", ErrBadFormat, lineNo, line)
			}
			if !sentDev {
				if err := sendDevice(""); err != nil {
					return err
				}
			}
			cur = Bunch{Time: simtime.Duration(ts), Packages: cur.Packages[:0]}
			pending = np
			haveBunch = true
		default:
			if pending == 0 {
				return fmt.Errorf("%w: line %d: package outside bunch", ErrBadFormat, lineNo)
			}
			if len(fields) != 3 {
				return fmt.Errorf("%w: line %d: bad package line %q", ErrBadFormat, lineNo, line)
			}
			sector, err1 := strconv.ParseInt(fields[0], 10, 64)
			size, err2 := strconv.ParseInt(fields[1], 10, 64)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("%w: line %d: bad package numbers", ErrBadFormat, lineNo)
			}
			var op storage.Op
			switch fields[2] {
			case "R", "r":
				op = storage.Read
			case "W", "w":
				op = storage.Write
			default:
				return fmt.Errorf("%w: line %d: bad op %q", ErrBadFormat, lineNo, fields[2])
			}
			cur.Packages = append(cur.Packages, IOPackage{Sector: sector, Size: size, Op: op})
			pending--
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("%w: line %d: %v", ErrBadFormat, lineNo+1, err)
		}
		return err
	}
	if pending != 0 {
		return fmt.Errorf("%w: truncated final bunch (%d packages missing)", ErrBadFormat, pending)
	}
	if err := flush(); err != nil {
		return err
	}
	if !sentDev {
		return sendDevice("")
	}
	return nil
}

// checkTextDevice rejects a device name the text format's one-line
// "device" header cannot carry back unchanged.
func checkTextDevice(name string) error {
	if name != strings.TrimSpace(name) || strings.ContainsAny(name, "\r\n") {
		return fmt.Errorf("blktrace: device name %q cannot be written as text: leading or trailing whitespace or a line break", name)
	}
	return nil
}

// textDevice parses a trimmed "device" line: the name is the rest of
// the line, trimmed.
func textDevice(line string) string {
	return strings.TrimSpace(strings.TrimPrefix(line, "device"))
}

// Read decodes a binary .replay trace.
func Read(r io.Reader) (*Trace, error) {
	return readBinary(bufio.NewReader(r), 0)
}

// ReadFile decodes a binary .replay trace from a file.  The file's size
// bounds the counts its header may claim and sizes the package buffer
// in one allocation.  Every error names the file once: opening a
// missing file or a directory fails with an *fs.PathError, and a
// decoding error is wrapped with the path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var size int64
	if fi, err := f.Stat(); err == nil {
		if fi.IsDir() {
			return nil, &fs.PathError{Op: "read", Path: path, Err: syscall.EISDIR}
		}
		size = fi.Size()
	}
	tr, err := readBinary(bufio.NewReaderSize(f, fileBufSize), size)
	if err != nil {
		return nil, fmt.Errorf("load trace %s: %w", path, err)
	}
	return tr, nil
}

func readBinary(br *bufio.Reader, size int64) (*Trace, error) {
	c := collector{hint: int(size / pkgRecordSize)}
	if err := scanBinary(br, size, c.setDevice, c.bunch); err != nil {
		return nil, err
	}
	return c.trace(), nil
}

// ReadText decodes the text format written by WriteText.
func ReadText(r io.Reader) (*Trace, error) {
	var c collector
	if err := ScanText(r, c.setDevice, c.bunch); err != nil {
		return nil, err
	}
	return c.trace(), nil
}

// collector gathers a scan into one Trace.  Each bunch's time and
// package count go to heads and its packages to one flat buffer; trace
// then carves every bunch's packages as a capacity-clipped window of
// the final buffer, as copyBunches does, so appending to one bunch
// never overwrites the next.
type collector struct {
	device string
	heads  []bunchHead
	flat   []IOPackage
	// hint, when positive, bounds the package count; flat is sized to
	// it only once a first bunch has decoded, so a file that is not a
	// trace costs no allocation sized by its length.
	hint int
}

type bunchHead struct {
	time simtime.Duration
	n    int
}

func (c *collector) setDevice(name string) error {
	c.device = name
	return nil
}

func (c *collector) bunch(b Bunch) error {
	c.heads = append(c.heads, bunchHead{b.Time, len(b.Packages)})
	if len(c.flat)+len(b.Packages) > cap(c.flat) {
		// Grow to the hint, or else double rather than let append grow
		// by a quarter: a long trace's packages are then copied about
		// twice instead of about five times.
		c.flat = slices.Grow(c.flat, max(c.hint, cap(c.flat)+len(b.Packages)))
	}
	c.flat = append(c.flat, b.Packages...)
	return nil
}

func (c *collector) trace() *Trace {
	t := &Trace{Device: c.device}
	if len(c.heads) > 0 {
		t.Bunches = make([]Bunch, len(c.heads))
	}
	lo := 0
	for i, h := range c.heads {
		t.Bunches[i] = Bunch{Time: h.time, Packages: c.flat[lo : lo+h.n : lo+h.n]}
		lo += h.n
	}
	return t
}

// binaryEncoder is the binary record encoder: it writes the header and
// each bunch through one record scratch.  Write, WriteFile and
// BinaryStreamWriter all encode through it.
type binaryEncoder struct {
	bw  *bufio.Writer
	rec [pkgRecordSize]byte
}

// header writes the file header with nb as the bunch count.
func (e *binaryEncoder) header(device string, nb uint32) error {
	if len(device) > math.MaxUint16 {
		return fmt.Errorf("blktrace: device name too long (%d bytes)", len(device))
	}
	if _, err := e.bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(e.rec[0:2], binaryVersion)
	binary.LittleEndian.PutUint16(e.rec[2:4], uint16(len(device)))
	if _, err := e.bw.Write(e.rec[:4]); err != nil {
		return err
	}
	if _, err := e.bw.WriteString(device); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(e.rec[0:4], nb)
	_, err := e.bw.Write(e.rec[:4])
	return err
}

// bunch writes one bunch header and its package records.
func (e *binaryEncoder) bunch(b Bunch) error {
	if uint64(len(b.Packages)) > math.MaxUint32 {
		return fmt.Errorf("blktrace: bunch at %v too large (%d packages)", b.Time, len(b.Packages))
	}
	binary.LittleEndian.PutUint64(e.rec[0:8], uint64(b.Time))
	binary.LittleEndian.PutUint32(e.rec[8:12], uint32(len(b.Packages)))
	if _, err := e.bw.Write(e.rec[:bunchHeaderSize]); err != nil {
		return err
	}
	for _, p := range b.Packages {
		binary.LittleEndian.PutUint64(e.rec[0:8], uint64(p.Sector))
		binary.LittleEndian.PutUint64(e.rec[8:16], uint64(p.Size))
		e.rec[16] = byte(p.Op)
		if _, err := e.bw.Write(e.rec[:]); err != nil {
			return err
		}
	}
	return nil
}

// Write encodes the trace in the binary .replay format.
func Write(w io.Writer, t *Trace) error {
	return writeBinary(bufio.NewWriter(w), t)
}

// WriteFile encodes the trace to a file, buffered for bulk writing.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeBinary(bufio.NewWriterSize(f, fileBufSize), t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeBinary encodes t and flushes bw.  The bunch count is known up
// front, so unlike BinaryStreamWriter nothing is patched afterwards.
func writeBinary(bw *bufio.Writer, t *Trace) error {
	if uint64(len(t.Bunches)) > math.MaxUint32 {
		return fmt.Errorf("blktrace: too many bunches (%d)", len(t.Bunches))
	}
	e := &binaryEncoder{bw: bw}
	if err := e.header(t.Device, uint32(len(t.Bunches))); err != nil {
		return err
	}
	for _, b := range t.Bunches {
		if err := e.bunch(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// countPatcher is BinaryStreamWriter's target: sequential writes plus
// the in-place bunch-count patch on Close.  *os.File satisfies it.
type countPatcher interface {
	io.Writer
	io.WriterAt
}

// BinaryStreamWriter emits the binary .replay (v1) format one bunch at
// a time.  v1 carries the bunch count up front, so the writer leaves a
// placeholder and patches it on Close — the stream itself never buffers
// more than one write block.
type BinaryStreamWriter struct {
	enc      binaryEncoder
	f        countPatcher
	nb       int64
	countOff int64 // file offset of the bunch count, the header's last field
	closed   bool
}

// NewBinaryStreamWriter starts a v1 stream on f.  The caller retains
// ownership of f and closes it after Close.
func NewBinaryStreamWriter(f countPatcher, device string) (*BinaryStreamWriter, error) {
	w := &BinaryStreamWriter{
		enc:      binaryEncoder{bw: bufio.NewWriterSize(f, fileBufSize)},
		f:        f,
		countOff: int64(binaryHeadSize - 4 + len(device)),
	}
	if err := w.enc.header(device, 0); err != nil {
		return nil, err
	}
	return w, nil
}

// WriteBunch appends one bunch to the stream.
func (w *BinaryStreamWriter) WriteBunch(b Bunch) error {
	if w.closed {
		return fmt.Errorf("blktrace: write on closed BinaryStreamWriter")
	}
	if err := w.enc.bunch(b); err != nil {
		return err
	}
	w.nb++
	return nil
}

// Close flushes and patches the bunch count.  It does not close the
// underlying file.
func (w *BinaryStreamWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.nb > math.MaxUint32 {
		return fmt.Errorf("blktrace: too many bunches (%d)", w.nb)
	}
	if err := w.enc.bw.Flush(); err != nil {
		return err
	}
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(w.nb))
	_, err := w.f.WriteAt(cnt[:], w.countOff)
	return err
}

// TextStreamWriter is the text record encoder: it emits the text format
// one bunch at a time, formatting each line into one scratch buffer.
type TextStreamWriter struct {
	bw  *bufio.Writer
	rec []byte
}

// NewTextStreamWriter starts a text stream on w with the standard
// header lines.  It rejects a device name the device line cannot hold.
func NewTextStreamWriter(w io.Writer, device string) (*TextStreamWriter, error) {
	if err := checkTextDevice(device); err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(w, fileBufSize)
	if _, err := bw.WriteString("# blktrace-text v1\ndevice " + device + "\n"); err != nil {
		return nil, err
	}
	return &TextStreamWriter{bw: bw}, nil
}

// WriteBunch appends one bunch to the stream.
func (w *TextStreamWriter) WriteBunch(b Bunch) error {
	w.rec = append(w.rec[:0], "B "...)
	w.rec = strconv.AppendInt(w.rec, int64(b.Time), 10)
	w.rec = append(w.rec, ' ')
	w.rec = strconv.AppendInt(w.rec, int64(len(b.Packages)), 10)
	w.rec = append(w.rec, '\n')
	if _, err := w.bw.Write(w.rec); err != nil {
		return err
	}
	for _, p := range b.Packages {
		op := byte('R')
		if p.Op == storage.Write {
			op = 'W'
		}
		w.rec = strconv.AppendInt(w.rec[:0], p.Sector, 10)
		w.rec = append(w.rec, ' ')
		w.rec = strconv.AppendInt(w.rec, p.Size, 10)
		w.rec = append(w.rec, ' ', op, '\n')
		if _, err := w.bw.Write(w.rec); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the stream; it does not close the underlying writer.
func (w *TextStreamWriter) Close() error { return w.bw.Flush() }

// WriteText encodes the trace in the text format.  It rejects a device
// name the device line cannot hold.
func WriteText(w io.Writer, t *Trace) error {
	tw, err := NewTextStreamWriter(w, t.Device)
	if err != nil {
		return err
	}
	for _, b := range t.Bunches {
		if err := tw.WriteBunch(b); err != nil {
			return err
		}
	}
	return tw.Close()
}
