package blktrace

// Streaming codecs: scan a trace bunch-by-bunch and write one
// bunch-at-a-time, so format conversion never materializes the whole
// record set.  Used by cmd/traceconv; every scanner applies the same
// validation Trace.Validate enforces (ordered times, non-empty bunches,
// well-formed requests) incrementally.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/simtime"
	"repro/internal/storage"
)

// ScanFunc receives each bunch in order.  The Packages slice is reused
// between calls and must not be retained.
type ScanFunc func(b Bunch) error

// scanValidator applies Trace.Validate's per-bunch rules incrementally.
type scanValidator struct {
	prev simtime.Duration
	i    int
}

func (v *scanValidator) check(b Bunch) error {
	if b.Time < 0 || (v.i > 0 && b.Time < v.prev) {
		return fmt.Errorf("%w: bunch %d time %v out of order", ErrBadFormat, v.i, b.Time)
	}
	if len(b.Packages) == 0 {
		return fmt.Errorf("%w: bunch %d is empty", ErrBadFormat, v.i)
	}
	for j, p := range b.Packages {
		if err := p.Request().Validate(0); err != nil {
			return fmt.Errorf("%w: bunch %d package %d: %v", ErrBadFormat, v.i, j, err)
		}
	}
	v.prev = b.Time
	v.i++
	return nil
}

// ScanBinary decodes a binary .replay (v1) stream incrementally: device
// is called once with the label, then fn once per bunch in order.
func ScanBinary(r io.Reader, device func(string) error, fn ScanFunc) error {
	br := bufio.NewReaderSize(r, fileBufSize)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if magic != binaryMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic[:])
	}
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:2]); v != binaryVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	devName := make([]byte, binary.LittleEndian.Uint16(hdr[2:4]))
	if _, err := io.ReadFull(br, devName); err != nil {
		return fmt.Errorf("%w: device name: %v", ErrBadFormat, err)
	}
	if err := device(string(devName)); err != nil {
		return err
	}
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: bunch count: %v", ErrBadFormat, err)
	}
	nb := int(binary.LittleEndian.Uint32(hdr[0:4]))
	var v scanValidator
	var pkgs []IOPackage
	for i := 0; i < nb; i++ {
		var bh [12]byte
		if _, err := io.ReadFull(br, bh[:]); err != nil {
			return fmt.Errorf("%w: bunch %d header: %v", ErrBadFormat, i, err)
		}
		np := int(binary.LittleEndian.Uint32(bh[8:12]))
		pkgs = pkgs[:0]
		for j := 0; j < np; j++ {
			var rec [pkgRecordSize]byte
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return fmt.Errorf("%w: bunch %d package %d: %v", ErrBadFormat, i, j, err)
			}
			pkgs = append(pkgs, IOPackage{
				Sector: int64(binary.LittleEndian.Uint64(rec[0:8])),
				Size:   int64(binary.LittleEndian.Uint64(rec[8:16])),
				Op:     storage.Op(rec[16]),
			})
		}
		b := Bunch{Time: simtime.Duration(binary.LittleEndian.Uint64(bh[0:8])), Packages: pkgs}
		if err := v.check(b); err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// ScanText decodes the line-oriented text format incrementally with the
// same grammar ReadText accepts.
func ScanText(r io.Reader, device func(string) error, fn ScanFunc) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		v         scanValidator
		cur       Bunch
		pending   int
		haveBunch bool
		sentDev   bool
		lineNo    int
	)
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
		switch {
		case fields[0] == "device":
			if !sentDev {
				sentDev = true
				if err := device(textDevice(line)); err != nil {
					return err
				}
			}
		case fields[0] == "B":
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
				sentDev = true
				if err := device(""); err != nil {
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
		return err
	}
	if pending != 0 {
		return fmt.Errorf("%w: truncated final bunch (%d packages missing)", ErrBadFormat, pending)
	}
	if err := flush(); err != nil {
		return err
	}
	if !sentDev {
		return device("")
	}
	return nil
}

// ScanMapped walks an opened mapped trace through the same callbacks,
// reusing one package buffer across bunches.
func ScanMapped(m *MappedTrace, device func(string) error, fn ScanFunc) error {
	if err := device(m.Label()); err != nil {
		return err
	}
	var pkgs []IOPackage
	for i := 0; i < m.NumBunches(); i++ {
		pkgs = m.AppendPackages(i, pkgs[:0])
		if err := fn(Bunch{Time: m.BunchTime(i), Packages: pkgs}); err != nil {
			return err
		}
	}
	return nil
}

// BinaryStreamWriter emits the binary .replay (v1) format one bunch at
// a time.  v1 carries the bunch count up front, so the writer leaves a
// placeholder and patches it on Close — the stream itself never buffers
// more than one write block.
type BinaryStreamWriter struct {
	f        countPatcher
	bw       *bufio.Writer
	nb       int64
	countOff int64
	closed   bool
}

// NewBinaryStreamWriter starts a v1 stream on f.  The caller retains
// ownership of f and closes it after Close.
func NewBinaryStreamWriter(f countPatcher, device string) (*BinaryStreamWriter, error) {
	if len(device) > math.MaxUint16 {
		return nil, fmt.Errorf("blktrace: device name too long (%d bytes)", len(device))
	}
	w := &BinaryStreamWriter{f: f, bw: bufio.NewWriterSize(f, fileBufSize), countOff: int64(12 + len(device))}
	if _, err := w.bw.Write(binaryMagic[:]); err != nil {
		return nil, err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:2], binaryVersion)
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(len(device)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	if _, err := w.bw.WriteString(device); err != nil {
		return nil, err
	}
	var zero [4]byte // bunch count — patched on Close
	if _, err := w.bw.Write(zero[:]); err != nil {
		return nil, err
	}
	return w, nil
}

// WriteBunch appends one bunch to the stream.
func (w *BinaryStreamWriter) WriteBunch(b Bunch) error {
	if w.closed {
		return fmt.Errorf("blktrace: write on closed BinaryStreamWriter")
	}
	if uint64(len(b.Packages)) > math.MaxUint32 {
		return fmt.Errorf("blktrace: bunch at %v too large (%d packages)", b.Time, len(b.Packages))
	}
	var bh [12]byte
	binary.LittleEndian.PutUint64(bh[0:8], uint64(b.Time))
	binary.LittleEndian.PutUint32(bh[8:12], uint32(len(b.Packages)))
	if _, err := w.bw.Write(bh[:]); err != nil {
		return err
	}
	var rec [pkgRecordSize]byte
	for _, p := range b.Packages {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(p.Sector))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(p.Size))
		rec[16] = byte(p.Op)
		if _, err := w.bw.Write(rec[:]); err != nil {
			return err
		}
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
	if err := w.bw.Flush(); err != nil {
		return err
	}
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(w.nb))
	_, err := w.f.WriteAt(cnt[:], w.countOff)
	return err
}

// TextStreamWriter emits the text format one bunch at a time.
type TextStreamWriter struct {
	bw *bufio.Writer
}

// NewTextStreamWriter starts a text stream on w with the standard
// header lines.  It rejects a device name WriteText would reject.
func NewTextStreamWriter(w io.Writer, device string) (*TextStreamWriter, error) {
	if err := checkTextDevice(device); err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(w, fileBufSize)
	if _, err := fmt.Fprintln(bw, "# blktrace-text v1"); err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(bw, "device %s\n", device); err != nil {
		return nil, err
	}
	return &TextStreamWriter{bw: bw}, nil
}

// WriteBunch appends one bunch to the stream.
func (w *TextStreamWriter) WriteBunch(b Bunch) error {
	if _, err := fmt.Fprintf(w.bw, "B %d %d\n", int64(b.Time), len(b.Packages)); err != nil {
		return err
	}
	for _, p := range b.Packages {
		op := "R"
		if p.Op == storage.Write {
			op = "W"
		}
		if _, err := fmt.Fprintf(w.bw, "%d %d %s\n", p.Sector, p.Size, op); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the stream; it does not close the underlying writer.
func (w *TextStreamWriter) Close() error { return w.bw.Flush() }
