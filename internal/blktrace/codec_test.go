package blktrace

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simtime"
	"repro/internal/storage"
)

// scanTrace drains a scanner into a materialized trace, copying each
// reused bunch buffer.
func scanTrace(scan func(device func(string) error, fn ScanFunc) error) (*Trace, error) {
	tr := &Trace{}
	err := scan(
		func(dev string) error { tr.Device = dev; return nil },
		func(b Bunch) error {
			tr.Bunches = append(tr.Bunches, Bunch{Time: b.Time, Packages: append([]IOPackage(nil), b.Packages...)})
			return nil
		})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// collectScan is scanTrace for inputs that must decode.
func collectScan(t *testing.T, scan func(device func(string) error, fn ScanFunc) error) *Trace {
	t.Helper()
	tr, err := scanTrace(scan)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return tr
}

// binaryReaders returns each binary decoder, by name, bound to bin;
// ReadFile reads it from path.
func binaryReaders(t *testing.T, path string, bin []byte) map[string]func() (*Trace, error) {
	t.Helper()
	if err := os.WriteFile(path, bin, 0o644); err != nil {
		t.Fatal(err)
	}
	return map[string]func() (*Trace, error){
		"Read":     func() (*Trace, error) { return Read(bytes.NewReader(bin)) },
		"ReadFile": func() (*Trace, error) { return ReadFile(path) },
		"ScanBinary": func() (*Trace, error) {
			return scanTrace(func(dev func(string) error, fn ScanFunc) error {
				return ScanBinary(bytes.NewReader(bin), dev, fn)
			})
		},
	}
}

// textReaders returns each text decoder, by name, bound to txt.
func textReaders(txt []byte) map[string]func() (*Trace, error) {
	return map[string]func() (*Trace, error){
		"ReadText": func() (*Trace, error) { return ReadText(bytes.NewReader(txt)) },
		"ScanText": func() (*Trace, error) {
			return scanTrace(func(dev func(string) error, fn ScanFunc) error {
				return ScanText(bytes.NewReader(txt), dev, fn)
			})
		},
	}
}

// normalizeTrace maps empty bunch slices to nil so DeepEqual ignores
// the nil-vs-empty distinction round-trips don't preserve.
func normalizeTrace(t *Trace) *Trace {
	if len(t.Bunches) == 0 {
		t.Bunches = nil
	}
	return t
}

func TestScanBinaryMatchesRead(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	for iter := 0; iter < 20; iter++ {
		want := randomTrace(rng, 30)
		var buf bytes.Buffer
		if err := Write(&buf, want); err != nil {
			t.Fatal(err)
		}
		got := collectScan(t, func(dev func(string) error, fn ScanFunc) error {
			return ScanBinary(bytes.NewReader(buf.Bytes()), dev, fn)
		})
		if !reflect.DeepEqual(normalizeTrace(got), normalizeTrace(want)) {
			t.Fatalf("iter %d: scanned trace differs", iter)
		}
	}
}

func TestScanTextMatchesReadText(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, want); err != nil {
		t.Fatal(err)
	}
	got := collectScan(t, func(dev func(string) error, fn ScanFunc) error {
		return ScanText(bytes.NewReader(buf.Bytes()), dev, fn)
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanned text trace differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestScanBinaryRejectsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated", buf.Bytes()[:buf.Len()-9]},
		{"bad-magic", append([]byte("XXXXXXXX"), buf.Bytes()[8:]...)},
	} {
		err := ScanBinary(bytes.NewReader(tc.data), func(string) error { return nil }, func(Bunch) error { return nil })
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: got %v, want ErrBadFormat", tc.name, err)
		}
	}
}

func TestScanTextRejectsCorrupt(t *testing.T) {
	for _, tc := range []struct{ name, text string }{
		{"truncated-bunch", "device d\nB 0 2\n1 512 R\n"},
		{"package-outside-bunch", "device d\n1 512 R\n"},
		{"bad-op", "device d\nB 0 1\n1 512 Q\n"},
		{"out-of-order", "device d\nB 5 1\n1 512 R\nB 4 1\n1 512 R\n"},
	} {
		err := ScanText(strings.NewReader(tc.text), func(string) error { return nil }, func(Bunch) error { return nil })
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: got %v, want ErrBadFormat", tc.name, err)
		}
	}
}

// TestBinaryStreamWriterMatchesWrite checks the count-patching stream
// writer emits the identical byte stream to the one-shot encoder.
func TestBinaryStreamWriterMatchesWrite(t *testing.T) {
	tr := sampleTrace()
	var oneShot bytes.Buffer
	if err := Write(&oneShot, tr); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "s.replay")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewBinaryStreamWriter(f, tr.Device)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tr.Bunches {
		if err := w.WriteBunch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	streamed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, oneShot.Bytes()) {
		t.Fatalf("streamed v1 differs from one-shot (%d vs %d bytes)", len(streamed), oneShot.Len())
	}
}

func TestTextStreamWriterMatchesWriteText(t *testing.T) {
	tr := sampleTrace()
	var oneShot bytes.Buffer
	if err := WriteText(&oneShot, tr); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	w, err := NewTextStreamWriter(&streamed, tr.Device)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tr.Bunches {
		if err := w.WriteBunch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if streamed.String() != oneShot.String() {
		t.Fatalf("streamed text differs:\n%s\nvs\n%s", streamed.String(), oneShot.String())
	}
}

// encode returns tr's binary and text encodings.  The writers do not
// validate, so an invalid trace encodes as written.
func encode(t *testing.T, tr *Trace) (bin, txt []byte) {
	t.Helper()
	var b, x bytes.Buffer
	if err := Write(&b, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&x, tr); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), x.Bytes()
}

// TestSectorOverflowRejected: a package whose byte range
// [Sector·512, Sector·512+Size) does not fit in int64 is malformed.
// Request would wrap it: sector 2^55 becomes byte offset 0.  Every
// reader and Trace.Validate reject it with ErrBadFormat, naming the
// bunch and the package.
func TestSectorOverflowRejected(t *testing.T) {
	maxSector := int64(math.MaxInt64 / storage.SectorSize)
	cases := []struct {
		name   string
		sector int64
		size   int64
		ok     bool
	}{
		{"2^54", 1 << 54, 4096, false},
		{"2^55", 1 << 55, 4096, false},
		{"2^55+1", 1<<55 + 1, 4096, false},
		{"max sector, end overflows", maxSector, 512, false},
		{"max sector, end fits", maxSector, 511, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := sampleTrace()
			tr.Bunches[1].Packages = append(tr.Bunches[1].Packages, IOPackage{Sector: tc.sector, Size: tc.size, Op: storage.Write})
			bin, txt := encode(t, tr)
			rs := binaryReaders(t, filepath.Join(t.TempDir(), "t.replay"), bin)
			maps.Copy(rs, textReaders(txt))
			rs["Trace.Validate"] = func() (*Trace, error) { return tr, tr.Validate() }
			for name, read := range rs {
				got, err := read()
				if tc.ok {
					if err != nil || !reflect.DeepEqual(got, tr) {
						t.Errorf("%s: rejected or changed a package that fits: %v", name, err)
					}
					continue
				}
				if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "bunch 1 package 1") {
					t.Errorf("%s: err = %v, want ErrBadFormat naming bunch 1 package 1", name, err)
				}
			}
		})
	}
}

// TestEveryReaderLabelsInvalidTraces: a trace that breaks
// Trace.Validate's rules fails every reader, and Validate itself, with
// ErrBadFormat.
func TestEveryReaderLabelsInvalidTraces(t *testing.T) {
	one := func(at int64, p IOPackage) Bunch { return Bunch{Time: simtime.Duration(at), Packages: []IOPackage{p}} }
	ok := IOPackage{Size: 512}
	cases := map[string]*Trace{
		"decreasing time": {Bunches: []Bunch{one(10, ok), one(5, ok)}},
		"negative time":   {Bunches: []Bunch{one(-1, ok)}},
		"zero size":       {Bunches: []Bunch{one(0, IOPackage{})}},
		"negative size":   {Bunches: []Bunch{one(0, IOPackage{Size: -7})}},
		"negative sector": {Bunches: []Bunch{one(0, IOPackage{Sector: -5, Size: 512})}},
		"bad op":          {Bunches: []Bunch{one(0, IOPackage{Size: 512, Op: 7})}},
		"empty bunch":     {Bunches: []Bunch{{Time: 0}}},
	}
	for name, tr := range cases {
		bin, txt := encode(t, tr)
		rs := binaryReaders(t, filepath.Join(t.TempDir(), "t.replay"), bin)
		if name != "bad op" { // the text format cannot spell op 7
			maps.Copy(rs, textReaders(txt))
		}
		rs["Trace.Validate"] = func() (*Trace, error) { return nil, tr.Validate() }
		for reader, read := range rs {
			if _, err := read(); !errors.Is(err, ErrBadFormat) {
				t.Errorf("%s via %s: err = %v, want ErrBadFormat", name, reader, err)
			}
		}
	}
}

// TestTextDeviceLine: the device line may appear once, before the first
// bunch.  ReadText and ScanText share one decoder, so both reject any
// other placement with ErrBadFormat naming the line.
func TestTextDeviceLine(t *testing.T) {
	cases := []struct {
		name, text string
		line       int // offending line, 0 when the text is valid
		device     string
	}{
		{"one", "# blktrace-text v1\ndevice a\nB 0 1\n0 512 R\n", 0, "a"},
		{"none", "B 0 1\n0 512 R\n", 0, ""},
		{"only", "device a b\n", 0, "a b"},
		{"second", "device a\ndevice b\nB 0 1\n0 512 R\n", 2, ""},
		{"after bunch", "device a\nB 0 1\n0 512 R\ndevice b\n", 4, ""},
		{"after bunch, none before", "B 0 1\n0 512 R\n\ndevice b\n", 4, ""},
		{"inner carriage return", "device a\rb\nB 0 1\n0 512 R\n", 1, ""},
	}
	for _, tc := range cases {
		for name, read := range textReaders([]byte(tc.text)) {
			got, err := read()
			if tc.line == 0 {
				if err != nil {
					t.Errorf("%s via %s: %v", tc.name, name, err)
				} else if got.Device != tc.device {
					t.Errorf("%s via %s: device %q, want %q", tc.name, name, got.Device, tc.device)
				}
				continue
			}
			if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", tc.line)) {
				t.Errorf("%s via %s: err = %v, want ErrBadFormat naming line %d", tc.name, name, err, tc.line)
			}
		}
	}
}
