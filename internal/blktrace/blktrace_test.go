package blktrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
	"repro/internal/storage"
)

func sampleTrace() *Trace {
	return &Trace{
		Device: "raid5-hdd",
		Bunches: []Bunch{
			{Time: 0, Packages: []IOPackage{
				{Sector: 0, Size: 4096, Op: storage.Read},
				{Sector: 1024, Size: 8192, Op: storage.Write},
			}},
			{Time: simtime.Millisecond, Packages: []IOPackage{
				{Sector: 8, Size: 4096, Op: storage.Read},
			}},
			{Time: 5 * simtime.Millisecond, Packages: []IOPackage{
				{Sector: 16, Size: 512, Op: storage.Write},
				{Sector: 17, Size: 512, Op: storage.Write},
				{Sector: 2000, Size: 65536, Op: storage.Read},
			}},
		},
	}
}

// randomTrace builds a structurally valid random trace for round-trip
// property tests.
func randomTrace(rng *rand.Rand, maxBunches int) *Trace {
	t := &Trace{Device: "dev"}
	var at simtime.Duration
	n := rng.IntN(maxBunches + 1)
	for i := 0; i < n; i++ {
		at += simtime.Duration(rng.Int64N(int64(10 * simtime.Millisecond)))
		np := 1 + rng.IntN(5)
		b := Bunch{Time: at}
		for j := 0; j < np; j++ {
			op := storage.Read
			if rng.IntN(2) == 1 {
				op = storage.Write
			}
			b.Packages = append(b.Packages, IOPackage{
				Sector: rng.Int64N(1 << 30),
				Size:   512 * (1 + rng.Int64N(256)),
				Op:     op,
			})
		}
		t.Bunches = append(t.Bunches, b)
	}
	return t
}

func TestCounts(t *testing.T) {
	tr := sampleTrace()
	if tr.NumBunches() != 3 {
		t.Fatalf("NumBunches = %d, want 3", tr.NumBunches())
	}
	if tr.NumIOs() != 6 {
		t.Fatalf("NumIOs = %d, want 6", tr.NumIOs())
	}
	if tr.Duration() != 5*simtime.Millisecond {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	want := int64(4096 + 8192 + 4096 + 512 + 512 + 65536)
	if tr.TotalBytes() != want {
		t.Fatalf("TotalBytes = %d, want %d", tr.TotalBytes(), want)
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := &Trace{Device: "x"}
	if tr.Duration() != 0 || tr.NumIOs() != 0 || tr.TotalBytes() != 0 {
		t.Fatal("empty trace should have zero counts")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("empty trace should validate: %v", err)
	}
	s := ComputeStats(tr)
	if s.IOs != 0 || s.MeanIOPS != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	cases := map[string]*Trace{
		"decreasing time": {Bunches: []Bunch{
			{Time: 10, Packages: []IOPackage{{Size: 512}}},
			{Time: 5, Packages: []IOPackage{{Size: 512}}},
		}},
		"negative time": {Bunches: []Bunch{
			{Time: -1, Packages: []IOPackage{{Size: 512}}},
		}},
		"empty bunch": {Bunches: []Bunch{{Time: 0}}},
		"zero size": {Bunches: []Bunch{
			{Time: 0, Packages: []IOPackage{{Size: 0}}},
		}},
		"negative sector": {Bunches: []Bunch{
			{Time: 0, Packages: []IOPackage{{Sector: -5, Size: 512}}},
		}},
	}
	for name, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid trace", name)
		}
	}
}

func TestRequestConversion(t *testing.T) {
	p := IOPackage{Sector: 10, Size: 4096, Op: storage.Write}
	r := p.Request()
	if r.Offset != 10*storage.SectorSize || r.Size != 4096 || r.Op != storage.Write {
		t.Fatalf("Request = %+v", r)
	}
}

func TestClone(t *testing.T) {
	tr := sampleTrace()
	cp := tr.Clone()
	if !reflect.DeepEqual(tr, cp) {
		t.Fatal("clone differs from original")
	}
	cp.Bunches[0].Packages[0].Sector = 999
	if tr.Bunches[0].Packages[0].Sector == 999 {
		t.Fatal("clone shares package storage with original")
	}
	// Bunches share one flat package buffer; growing one must not
	// overwrite the next.
	next := cp.Bunches[1].Packages[0]
	cp.Bunches[0].Packages = append(cp.Bunches[0].Packages, IOPackage{Sector: 7, Size: 512})
	if cp.Bunches[1].Packages[0] != next {
		t.Fatal("appending to a cloned bunch overwrote the next bunch")
	}

	sub := tr.Subset([]int{len(tr.Bunches) - 1, 0})
	if sub.Device != tr.Device || len(sub.Bunches) != 2 ||
		!reflect.DeepEqual(sub.Bunches[0], tr.Bunches[len(tr.Bunches)-1]) || !reflect.DeepEqual(sub.Bunches[1], tr.Bunches[0]) {
		t.Fatalf("Subset picked %+v", sub)
	}
	sub.Bunches[1].Packages[0].Sector = 998
	if tr.Bunches[0].Packages[0].Sector == 998 {
		t.Fatal("subset shares package storage with original")
	}
}

func TestComputeStats(t *testing.T) {
	tr := &Trace{Bunches: []Bunch{
		{Time: 0, Packages: []IOPackage{
			{Sector: 0, Size: 4096, Op: storage.Read},  // random (first)
			{Sector: 8, Size: 4096, Op: storage.Write}, // sequential (continues 0+4096 = sector 8)
		}},
		{Time: 2 * simtime.Second, Packages: []IOPackage{
			{Sector: 1000, Size: 8192, Op: storage.Read}, // random
			{Sector: 1016, Size: 8192, Op: storage.Read}, // sequential
		}},
	}}
	s := ComputeStats(tr)
	if s.IOs != 4 || s.Bunches != 2 {
		t.Fatalf("counts: %+v", s)
	}
	if s.ReadRatio != 0.75 {
		t.Fatalf("ReadRatio = %v, want 0.75", s.ReadRatio)
	}
	if s.RandomRatio != 0.5 {
		t.Fatalf("RandomRatio = %v, want 0.5", s.RandomRatio)
	}
	if s.AvgRequestBytes != (4096+4096+8192+8192)/4.0 {
		t.Fatalf("AvgRequestBytes = %v", s.AvgRequestBytes)
	}
	if s.MeanIOPS != 2 { // 4 IOs over 2 seconds
		t.Fatalf("MeanIOPS = %v, want 2", s.MeanIOPS)
	}
	if s.MaxBunchSize != 2 {
		t.Fatalf("MaxBunchSize = %v", s.MaxBunchSize)
	}
	// Seek/run accounting: two runs of two IOs each, one measurable
	// seek of |1000*512 - 8192| / 512 = 984 sectors.
	if s.Seeks != 2 || s.SeqRuns != 2 || s.MaxRunIOs != 2 || s.MeanRunIOs != 2 {
		t.Fatalf("seek/run counters: %+v", s)
	}
	if s.MeanSeekSectors != 984 || s.MaxSeekSectors != 984 {
		t.Fatalf("seek distances: mean %v max %v, want 984", s.MeanSeekSectors, s.MaxSeekSectors)
	}
}

func TestSeekCounterCallbacks(t *testing.T) {
	var seeks []int64
	var runs []int
	c := SeekCounter{
		OnSeek:   func(d int64) { seeks = append(seeks, d) },
		OnRunEnd: func(n int) { runs = append(runs, n) },
	}
	// Run of 3 sequential IOs, a backward seek, a single-IO run, a
	// forward seek, then a final run of 2.
	pkgs := []IOPackage{
		{Sector: 100, Size: 512},
		{Sector: 101, Size: 1024},
		{Sector: 103, Size: 512},
		{Sector: 4, Size: 512},   // backward seek: |4-104| = 100 sectors
		{Sector: 500, Size: 512}, // forward seek: |500-5| = 495 sectors
		{Sector: 501, Size: 512},
	}
	for _, p := range pkgs {
		c.Observe(p)
	}
	c.Finish()
	if !reflect.DeepEqual(seeks, []int64{100, 495}) {
		t.Fatalf("seek distances = %v", seeks)
	}
	if !reflect.DeepEqual(runs, []int{3, 1, 2}) {
		t.Fatalf("run lengths = %v", runs)
	}
	if c.IOs != 6 || c.Seeks != 3 || c.SeqIOs != 3 || c.Runs != 3 || c.MaxRunIOs != 3 {
		t.Fatalf("counters: %+v", c)
	}
	if c.SumSeekSectors != 595 || c.MaxSeekSectors != 495 {
		t.Fatalf("distances: sum %v max %v", c.SumSeekSectors, c.MaxSeekSectors)
	}
}

func TestSeekCounterEmptyAndSingle(t *testing.T) {
	var c SeekCounter
	c.Finish() // no IOs: must not report a run
	if c.Runs != 0 || c.IOs != 0 {
		t.Fatalf("empty counter: %+v", c)
	}
	c = SeekCounter{}
	c.Observe(IOPackage{Sector: 7, Size: 512})
	c.Finish()
	if c.Runs != 1 || c.Seeks != 1 || c.MaxRunIOs != 1 || c.SumSeekSectors != 0 {
		t.Fatalf("single-IO counter: %+v", c)
	}
}

func TestBuilderCoalescesEqualTimes(t *testing.T) {
	b := NewBuilder("dev0")
	mustRecord := func(at simtime.Duration, p IOPackage) {
		t.Helper()
		if err := b.Record(at, p); err != nil {
			t.Fatal(err)
		}
	}
	mustRecord(0, IOPackage{Sector: 1, Size: 512, Op: storage.Read})
	mustRecord(0, IOPackage{Sector: 2, Size: 512, Op: storage.Read})
	mustRecord(simtime.Millisecond, IOPackage{Sector: 3, Size: 512, Op: storage.Write})
	tr := b.Trace()
	if tr.NumBunches() != 2 {
		t.Fatalf("NumBunches = %d, want 2", tr.NumBunches())
	}
	if len(tr.Bunches[0].Packages) != 2 {
		t.Fatalf("first bunch has %d packages, want 2", len(tr.Bunches[0].Packages))
	}
	if tr.Device != "dev0" {
		t.Fatalf("Device = %q", tr.Device)
	}
}

func TestBuilderRejectsTimeTravel(t *testing.T) {
	b := NewBuilder("dev")
	if err := b.Record(simtime.Second, IOPackage{Sector: 1, Size: 512}); err != nil {
		t.Fatal(err)
	}
	if err := b.Record(simtime.Millisecond, IOPackage{Sector: 2, Size: 512}); err == nil {
		t.Fatal("Record accepted decreasing time")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", tr, got)
	}
}

// TestTextRoundTrip runs device names through both text codec pairs:
// WriteText/ReadText and NewTextStreamWriter/ScanText.  The device
// line holds the rest of the line, so inner whitespace round-trips;
// a name the line cannot hold is rejected by both writers.
func TestTextRoundTrip(t *testing.T) {
	cases := []struct {
		device string
		ok     bool
	}{
		{"raid5-hdd", true},
		{"my dev", true},
		{"a\tb", true},
		{" lead", false},
		{"trail ", false},
		{"a\nb", false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%q", tc.device), func(t *testing.T) {
			tr := sampleTrace()
			tr.Device = tc.device

			var buf bytes.Buffer
			err := WriteText(&buf, tr)
			if !tc.ok {
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.device)) {
					t.Fatalf("WriteText accepted or did not name device %q: %v", tc.device, err)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				got, err := ReadText(&buf)
				if err != nil {
					t.Fatalf("%v\ntext was:\n%s", err, buf.String())
				}
				if !reflect.DeepEqual(tr, got) {
					t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", tr, got)
				}
			}

			var stream bytes.Buffer
			w, err := NewTextStreamWriter(&stream, tr.Device)
			if !tc.ok {
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.device)) {
					t.Fatalf("NewTextStreamWriter accepted or did not name device %q: %v", tc.device, err)
				}
				return
			}
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
			got := collectScan(t, func(dev func(string) error, fn ScanFunc) error {
				return ScanText(bytes.NewReader(stream.Bytes()), dev, fn)
			})
			if !reflect.DeepEqual(tr, got) {
				t.Fatalf("streamed round trip mismatch:\nwant %+v\ngot  %+v", tr, got)
			}
		})
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Fatal("Read accepted garbage")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("Read accepted empty input")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{9, 13, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Read accepted truncation at %d bytes", cut)
		}
	}
}

func TestReadTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"package outside bunch": "# blktrace-text v1\ndevice d\n5 512 R\n",
		"bad op":                "# blktrace-text v1\ndevice d\nB 0 1\n5 512 X\n",
		"truncated bunch":       "# blktrace-text v1\ndevice d\nB 0 2\n5 512 R\n",
		"bad header":            "# blktrace-text v1\ndevice d\nB zero 1\n5 512 R\n",
		"early new bunch":       "# blktrace-text v1\ndevice d\nB 0 2\n5 512 R\nB 10 1\n6 512 R\n",
	}
	for name, text := range cases {
		if _, err := ReadText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: ReadText accepted malformed input", name)
		}
	}
}

// Property: binary and text codecs round-trip arbitrary valid traces.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		tr := randomTrace(rng, 30)
		var bin, txt bytes.Buffer
		if err := Write(&bin, tr); err != nil {
			return false
		}
		got1, err := Read(&bin)
		if err != nil || !reflect.DeepEqual(tr, got1) {
			return false
		}
		if err := WriteText(&txt, tr); err != nil {
			return false
		}
		got2, err := ReadText(&txt)
		if err != nil {
			return false
		}
		// Empty traces: text codec cannot represent "no bunches" distinct
		// from nil; normalise.
		if len(tr.Bunches) == 0 {
			return len(got2.Bunches) == 0
		}
		return reflect.DeepEqual(tr, got2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	tr := randomTrace(rng, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryRead(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	tr := randomTrace(rng, 5000)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	tr := sampleTrace()
	path := filepath.Join(t.TempDir(), "sample.replay")
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("file round trip mismatch:\nwant %+v\ngot  %+v", tr, got)
	}
	// ReadFile's size-bounded decode must agree with streaming Read.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	streamed, err := Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, streamed) {
		t.Fatal("ReadFile and Read disagree on the same file")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.replay")); !os.IsNotExist(err) {
		t.Fatalf("err = %v, want IsNotExist", err)
	}
}

func TestArenaIsolatesBunches(t *testing.T) {
	// Every reader decodes all packages into one flat buffer (the
	// decode arena); appending to one decoded bunch must never clobber
	// a neighbouring bunch carved from it.
	b := NewBuilder("dev")
	for i := 0; i < 100; i++ {
		if err := b.Record(simtime.Duration(i)*simtime.Millisecond, IOPackage{Sector: int64(i), Size: 512, Op: storage.Read}); err != nil {
			t.Fatal(err)
		}
	}
	var bin, txt bytes.Buffer
	if err := Write(&bin, b.Trace()); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&txt, b.Trace()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.replay")
	if err := os.WriteFile(path, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() (*Trace, error){
		"Read":     func() (*Trace, error) { return Read(bytes.NewReader(bin.Bytes())) },
		"ReadFile": func() (*Trace, error) { return ReadFile(path) },
		"ReadText": func() (*Trace, error) { return ReadText(bytes.NewReader(txt.Bytes())) },
	} {
		got, err := read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.Bunches[0].Packages = append(got.Bunches[0].Packages, IOPackage{Sector: 999, Size: 512, Op: storage.Write})
		for i := 1; i < len(got.Bunches); i++ {
			if got.Bunches[i].Packages[0].Sector != int64(i) {
				t.Fatalf("%s: append to bunch 0 clobbered bunch %d: %+v", name, i, got.Bunches[i].Packages[0])
			}
		}
	}
}

func TestArenaChunkFallback(t *testing.T) {
	// Without a size hint the decode arena grows as packages arrive;
	// decode must stay correct across its regrowths (force several by
	// using many multi-package bunches).
	b := NewBuilder("dev")
	at := simtime.Duration(0)
	for i := 0; i < 3*4096; i++ {
		if i%3 == 0 {
			at += simtime.Microsecond
		}
		if err := b.Record(at, IOPackage{Sector: int64(i), Size: 1024, Op: storage.Write}); err != nil {
			t.Fatal(err)
		}
	}
	tr := b.Trace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("chunked-arena decode mismatch")
	}
}

// allocatedBytes reports the heap bytes f allocates.  The lying-count
// tests use it to show no allocation was sized by the count.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// maxLyingAlloc bounds what decoding a lying header may allocate: the
// buffered reader and scratch, far below the gigabytes the counts claim.
const maxLyingAlloc = 8 << 20

// tamperCount rewrites a little-endian u32 at off in a copy of blob.
func tamperCount(blob []byte, off int, v uint32) []byte {
	out := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(out[off:off+4], v)
	return out
}

// TestReadFileRejectsLyingCounts covers the corrupt-count hardening: a
// file whose bunch or package count exceeds what its size could hold
// must fail with ErrBadFormat immediately instead of attempting a
// gigantic allocation.
func TestReadFileRejectsLyingCounts(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	devlen := len(tr.Device)
	nbOff := 8 + 4 + devlen // magic + version/devlen + name
	npOff := nbOff + 4 + 8  // + bunch count + first bunch time

	dir := t.TempDir()
	for name, doctored := range map[string][]byte{
		"bunch-count":   tamperCount(blob, nbOff, 0xfffffff0),
		"package-count": tamperCount(blob, npOff, 0xfffffff0),
	} {
		path := filepath.Join(dir, name+".replay")
		if err := os.WriteFile(path, doctored, 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		if n := allocatedBytes(func() { _, err = ReadFile(path) }); n > maxLyingAlloc {
			t.Errorf("%s: ReadFile allocated %d bytes", name, n)
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
		if err == nil || !strings.Contains(err.Error(), "exceeds file size") {
			t.Errorf("%s: error not labelled: %v", name, err)
		}
	}
}

// TestReadStreamLyingCountsFailFast covers the no-hint path: with no
// file size to bound counts, preallocation is capped so a lying header
// fails at the next read instead of OOM-ing.
func TestReadStreamLyingCountsFailFast(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	nbOff := 8 + 4 + len(sampleTrace().Device)
	npOff := nbOff + 4 + 8
	for name, doctored := range map[string][]byte{
		"bunch-count":   tamperCount(blob, nbOff, 0xfffffff0),
		"package-count": tamperCount(blob, npOff, 0xfffffff0),
	} {
		var err error
		if n := allocatedBytes(func() { _, err = Read(bytes.NewReader(doctored)) }); n > maxLyingAlloc {
			t.Errorf("%s: Read allocated %d bytes", name, n)
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: stream err = %v, want ErrBadFormat", name, err)
		}
	}
}

// TestReadTextLyingPackageCountNoOOM: a text bunch header claiming a
// huge package count must not preallocate it.
func TestReadTextLyingPackageCountNoOOM(t *testing.T) {
	text := "# blktrace-text v1\ndevice d\nB 0 2000000000\n0 512 R\n"
	var err error
	if n := allocatedBytes(func() { _, err = ReadText(strings.NewReader(text)) }); n > maxLyingAlloc {
		t.Errorf("ReadText allocated %d bytes", n)
	}
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("ReadText on a truncated bunch with a lying count: err = %v, want ErrBadFormat", err)
	}
}
