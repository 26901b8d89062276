package srt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
	"repro/internal/storage"
)

const sampleSRT = `# comment
100.000000000 disk0 0 4096 R
100.000050000 disk0 8192 8192 W
100.250000000 disk1 512 512 R
101.000000000 disk0 16384 4096 r
`

func TestParse(t *testing.T) {
	recs, err := Parse(strings.NewReader(sampleSRT))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("parsed %d records, want 4", len(recs))
	}
	if recs[0].Op != storage.Read || recs[1].Op != storage.Write {
		t.Fatal("ops parsed wrong")
	}
	if recs[3].Op != storage.Read {
		t.Fatal("lowercase r not accepted")
	}
	if recs[1].StartByte != 8192 || recs[1].Length != 8192 {
		t.Fatalf("record 1 = %+v", recs[1])
	}
	if recs[2].Device != "disk1" {
		t.Fatalf("device = %q", recs[2].Device)
	}
}

// malformedSRT are single records Parse must reject.
var malformedSRT = []string{
	"abc disk0 0 4096 R",    // bad timestamp
	"1.0 disk0 -5 4096 R",   // negative offset
	"1.0 disk0 0 0 R",       // zero length
	"1.0 disk0 0 4096 X",    // bad op
	"1.0 disk0 0 4096",      // missing field
	"1.0 disk0 0 4096 R R",  // extra field
	"-1.0 disk0 0 4096 R",   // negative timestamp
	"NaN disk0 0 4096 R",    // NaN timestamp
	"1.0 disk0 zero 4096 R", // bad offset
	"1.0 disk0 0 many R",    // bad length
}

// pastHorizonSRT are traces whose second record lands past
// simtime.Horizon: 1e12 s wraps int64 nanoseconds, and 5e9 s fits in
// int64 but lies past the horizon.
var pastHorizonSRT = []struct{ name, data string }{
	{"wraps int64", "0 d 0 4096 R\n1e12 d 8192 4096 W\n"},
	{"past the horizon", "0 d 0 4096 R\n5e9 d 8192 4096 W\n"},
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, line := range malformedSRT {
		if _, err := Parse(strings.NewReader(line)); err == nil {
			t.Errorf("Parse accepted %q", line)
		}
	}
}

func TestConvertFiltersAndRebases(t *testing.T) {
	recs, err := Parse(strings.NewReader(sampleSRT))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Convert(recs, ConvertOptions{Device: "disk0"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Device != "disk0" {
		t.Fatalf("Device = %q", tr.Device)
	}
	if tr.NumIOs() != 3 {
		t.Fatalf("NumIOs = %d, want 3 (disk1 filtered)", tr.NumIOs())
	}
	if tr.Bunches[0].Time != 0 {
		t.Fatalf("first bunch at %v, want 0 (rebased)", tr.Bunches[0].Time)
	}
	// 101.0 - 100.0 = 1s for the last record
	if got := tr.Duration(); got != simtime.Second {
		t.Fatalf("Duration = %v, want 1s", got)
	}
}

func TestConvertBunchWindow(t *testing.T) {
	recs, err := Parse(strings.NewReader(sampleSRT))
	if err != nil {
		t.Fatal(err)
	}
	// 100.000000 and 100.000050 are 50us apart: with a 100us window they
	// form one bunch; without, two.
	tight, err := Convert(recs, ConvertOptions{Device: "disk0"})
	if err != nil {
		t.Fatal(err)
	}
	if tight.NumBunches() != 3 {
		t.Fatalf("no-window bunches = %d, want 3", tight.NumBunches())
	}
	wide, err := Convert(recs, ConvertOptions{Device: "disk0", BunchWindow: 100 * simtime.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if wide.NumBunches() != 2 {
		t.Fatalf("windowed bunches = %d, want 2", wide.NumBunches())
	}
	if len(wide.Bunches[0].Packages) != 2 {
		t.Fatalf("first windowed bunch has %d packages, want 2", len(wide.Bunches[0].Packages))
	}
}

func TestConvertUnsortedInput(t *testing.T) {
	recs := []Record{
		{Timestamp: 5, Device: "d", StartByte: 0, Length: 512, Op: storage.Read},
		{Timestamp: 1, Device: "d", StartByte: 512, Length: 512, Op: storage.Write},
		{Timestamp: 3, Device: "d", StartByte: 1024, Length: 512, Op: storage.Read},
	}
	tr, err := Convert(recs, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Bunches[0].Packages[0].Op != storage.Write {
		t.Fatal("records were not time-sorted")
	}
	if tr.Duration() != 4*simtime.Second {
		t.Fatalf("Duration = %v, want 4s", tr.Duration())
	}
}

func TestConvertEmpty(t *testing.T) {
	tr, err := Convert(nil, ConvertOptions{OutputDevice: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumBunches() != 0 || tr.Device != "none" {
		t.Fatalf("empty convert: %+v", tr)
	}
}

// WriteRecords writes records in the textual SRT layout; inverse of
// Parse.
func WriteRecords(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# srt-text v1: timestamp device start-byte length op")
	for _, r := range recs {
		op := "R"
		if r.Op == storage.Write {
			op = "W"
		}
		fmt.Fprintf(bw, "%.9f %s %d %d %s\n", r.Timestamp, r.Device, r.StartByte, r.Length, op)
	}
	return bw.Flush()
}

func TestWriteRecordsRoundTrip(t *testing.T) {
	recs := []Record{
		{Timestamp: 0.5, Device: "d0", StartByte: 4096, Length: 8192, Op: storage.Write},
		{Timestamp: 1.25, Device: "d1", StartByte: 0, Length: 512, Op: storage.Read},
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestConvertStream(t *testing.T) {
	tr, err := ConvertStream(strings.NewReader(sampleSRT), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumIOs() != 4 {
		t.Fatalf("NumIOs = %d", tr.NumIOs())
	}
	if tr.Device != "srt" {
		t.Fatalf("default device = %q", tr.Device)
	}
}

// Property: conversion preserves IO count, byte volume and read count
// for arbitrary record sets.
func TestPropertyConvertPreservesVolume(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		count := int(n % 100)
		recs := make([]Record, 0, count)
		var bytesTotal int64
		reads := 0
		for i := 0; i < count; i++ {
			op := storage.Read
			if rng.IntN(2) == 1 {
				op = storage.Write
			} else {
				reads++
			}
			length := 512 * (1 + rng.Int64N(64))
			bytesTotal += length
			recs = append(recs, Record{
				Timestamp: rng.Float64() * 100,
				Device:    "d",
				StartByte: 512 * rng.Int64N(1<<20),
				Length:    length,
				Op:        op,
			})
		}
		tr, err := Convert(recs, ConvertOptions{BunchWindow: simtime.Millisecond})
		if err != nil {
			return false
		}
		if tr.NumIOs() != count || tr.TotalBytes() != bytesTotal {
			return false
		}
		gotReads := 0
		for _, b := range tr.Bunches {
			for _, p := range b.Packages {
				if p.Op == storage.Read {
					gotReads++
				}
			}
		}
		return gotReads == reads && tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestParseRejectsZeroLength: a zero-length request is a malformed
// record, not a no-op IO.
func TestParseRejectsZeroLength(t *testing.T) {
	_, err := Parse(strings.NewReader("1.0 disk0 4096 0 R\n"))
	if err == nil || !strings.Contains(err.Error(), "bad length") {
		t.Fatalf("zero-length record: err = %v", err)
	}
	if _, err := Parse(strings.NewReader("1.0 disk0 4096 -512 W\n")); err == nil {
		t.Fatal("negative length accepted")
	}
}

// TestParseRejectsSectorOverflow: start+length summing past MaxInt64
// must be rejected at parse time, before sector arithmetic wraps.
func TestParseRejectsSectorOverflow(t *testing.T) {
	line := fmt.Sprintf("1.0 disk0 %d 4096 R\n", int64(math.MaxInt64-100))
	_, err := Parse(strings.NewReader(line))
	if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("overflowing extent: err = %v", err)
	}
	// Just under the limit is fine.
	ok := fmt.Sprintf("1.0 disk0 %d 4096 R\n", int64(math.MaxInt64-4096))
	if _, err := Parse(strings.NewReader(ok)); err != nil {
		t.Fatalf("maximal extent rejected: %v", err)
	}
}

// TestConvertRejectsZeroLengthRecord: hand-built records bypass Parse,
// so Convert must still surface an invalid trace as an error — not a
// panic and not a silently-broken replay file.
func TestConvertRejectsZeroLengthRecord(t *testing.T) {
	recs := []Record{{Timestamp: 1, Device: "d", StartByte: 0, Length: 0, Op: storage.Read}}
	if _, err := Convert(recs, ConvertOptions{}); err == nil {
		t.Fatal("Convert accepted a zero-length record")
	}
}

// TestConvertOutOfOrderWithWindow: interleaved out-of-order timestamps
// plus a bunch window must yield a valid, sorted, rebased trace whose
// coincident records share one bunch.
func TestConvertOutOfOrderWithWindow(t *testing.T) {
	recs := []Record{
		{Timestamp: 5.0, Device: "d", StartByte: 4096, Length: 4096, Op: storage.Write},
		{Timestamp: 3.0, Device: "d", StartByte: 0, Length: 512, Op: storage.Read},
		{Timestamp: 5.0004, Device: "d", StartByte: 8192, Length: 4096, Op: storage.Read},
		{Timestamp: 4.0, Device: "d", StartByte: 512, Length: 512, Op: storage.Write},
	}
	tr, err := Convert(recs, ConvertOptions{BunchWindow: simtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("converted trace invalid: %v", err)
	}
	if got := len(tr.Bunches); got != 3 {
		t.Fatalf("bunches = %d, want 3 (two coincident records coalesced)", got)
	}
	if tr.Bunches[0].Time != 0 {
		t.Fatalf("trace not rebased: first bunch at %v", tr.Bunches[0].Time)
	}
	last := tr.Bunches[2]
	if len(last.Packages) != 2 {
		t.Fatalf("window did not coalesce: %d packages in last bunch", len(last.Packages))
	}
	for i := 1; i < len(tr.Bunches); i++ {
		if tr.Bunches[i].Time <= tr.Bunches[i-1].Time {
			t.Fatal("bunch times not strictly increasing")
		}
	}
}

// TestConvertRejectsPastHorizon: a record whose rebased time lies past
// simtime.Horizon is a labelled error, not a wrapped or unreplayable
// bunch time; a record just inside the horizon still converts.
func TestConvertRejectsPastHorizon(t *testing.T) {
	for _, c := range pastHorizonSRT {
		t.Run(c.name, func(t *testing.T) {
			tr, err := ConvertStream(strings.NewReader(c.data), ConvertOptions{})
			if err == nil || !strings.Contains(err.Error(), "srt: convert: ") || !strings.Contains(err.Error(), "horizon") {
				t.Fatalf("got trace %v, err %v; want a labelled horizon error", tr, err)
			}
		})
	}
	edge := fmt.Sprintf("7 d 0 4096 R\n%.17g d 8192 4096 W\n", 7+simtime.Horizon.Seconds()/2)
	tr, err := ConvertStream(strings.NewReader(edge), ConvertOptions{})
	if err != nil {
		t.Fatalf("a record inside the horizon was rejected: %v", err)
	}
	if last := tr.Bunches[len(tr.Bunches)-1].Time; last <= 0 || simtime.Time(last) > simtime.Horizon {
		t.Fatalf("last bunch at %v, want inside (0, horizon]", last)
	}
}

// FuzzConvertStream: any input either fails with a labelled error or
// converts to a trace that passes Validate, keeps every record, and
// places each record within BunchWindow of its rebased time, at or
// before simtime.Horizon.
func FuzzConvertStream(f *testing.F) {
	f.Add(sampleSRT, uint32(0))
	f.Add(sampleSRT, uint32(100*simtime.Microsecond))
	for _, line := range malformedSRT {
		f.Add(line, uint32(0))
	}
	for _, c := range pastHorizonSRT {
		f.Add(c.data, uint32(0))
	}
	f.Fuzz(func(t *testing.T, data string, window uint32) {
		opts := ConvertOptions{BunchWindow: simtime.Duration(window)}
		tr, err := ConvertStream(strings.NewReader(data), opts)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "srt: ") {
				t.Fatalf("unlabelled error: %v", err)
			}
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("converted trace invalid: %v", err)
		}
		recs, err := Parse(strings.NewReader(data))
		if err != nil {
			t.Fatalf("converted an input Parse rejects: %v", err)
		}
		if tr.NumIOs() != len(recs) {
			t.Fatalf("trace holds %d IOs, input %d records", tr.NumIOs(), len(recs))
		}
		if len(recs) == 0 {
			return
		}
		// Bunches list records in stable timestamp order.
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Timestamp < recs[j].Timestamp })
		i := 0
		for _, b := range tr.Bunches {
			if simtime.Time(b.Time) > simtime.Horizon {
				t.Fatalf("bunch at %v past the horizon", b.Time)
			}
			for _, p := range b.Packages {
				r := recs[i]
				rebased := simtime.FromSeconds(r.Timestamp - recs[0].Timestamp)
				if off := rebased - b.Time; off < 0 || off > opts.BunchWindow {
					t.Fatalf("record %d (rebased %v) placed at %v, outside the %v window", i, rebased, b.Time, opts.BunchWindow)
				}
				if p.Op != r.Op || p.Size != r.Length || p.Sector != r.StartByte/storage.SectorSize {
					t.Fatalf("record %d %+v became package %+v", i, r, p)
				}
				i++
			}
		}
	})
}
