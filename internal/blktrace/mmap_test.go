package blktrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// viewsEqual compares a mapped view against a materialized trace
// field-by-field through their shared accessors.
func viewsEqual(t *testing.T, m *MappedTrace, want *Trace) {
	t.Helper()
	if m.Label() != want.Device {
		t.Errorf("label %q != %q", m.Label(), want.Device)
	}
	if m.NumBunches() != want.NumBunches() || m.NumIOs() != want.NumIOs() {
		t.Fatalf("counts %d/%d != %d/%d", m.NumBunches(), m.NumIOs(), want.NumBunches(), want.NumIOs())
	}
	if m.Duration() != want.Duration() {
		t.Errorf("duration %v != %v", m.Duration(), want.Duration())
	}
	for i := range want.Bunches {
		if m.BunchTime(i) != want.BunchTime(i) || m.BunchSize(i) != want.BunchSize(i) {
			t.Fatalf("bunch %d header %v/%d != %v/%d", i, m.BunchTime(i), m.BunchSize(i), want.BunchTime(i), want.BunchSize(i))
		}
		for j := 0; j < want.BunchSize(i); j++ {
			if m.Package(i, j) != want.Package(i, j) {
				t.Fatalf("bunch %d package %d: %+v != %+v", i, j, m.Package(i, j), want.Package(i, j))
			}
		}
	}
}

func writeMapped(t *testing.T, tr *Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.rmap")
	if err := WriteMappedFile(path, tr); err != nil {
		t.Fatalf("WriteMappedFile: %v", err)
	}
	return path
}

func TestMappedRoundTrip(t *testing.T) {
	want := sampleTrace()
	path := writeMapped(t, want)
	for _, open := range []struct {
		name string
		fn   func(string) (*MappedTrace, error)
	}{{"mmap", OpenMapped}, {"buffered", ReadMappedFile}} {
		m, err := open.fn(path)
		if err != nil {
			t.Fatalf("%s: %v", open.name, err)
		}
		viewsEqual(t, m, want)
		got, err := m.Materialize()
		if err != nil {
			t.Fatalf("%s: materialize: %v", open.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: materialized trace differs", open.name)
		}
		if err := m.Close(); err != nil {
			t.Errorf("%s: close: %v", open.name, err)
		}
	}
}

func TestMappedRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	for iter := 0; iter < 25; iter++ {
		want := randomTrace(rng, 40)
		m, err := OpenMapped(writeMapped(t, want))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		viewsEqual(t, m, want)
		m.Close()
	}
}

// TestMappedWriterStreams checks the incremental writer produces the
// identical byte stream to the one-shot encoder.
func TestMappedWriterStreams(t *testing.T) {
	tr := sampleTrace()
	oneShot, err := os.ReadFile(writeMapped(t, tr))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "stream.rmap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewMappedWriter(f, tr.Device)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tr.Bunches {
		if err := w.WriteBunch(b.Time, b.Packages); err != nil {
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
	if !bytes.Equal(oneShot, streamed) {
		t.Fatalf("streamed encoding differs from one-shot (%d vs %d bytes)", len(streamed), len(oneShot))
	}
}

func TestMappedWriterRejectsBadInput(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "w.rmap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewMappedWriter(f, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBunch(5, nil); err == nil {
		t.Error("empty bunch accepted")
	}
	if err := w.WriteBunch(10, sampleTrace().Bunches[0].Packages); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBunch(9, sampleTrace().Bunches[0].Packages); err == nil {
		t.Error("out-of-order bunch accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBunch(20, sampleTrace().Bunches[0].Packages); err == nil {
		t.Error("write after close accepted")
	}
}

// TestMappedCorruption is the regression gate for damaged inputs: every
// structural corruption — truncated mappings included — must fail with
// a labelled ErrBadFormat, never a panic or a silent wrong read.
func TestMappedCorruption(t *testing.T) {
	tr := sampleTrace()
	good, err := os.ReadFile(writeMapped(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	devlen := len(tr.Device)
	countOff := mappedHeadLen + devlen

	mutate := func(name string, fn func(b []byte) []byte) {
		b := fn(append([]byte(nil), good...))
		path := filepath.Join(t.TempDir(), name+".rmap")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, open := range []struct {
			kind string
			fn   func(string) (*MappedTrace, error)
		}{{"mmap", OpenMapped}, {"buffered", ReadMappedFile}} {
			if _, err := open.fn(path); !errors.Is(err, ErrBadFormat) {
				t.Errorf("%s (%s): got %v, want ErrBadFormat", name, open.kind, err)
			}
		}
	}

	mutate("empty", func(b []byte) []byte { return nil })
	mutate("short-header", func(b []byte) []byte { return b[:6] })
	mutate("bad-magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("bad-version", func(b []byte) []byte { b[8] = 99; return b })
	mutate("truncated-packages", func(b []byte) []byte { return b[:len(b)-20] })
	mutate("truncated-tail", func(b []byte) []byte { return b[:len(b)-1] })
	mutate("trailing-garbage", func(b []byte) []byte { return append(b, 0xAB) })
	mutate("count-too-big", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[countOff+4:], 1<<40)
		return b
	})
	mutate("bunch-count-zeroed", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[countOff:], 0)
		return b
	})
	mutate("empty-bunch", func(b []byte) []byte {
		// Zero the package count of the last tail bunch record.
		binary.LittleEndian.PutUint32(b[len(b)-4:], 0)
		return b
	})
	mutate("times-out-of-order", func(b []byte) []byte {
		// Swap the times of the last two bunch records.
		last := b[len(b)-bunchRecordSize:]
		prev := b[len(b)-2*bunchRecordSize:]
		t0 := binary.LittleEndian.Uint64(prev[0:8])
		t1 := binary.LittleEndian.Uint64(last[0:8])
		binary.LittleEndian.PutUint64(prev[0:8], t1)
		binary.LittleEndian.PutUint64(last[0:8], t0)
		return b
	})
}

func TestOpenMappedMissingFile(t *testing.T) {
	if _, err := OpenMapped(filepath.Join(t.TempDir(), "nope.rmap")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
