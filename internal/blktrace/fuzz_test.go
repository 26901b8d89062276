package blktrace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Native fuzz targets for the two trace decoders.  The seeds are the
// committed text fixtures of the golden corpus, their binary
// encodings, and the truncated binary fixture; they run as ordinary
// tests in `go test`.  Fuzz a target with, for example:
//
//	go test -run '^$' -fuzz '^FuzzReadBinary$' -fuzztime 15s -fuzzminimizetime 2s ./internal/blktrace
//
// With the default minimization budget of 60 s, minimizing the first
// new input can use up a short run.
//
// Each target checks three properties of every input:
//  1. decoding succeeds or fails with ErrBadFormat, and never panics;
//  2. a trace that decodes re-encodes and decodes back unchanged;
//  3. the streaming scanner and the whole-trace readers agree.

// addSeeds adds every seed input to f: each text fixture, its binary
// encoding, and the truncated binary fixture.
func addSeeds(f *testing.F) {
	f.Helper()
	const testdata = "../check/testdata"
	fixtures, err := filepath.Glob(filepath.Join(testdata, "golden", "*.trace.txt"))
	if err != nil {
		f.Fatal(err)
	}
	nested, err := filepath.Glob(filepath.Join(testdata, "golden", "*", "*.trace.txt"))
	if err != nil {
		f.Fatal(err)
	}
	fixtures = append(fixtures, nested...)
	if len(fixtures) == 0 {
		f.Fatal("no text fixtures found")
	}
	for _, path := range fixtures {
		txt, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		tr, err := ReadText(bytes.NewReader(txt))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		var bin bytes.Buffer
		if err := Write(&bin, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(txt)
		f.Add(bin.Bytes())
	}
	truncated, err := os.ReadFile(filepath.Join(testdata, "corrupt", "truncated.replay"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(truncated)
}

// checkDecode enforces properties 1 and 3: every reader returns the
// same trace, or every reader fails with ErrBadFormat.  It returns the
// decoded trace, or nil when the input is malformed.
func checkDecode(t *testing.T, rs map[string]func() (*Trace, error)) *Trace {
	t.Helper()
	var (
		want  *Trace
		first string
	)
	failed := map[string]error{}
	for name, read := range rs {
		got, err := read()
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("%s: unlabelled error: %v", name, err)
			}
			failed[name] = err
			continue
		}
		if want == nil {
			want, first = got, name
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s and %s decode different traces:\n%+v\n%+v", name, first, got, want)
		}
	}
	if want != nil && len(failed) > 0 {
		t.Fatalf("%s decoded the input, but others failed: %v", first, failed)
	}
	return want
}

func FuzzReadBinary(f *testing.F) {
	addSeeds(f)
	path := filepath.Join(f.TempDir(), "input.replay") // rewritten by every input
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := checkDecode(t, binaryReaders(t, path, data))
		if tr == nil {
			return
		}
		var bin bytes.Buffer
		if err := Write(&bin, tr); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := Read(&bin)
		if err != nil || !reflect.DeepEqual(back, tr) {
			t.Fatalf("re-encoded trace decodes to %+v, %v; want %+v", back, err, tr)
		}
	})
}

func FuzzReadText(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := checkDecode(t, textReaders(data))
		if tr == nil {
			return
		}
		var txt bytes.Buffer
		if err := WriteText(&txt, tr); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := ReadText(&txt)
		if err != nil || !reflect.DeepEqual(back, tr) {
			t.Fatalf("re-encoded trace decodes to %+v, %v; want %+v", back, err, tr)
		}
	})
}
