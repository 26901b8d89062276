package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blktrace"
)

// srtInput is a three-record SRT trace, two of its records on disk0.
const srtInput = `# srt-text v1: timestamp device start-byte length op
10.000000000 disk0 0 4096 R
10.000050000 disk0 8192 8192 W
11.000000000 disk1 512 512 R
`

func writeSRT(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "in.srt")
	if err := os.WriteFile(path, []byte(srtInput), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSRTConversion(t *testing.T) {
	dir := t.TempDir()
	in := writeSRT(t, dir)
	out := filepath.Join(dir, "out.replay")
	var buf bytes.Buffer
	if err := run([]string{"-in", in, "-out", out, "-srcdev", "disk0", "-outdev", "cello"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 IOs") {
		t.Fatalf("output: %s", buf.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := blktrace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Device != "cello" || tr.NumIOs() != 2 {
		t.Fatalf("trace = %s, %d IOs", tr.Device, tr.NumIOs())
	}
}

func TestBinTextRoundTripViaCLI(t *testing.T) {
	dir := t.TempDir()
	in := writeSRT(t, dir)
	bin := filepath.Join(dir, "t.replay")
	txt := filepath.Join(dir, "t.txt")
	bin2 := filepath.Join(dir, "t2.replay")
	var buf bytes.Buffer
	if err := run([]string{"-in", in, "-out", bin}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", bin, "-out", txt, "-mode", "bin2text"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", txt, "-out", bin2, "-mode", "text2bin"}, &buf); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(bin2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("bin -> text -> bin round trip changed the file")
	}
}

// TestFailedConversionKeepsOut is the regression gate for damaged
// inputs: a conversion that fails mid-stream returns the labelled
// format error, leaves an existing -out byte-identical, and creates no
// file (not even a temporary one) when -out did not exist.
func TestFailedConversionKeepsOut(t *testing.T) {
	dir := t.TempDir()
	in := writeSRT(t, dir)
	bin := filepath.Join(dir, "t.replay")
	var buf bytes.Buffer
	if err := run([]string{"-in", in, "-out", bin}, &buf); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct{ name, mode, data string }{
		{"truncated", "bin2text", string(good[:len(good)-5])},
		{"garbled", "bin2text", string(good[:9]) + strings.Repeat("\xff", 16)},
		{"invalid second package", "text2bin", "device d\nB 0 2\n0 512 R\n0 -7 W\n"},
		{"invalid second bunch", "text2bin", "device d\nB 5 1\n0 512 R\nB 4 1\n8 512 R\n"},
	}
	for _, tc := range inputs {
		src := filepath.Join(dir, tc.name+".in")
		if err := os.WriteFile(src, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		existing := filepath.Join(dir, tc.name+".existing")
		before := []byte("an earlier conversion's output\n")
		if err := os.WriteFile(existing, before, 0o644); err != nil {
			t.Fatal(err)
		}
		missing := filepath.Join(dir, tc.name+".missing")
		for _, out := range []string{existing, missing} {
			err := run([]string{"-in", src, "-out", out, "-mode", tc.mode}, &buf)
			if !errors.Is(err, blktrace.ErrBadFormat) {
				t.Errorf("%s -> %s: got %v, want ErrBadFormat", tc.name, filepath.Base(out), err)
			}
			if _, err := os.Stat(out + ".tmp"); !os.IsNotExist(err) {
				t.Errorf("%s: temporary output left behind: %v", tc.name, err)
			}
		}
		if after, err := os.ReadFile(existing); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s: existing -out changed to %q (%v)", tc.name, after, err)
		}
		if _, err := os.Stat(missing); !os.IsNotExist(err) {
			t.Errorf("%s: failed conversion created -out: %v", tc.name, err)
		}
	}

	// A conversion that succeeds replaces an existing -out.
	out := filepath.Join(dir, "truncated.existing")
	if err := run([]string{"-in", bin, "-out", out, "-mode", "bin2bin"}, &buf); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(out); err != nil || !bytes.Equal(after, good) {
		t.Errorf("successful conversion did not replace -out: %v", err)
	}
}

func TestConvErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{}, &buf); err == nil {
		t.Fatal("missing flags accepted")
	}
	if err := run([]string{"-in", "nope.srt", "-out", "x"}, &buf); err == nil {
		t.Fatal("missing input accepted")
	}
	dir := t.TempDir()
	in := writeSRT(t, dir)
	if err := run([]string{"-in", in, "-out", filepath.Join(dir, "x"), "-mode", "magic"}, &buf); err == nil {
		t.Fatal("bad mode accepted")
	}
}
