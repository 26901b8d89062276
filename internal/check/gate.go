// Gate harness: what every `tracer verify` gate shares.  One entry
// point that runs every gate, one typed golden diff and one byte-exact
// one, one JSON read/write pair, one worker-count list with its
// identity runner, and one fixture walk that carries the -update
// bootstrap and the first-failure export.  A new golden gate is a
// golden struct plus a function that builds it from a fixture trace.
package check

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/replay"
	"repro/internal/telemetry"
)

// Verify runs every conformance gate against the golden corpus rooted
// at dir, in turn: the replay corpus (dir itself), the cache gate
// (dir/cache, cross-checking dir's replay goldens through a disabled
// tier), the optimize gate (dir/optimize), the SLO gate (dir/slo),
// round-trip fidelity over dir's fixtures, and the paper gate
// (dir/paper).  opts.Update rewrites every golden; fidelity has none
// and still runs its check.  With opts.TelemetryDir set, each gate
// exports its failure artifacts into a subdirectory named after it.
// A failing gate prints a FAIL line and the rest still run; the
// returned error names every gate that failed.
func Verify(dir string, opts VerifyOptions, out io.Writer) error {
	gates := []struct {
		name string
		// golden is false for a gate -update has nothing to rewrite in.
		golden bool
		run    func(opts VerifyOptions) error
		// verified is the line a passing gate ends with.
		verified string
	}{
		{"replay", true, func(o VerifyOptions) error { return verifyGolden(dir, o, out) },
			"golden corpus verified"},
		{"cache", true, func(o VerifyOptions) error { return verifyCache(filepath.Join(dir, "cache"), dir, o, out) },
			"cache corpus verified (study deterministic at workers 1/2/8, zero-capacity tier byte-identical, DRAM tier beats uncached)"},
		{"optimize", true, func(o VerifyOptions) error { return verifyOptimize(filepath.Join(dir, "optimize"), o, out) },
			"optimize corpus verified (search deterministic at workers 1/2/8, winners beat paper defaults)"},
		{"slo", true, func(o VerifyOptions) error { return verifySLO(filepath.Join(dir, "slo"), o, out) },
			"slo corpus verified (rebuild storm fires and resolves, alerts byte-identical at workers 1/2/8, scrape agrees with summary.json)"},
		{"fidelity", false, func(VerifyOptions) error { return verifyFidelity(dir, out) },
			"workload round-trip fidelity verified"},
		{"paper", true, func(o VerifyOptions) error { return verifyPaper(filepath.Join(dir, "paper"), o, out) },
			"paper artifacts verified"},
	}
	var failed []string
	for _, g := range gates {
		o := opts
		if o.TelemetryDir != "" {
			o.TelemetryDir = filepath.Join(opts.TelemetryDir, g.name)
		}
		if err := g.run(o); err != nil {
			fmt.Fprintf(out, "FAIL %s gate: %v\n", g.name, err)
			failed = append(failed, g.name)
		} else if !opts.Update || !g.golden {
			fmt.Fprintln(out, g.verified)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("verify: %d of %d gates failed (%s)", len(failed), len(gates), strings.Join(failed, ", "))
	}
	return nil
}

// workerCounts are the fan-out widths every determinism gate
// cross-checks: each width must reproduce the first one byte for byte.
var workerCounts = []int{1, 2, 8}

// sameAtWorkers runs fn at every width in workerCounts and requires
// each run's fingerprint to equal the first run's byte for byte.  It
// stops at the first failure.  The value it returns is the first run's
// whenever that run succeeded, so a caller can still export it.
func sameAtWorkers[T any](what string, fn func(workers int) (T, []byte, error)) (T, error) {
	var first T
	var base []byte
	for i, w := range workerCounts {
		v, blob, err := fn(w)
		if err != nil {
			return first, fmt.Errorf("workers %d: %w", w, err)
		}
		if i == 0 {
			first, base = v, blob
		} else if !bytes.Equal(base, blob) {
			return first, fmt.Errorf("%s not deterministic: workers %d and %d disagree", what, workerCounts[0], w)
		}
	}
	return first, nil
}

// withJSON pairs a result with its JSON encoding, the fingerprint
// sameAtWorkers compares for study and search results.
func withJSON[T any](v T, err error) (T, []byte, error) {
	if err != nil {
		return v, nil, err
	}
	blob, err := json.Marshal(v)
	return v, blob, err
}

// withinTol reports whether two floats agree within relative tolerance
// (absolute near zero), mirroring powersim.ApproxEqual.
func withinTol(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff <= tol*scale
}

// diffGolden compares two golden documents of the same type and
// returns one line per mismatch, naming the field by its JSON path
// (runs[0].iops, policies[0].ledger_decisions[spin-up]).  It walks the
// typed values, not decoded JSON, because Go writes an integral float
// like an int.  Every exported field is compared: integers and strings
// exactly, floats within tol.  A slice of another length is one
// mismatch; a map is walked over the sorted union of its keys, and a
// key on one side only is one mismatch.  Only the top-level pointer is
// dereferenced, and any other kind (bool, interface, nested pointer) is
// reported as a mismatch, never passed.
func diffGolden(want, got any, tol float64) []string {
	var diffs []string
	diffValue(&diffs, "", reflect.Indirect(reflect.ValueOf(want)), reflect.Indirect(reflect.ValueOf(got)), tol)
	return diffs
}

// diffValue appends the mismatches between w and g, found at path, to
// diffs.
func diffValue(diffs *[]string, path string, w, g reflect.Value, tol float64) {
	report := func(format string, args ...any) {
		*diffs = append(*diffs, path+": "+fmt.Sprintf(format, args...))
	}
	switch w.Kind() {
	case reflect.Struct:
		for i := 0; i < w.NumField(); i++ {
			f := w.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			if path != "" {
				name = path + "." + name
			}
			diffValue(diffs, name, w.Field(i), g.Field(i), tol)
		}
	case reflect.Slice, reflect.Array:
		if w.Len() != g.Len() {
			report("want %d entries, got %d", w.Len(), g.Len())
			return
		}
		for i := 0; i < w.Len(); i++ {
			diffValue(diffs, fmt.Sprintf("%s[%d]", path, i), w.Index(i), g.Index(i), tol)
		}
	case reflect.Map:
		keys := map[string]reflect.Value{}
		for _, m := range []reflect.Value{w, g} {
			for _, k := range m.MapKeys() {
				keys[fmt.Sprint(k)] = k
			}
		}
		names := make([]string, 0, len(keys))
		for name := range keys {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			key := fmt.Sprintf("%s[%s]", path, name)
			wv, gv := w.MapIndex(keys[name]), g.MapIndex(keys[name])
			switch {
			case !gv.IsValid():
				*diffs = append(*diffs, fmt.Sprintf("%s: want %v, got no entry", key, wv))
			case !wv.IsValid():
				*diffs = append(*diffs, fmt.Sprintf("%s: want no entry, got %v", key, gv))
			default:
				diffValue(diffs, key, wv, gv, tol)
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if w.Int() != g.Int() {
			report("want %d, got %d", w.Int(), g.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if w.Uint() != g.Uint() {
			report("want %d, got %d", w.Uint(), g.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if !withinTol(w.Float(), g.Float(), tol) {
			report("want %.9g, got %.9g (tol %g)", w.Float(), g.Float(), tol)
		}
	case reflect.String:
		if w.String() != g.String() {
			report("want %q, got %q", w.String(), g.String())
		}
	default:
		report("no comparison rule for kind %s", w.Kind())
	}
}

// marshalGolden returns the committed byte form of a golden document:
// indented JSON and a trailing newline.
func marshalGolden(v any) ([]byte, error) {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// readGolden loads a committed golden document.
func readGolden[T any](path string) (*T, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g T
	if err := json.Unmarshal(blob, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", path, err)
	}
	return &g, nil
}

// writeGolden commits a golden document in its byte form.
func writeGolden(path string, v any) error {
	blob, err := marshalGolden(v)
	if err != nil {
		return err
	}
	return writeGoldenBytes(path, blob)
}

// writeGoldenBytes commits a golden artifact verbatim.
func writeGoldenBytes(path string, blob []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// diffGoldenBytes requires the fresh artifact to match the committed
// bytes exactly, and names the first line where the two part.
func diffGoldenBytes(path string, fresh []byte) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if bytes.Equal(want, fresh) {
		return nil
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(fresh), "\n")
	i := 0
	for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return strconv.Quote(lines[i])
		}
		return "end of file"
	}
	return fmt.Errorf("%s drifted from the committed golden at line %d: want %s, got %s (re-run with -update if intended)",
		filepath.Base(path), i+1, line(wl), line(gl))
}

// errNoFixtures reports a fixture directory without a single trace.
var errNoFixtures = errors.New("no " + TraceSuffix + " fixtures")

// mismatches is a fixture whose fresh output disagrees with what it
// must match, one line per disagreement.  walkFixtures prints each line
// indented under the fixture's FAIL line.
type mismatches []string

func (m mismatches) Error() string { return fmt.Sprintf("%d mismatch(es)", len(m)) }

// walkFixtures runs check on every *.trace.txt fixture under dir, in
// name order.  A fixture that fails to load or check gets a FAIL line
// on out, and the walk goes on, so one broken fixture never hides the
// rest.  The returned error counts the failures and wraps the first.
func walkFixtures(label, dir string, out io.Writer, check func(name string, trace *blktrace.Trace) error) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+TraceSuffix))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("%s: %w under %s", label, errNoFixtures, dir)
	}
	sort.Strings(paths)
	failed := 0
	var first error
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), TraceSuffix)
		trace, err := LoadFixtureTrace(path)
		if err == nil {
			err = check(name, trace)
		}
		if err == nil {
			continue
		}
		failed++
		if first == nil {
			first = err
		}
		fmt.Fprintf(out, "FAIL %s: %v\n", name, err)
		var diffs mismatches
		if errors.As(err, &diffs) {
			for _, d := range diffs {
				fmt.Fprintf(out, "  %s\n", d)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%s: %d of %d fixtures failed: %w", label, failed, len(paths), first)
	}
	return nil
}

// goldenGate is one golden-backed gate: each fixture trace beside a
// committed document of type G.
type goldenGate[G any] struct {
	// label prefixes the gate's summary error.
	label string
	// suffix names the committed document beside each fixture trace.
	suffix string
	// canonical, when set, is the fixture -update writes into an empty
	// directory.
	canonical func() *blktrace.Trace
	// tally is the count a fixture's PASS or UPDATED line reports.
	tally func(*G) string
	// build checks one fixture and returns its document, plus the
	// artifact export to run if the document fails its diff.
	build func(name string, trace *blktrace.Trace) (*G, func(dir string, out io.Writer), error)
}

// verifyGoldens runs gate over the fixtures under dir.  With
// opts.Update it rewrites each committed document, after writing the
// gate's canonical fixture into an empty directory.  Otherwise it diffs
// each fresh document against the committed one, and when
// opts.TelemetryDir is set, exports the first failing fixture's
// artifacts there once the walk is done.
func verifyGoldens[G any](gate goldenGate[G], dir string, opts VerifyOptions, out io.Writer) error {
	if opts.Update && gate.canonical != nil {
		if err := bootstrapFixture(dir, gate.canonical(), out); err != nil {
			return err
		}
	}
	var export func(dir string, out io.Writer)
	err := walkFixtures(gate.label, dir, out, func(name string, trace *blktrace.Trace) error {
		got, exportFn, err := gate.build(name, trace)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name+gate.suffix)
		if opts.Update {
			if err := writeGolden(path, got); err != nil {
				return err
			}
			fmt.Fprintf(out, "UPDATED %s (%s)\n", name, gate.tally(got))
			return nil
		}
		want, err := readGolden[G](path)
		if err != nil {
			return fmt.Errorf("%w (run with -update to create)", err)
		}
		if diffs := diffGolden(want, got, DefaultTol); len(diffs) > 0 {
			if export == nil && opts.TelemetryDir != "" {
				export = exportFn
			}
			return mismatches(diffs)
		}
		fmt.Fprintf(out, "PASS %s (%s)\n", name, gate.tally(got))
		return nil
	})
	if export != nil {
		export(opts.TelemetryDir, out)
	}
	if gate.canonical != nil && errors.Is(err, errNoFixtures) {
		return fmt.Errorf("%w (run with -update to bootstrap)", err)
	}
	return err
}

// bootstrapFixture writes trace into dir as the idle-web fixture when
// dir holds no fixture yet.
func bootstrapFixture(dir string, trace *blktrace.Trace, out io.Writer) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+TraceSuffix))
	if err != nil || len(paths) > 0 {
		return err
	}
	path := filepath.Join(dir, "idle-web"+TraceSuffix)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := blktrace.WriteText(f, trace); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "CREATED %s\n", path)
	return nil
}

// exportTelemetry re-runs one cell of a failing fixture with full
// instrumentation and writes the telemetry artifact directory.  Export
// problems are reported on out but never mask the verification failure
// itself.
func exportTelemetry(dir, name string, cfg experiments.Config, spec experiments.StackSpec, load float64, trace *blktrace.Trace, out io.Writer) {
	set := telemetry.New(telemetry.Options{})
	s, err := experiments.Build(cfg, spec)
	if err == nil {
		_, err = experiments.Measure(s, trace, replay.UniformFilter{Proportion: load}, set)
	}
	if err != nil {
		fmt.Fprintf(out, "  telemetry capture for %s failed: %v\n", name, err)
		return
	}
	if err := set.WriteDir(dir); err != nil {
		fmt.Fprintf(out, "  telemetry export for %s failed: %v\n", name, err)
		return
	}
	cell := spec.Kind.String()
	if spec.Cache != nil {
		cell = spec.Cache.Label()
	}
	fmt.Fprintf(out, "  telemetry for %s (%s load %v) written to %s\n", name, cell, load, dir)
}
