package workload

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// FuzzMultiPeriodSpec holds the -periods JSON grammar to a decode
// error, a labelled rejection, or a spec whose every window lies in
// [0, Horizon] without overflow, in order and without overlap, whose
// Duration is the last window's end, and whose PeriodAt finds each
// window at its own start.  Nothing may panic.
func FuzzMultiPeriodSpec(f *testing.F) {
	for _, total := range []simtime.Duration{simtime.Second, 10 * simtime.Minute, 24 * simtime.Hour, simtime.Duration(simtime.Horizon)} {
		for _, name := range []string{"diurnal", "flash-crowd", "multi-tenant"} {
			spec, err := PresetSpec(name, total)
			if err != nil {
				f.Fatal(err)
			}
			blob, err := json.Marshal(spec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	// A start, and a duration, that overflow End and once passed.
	f.Add([]byte(`{"version":1,"name":"far","periods":[{"name":"w","start_ns":9223372036854775000,"duration_ns":1000000000,"load_scale":1,"read_ratio":-1}]}`))
	f.Add([]byte(`{"version":1,"name":"long","periods":[{"name":"w","start_ns":0,"duration_ns":9223372036854775000,"load_scale":1,"read_ratio":-1}]}`))
	f.Add([]byte(`{"periods":[{"start_ns":4611686018427387903,"duration_ns":1,"load_scale":0}]}`))
	f.Add([]byte(`{"periods":[{"start_ns":5,"duration_ns":5},{"start_ns":9,"duration_ns":1}]}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var spec MultiPeriodSpec
		if json.Unmarshal(blob, &spec) != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			if !strings.HasPrefix(err.Error(), "workload: ") {
				t.Fatalf("unlabelled rejection: %v", err)
			}
			return
		}
		h := simtime.Duration(simtime.Horizon)
		for i, w := range spec.Periods {
			if w.Start < 0 || w.Duration <= 0 || w.Duration > h-w.Start {
				t.Fatalf("accepted window %d %+v lies outside [0, %v]", i, w, h)
			}
			if i > 0 && w.Start < spec.Periods[i-1].End() {
				t.Fatalf("accepted window %d %+v starts before window %d ends at %v", i, w, i-1, spec.Periods[i-1].End())
			}
			if got, ok := spec.PeriodAt(w.Start); !ok || got != w {
				t.Fatalf("PeriodAt(%v) = %+v, %v; want window %d %+v", w.Start, got, ok, i, w)
			}
		}
		if last := spec.Periods[len(spec.Periods)-1]; spec.Duration() != last.End() {
			t.Fatalf("Duration() = %v, want the last window's end %v", spec.Duration(), last.End())
		}
	})
}
