package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// buildPromSet populates a Set the way a run would: counters, a gauge,
// a watermark, a probe (which must NOT export) and a histogram.
func buildPromSet() *Set {
	s := New(Options{})
	r := s.Registry()
	r.Counter("replay.events").Add(1234)
	r.Counter("raid.rebuild-reads").Add(40) // '-' must fold to '_'
	r.Gauge("fleet.inflight").Add(-3)
	r.Watermark("heap.depth").Update(17)
	r.ProbeCounter("engine.fired", func() float64 { return 999 })
	h := r.Histogram("response_ns", []int64{10, 100, 1000})
	for _, v := range []int64{5, 50, 500, 5000, 7, 70} {
		h.Observe(v)
	}
	return s
}

func TestWritePrometheusAgainstSummary(t *testing.T) {
	s := buildPromSet()
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ValidateExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("scrape failed validation: %v\n%s", err, buf.Bytes())
	}

	// The scrape must agree with summary.json's totals exactly —
	// same atomics, integer values, no rounding anywhere.
	sum := s.buildSummary()
	checked := 0
	for _, c := range sum.Columns {
		name := PromPrefix + promName(c.Name)
		switch c.Kind {
		case "counter":
			name += "_total"
		case "probe_counter", "probe_gauge":
			if _, ok := exp.Value(name, ""); ok {
				t.Errorf("probe column %s leaked into the scrape", c.Name)
			}
			continue
		}
		v, ok := exp.Value(name, "")
		if !ok {
			t.Errorf("column %s missing from scrape as %s", c.Name, name)
			continue
		}
		if v != c.Total {
			t.Errorf("%s = %v, summary says %v", name, v, c.Total)
		}
		checked++
	}
	if checked != 4 {
		t.Errorf("checked %d atomic columns, want 4", checked)
	}
	for _, h := range sum.Histogram {
		fam := PromPrefix + promName(h.Name)
		if v, ok := exp.Value(fam+"_count", ""); !ok || v != float64(h.Count) {
			t.Errorf("%s_count = %v (present %v), summary says %d", fam, v, ok, h.Count)
		}
		if v, ok := exp.Value(fam+"_sum", ""); !ok || v != float64(h.Snapshot.Sum) {
			t.Errorf("%s_sum = %v (present %v), summary says %d", fam, v, ok, h.Snapshot.Sum)
		}
		// Cumulative buckets must re-derive from the snapshot.
		var cum int64
		for i, b := range h.Snapshot.Bounds {
			cum += h.Snapshot.Counts[i]
			le := `{le="` + fmtNum(float64(b)) + `"}`
			if v, ok := exp.Value(fam+"_bucket", le); !ok || v != float64(cum) {
				t.Errorf("%s_bucket%s = %v (present %v), want %d", fam, le, v, ok, cum)
			}
		}
		if v, ok := exp.Value(fam+"_bucket", `{le="+Inf"}`); !ok || v != float64(h.Count) {
			t.Errorf("%s_bucket{+Inf} = %v (present %v), want %d", fam, v, ok, h.Count)
		}
	}
}

func TestPromNameFolding(t *testing.T) {
	cases := map[string]string{
		"replay.events":     "replay_events",
		"raid.rebuild-ops":  "raid_rebuild_ops",
		"a/b c":             "a_b_c",
		"already_legal:ok9": "already_legal:ok9",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusNameCollision(t *testing.T) {
	s := New(Options{})
	s.Registry().Counter("a.b").Inc()
	s.Registry().Counter("a_b").Inc()
	var buf bytes.Buffer
	err := s.Registry().WritePrometheus(&buf)
	if err == nil || !strings.Contains(err.Error(), "collision") {
		t.Fatalf("colliding fold survived: %v", err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE": "# HELP tracer_x help\ntracer_x 1\n",
		"no HELP": "# TYPE tracer_x counter\ntracer_x 1\n",
		"duplicate family": "# HELP tracer_x h\n# TYPE tracer_x counter\ntracer_x 1\n" +
			"# TYPE tracer_x counter\n",
		"duplicate sample": "# HELP tracer_x h\n# TYPE tracer_x counter\ntracer_x 1\ntracer_x 2\n",
		"negative counter": "# HELP tracer_x h\n# TYPE tracer_x counter\ntracer_x -1\n",
		"undeclared":       "tracer_y 1\n",
		"timestamped":      "# HELP tracer_x h\n# TYPE tracer_x gauge\ntracer_x 1 1700000000\n",
		"non-monotone buckets": "# HELP tracer_h h\n# TYPE tracer_h histogram\n" +
			"tracer_h_bucket{le=\"1\"} 5\ntracer_h_bucket{le=\"2\"} 3\ntracer_h_bucket{le=\"+Inf\"} 6\n" +
			"tracer_h_sum 9\ntracer_h_count 6\n",
		"no +Inf": "# HELP tracer_h h\n# TYPE tracer_h histogram\n" +
			"tracer_h_bucket{le=\"1\"} 5\ntracer_h_sum 9\ntracer_h_count 6\n",
		"+Inf != count": "# HELP tracer_h h\n# TYPE tracer_h histogram\n" +
			"tracer_h_bucket{le=\"+Inf\"} 5\ntracer_h_sum 9\ntracer_h_count 6\n",
		"TYPE after samples": "# HELP tracer_x h\ntracer_x 1\n# TYPE tracer_x counter\n",
	}
	for name, blob := range cases {
		if _, err := ValidateExposition([]byte(blob)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, blob)
		}
	}

	good := "# HELP tracer_x h\n# TYPE tracer_x counter\ntracer_x 12\n"
	exp, err := ValidateExposition([]byte(good))
	if err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if v, ok := exp.Value("tracer_x", ""); !ok || v != 12 {
		t.Fatalf("Value(tracer_x) = %v, %v", v, ok)
	}
}
