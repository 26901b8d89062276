package slo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// feeder is the call surface Engine and refEngine share.
type feeder interface {
	ObserveAdmission(class int, at simtime.Time)
	ObserveRejection(class int, at simtime.Time)
	ObserveCompletion(class, array int, finish simtime.Time, response simtime.Duration)
	Advance(now simtime.Time)
	Finish(end simtime.Time)
}

// call is one engine call of a seeded stream.
type call struct {
	op           byte // 'a'dmit, 'r'eject, 'c'omplete, 'A'dvance, 'F'inish
	class, array int
	at           simtime.Time
	resp         simtime.Duration
}

func (c call) apply(f feeder) {
	switch c.op {
	case 'a':
		f.ObserveAdmission(c.class, c.at)
	case 'r':
		f.ObserveRejection(c.class, c.at)
	case 'c':
		f.ObserveCompletion(c.class, c.array, c.at, c.resp)
	case 'A':
		f.Advance(c.at)
	case 'F':
		f.Finish(c.at)
	}
}

// streamShape bounds a seeded stream: ticks is how far ahead of the
// last Advance an event may land and how far an Advance may step, in
// eval intervals; a positive gap makes the middle call an Advance that
// jumps the clock that far.
type streamShape struct {
	n, classes, arrays int
	interval, gap      simtime.Duration
	ticks              int64
}

// seededCalls draws a stream the fleet and the replay observer could
// feed, and some they never do: unmatched and out-of-range classes,
// events in ticks already evaluated, responses on and around latency
// thresholds, Advance at random points that never go backwards, and a
// Finish in the middle of a tick.
func seededCalls(seed uint64, s streamShape) []call {
	rng := rand.New(rand.NewPCG(seed, 0x510))
	span := simtime.Duration(s.ticks) * s.interval
	if s.interval > 0 && simtime.Duration(s.ticks) > simtime.Duration(simtime.Horizon)/s.interval {
		span = simtime.Duration(simtime.Horizon) // saturate rather than wrap
	}
	var now simtime.Time // the last Advance
	at := func() simtime.Time {
		t := now.Add(simtime.Duration(rng.Int64N(int64(span) + 1)))
		if rng.IntN(8) == 0 { // late: a tick already evaluated
			t = now.Add(-simtime.Duration(rng.Int64N(int64(span) + 1)))
		}
		return min(max(t, 0), simtime.Horizon)
	}
	resps := []simtime.Duration{0, simtime.Millisecond, 5 * simtime.Millisecond, 5*simtime.Millisecond + 1,
		20 * simtime.Millisecond, 40 * simtime.Millisecond, 80 * simtime.Millisecond, 80*simtime.Millisecond + 1, simtime.Second}
	calls := make([]call, 0, s.n+1)
	for i := range s.n {
		c := call{class: rng.IntN(s.classes+2) - 1, array: rng.IntN(s.arrays+1) - 1}
		switch r := rng.IntN(20); {
		case s.gap > 0 && i == s.n/2:
			now = min(now.Add(s.gap), simtime.Horizon)
			c.op, c.at = 'A', now
		case r < 6:
			c.op, c.at = 'a', at()
		case r < 8:
			c.op, c.at = 'r', at()
		case r < 16:
			c.op, c.at, c.resp = 'c', at(), resps[rng.IntN(len(resps))]
		default:
			now = min(now.Add(simtime.Duration(rng.Int64N(int64(span)/2+1))), simtime.Horizon)
			c.op, c.at = 'A', now
		}
		calls = append(calls, c)
	}
	// Finish somewhere inside a tick, possibly before events still
	// pending.
	end := min(now.Add(simtime.Duration(rng.Int64N(int64(span)+1))), simtime.Horizon)
	return append(calls, call{op: 'F', at: end})
}

// transcript feeds calls to f and records the snapshot JSON after every
// Advance and Finish, then the alert stream.
func transcript(t testing.TB, f feeder, snapshot func() Status, alerts func() []Alert, calls []call) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, c := range calls {
		c.apply(f)
		if c.op == 'A' || c.op == 'F' {
			if err := enc.Encode(snapshot()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := WriteAlerts(&buf, alerts()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stepPower is a deterministic fleet power draw for efficiency
// objectives; it reads zero in some windows, where evaluation skips.
func stepPower(interval simtime.Duration) func(start, end simtime.Time) float64 {
	return func(start, end simtime.Time) float64 {
		return float64((int64(end)/int64(interval))%5) * 40
	}
}

// compareWithReference feeds the same calls to an Engine and to the
// reference and fails on the first byte that differs.  It returns the
// number of alerts.
func compareWithReference(t testing.TB, spec Spec, power bool, calls []call) int {
	t.Helper()
	e, err := NewEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	if power {
		e.Power, ref.Power = stepPower(e.interval), stepPower(e.interval)
	}
	fed := map[int64]bool{}
	peak := 0
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	for i, c := range calls {
		c.apply(e)
		if c.op != 'A' && c.op != 'F' {
			fed[e.tickOf(c.at)] = true
		}
		if err := checkRows(e, fed, &peak); err != nil {
			t.Fatalf("after call %d %+v: %v", i, c, err)
		}
		if c.op == 'A' || c.op == 'F' {
			if err := enc.Encode(e.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.WriteAlerts(&got); err != nil {
		t.Fatal(err)
	}
	want := transcript(t, ref, ref.Snapshot, func() []Alert { return ref.alerts }, calls)
	if !bytes.Equal(got.Bytes(), want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("line %d differs:\nengine    %s\nreference %s", i, g[i], w[i])
			}
		}
		t.Fatalf("engine wrote %d lines, reference %d", len(g), len(w))
	}
	return len(e.alerts)
}

// checkRows holds the engine's per-tick storage to its bound: live rows
// ascend strictly by tick; an evaluated one lies inside the last
// fastTicks−1 ticks, which an evaluation can still read; a pending one
// holds a tick some call fed.  Live rows therefore never outnumber
// fastTicks−1 plus the distinct pending ticks fed, whatever gap the
// clock jumped, and the buffer stays within a constant factor of the
// most rows ever live (peak tracks that).
func checkRows(e *Engine, fed map[int64]bool, peak *int) error {
	live := e.rows[e.head:]
	*peak = max(*peak, len(live))
	for i, r := range live {
		if i > 0 && r.tick <= live[i-1].tick {
			return fmt.Errorf("row %d: tick %d after tick %d", i, r.tick, live[i-1].tick)
		}
		if r.tick <= e.nextTick-int64(e.fastTicks) {
			return fmt.Errorf("row %d: evaluated tick %d outlived the fast window (next tick %d, %d ticks)", i, r.tick, e.nextTick, e.fastTicks)
		}
		if r.tick >= e.nextTick && !fed[r.tick] {
			return fmt.Errorf("row %d: pending tick %d was never fed", i, r.tick)
		}
	}
	if c := cap(e.rows); c > 3**peak+8 {
		return fmt.Errorf("row buffer holds %d rows, peak live %d", c, *peak)
	}
	return nil
}

// diffSpecs are the specs the differential runs: the unit-test spec,
// ExampleSpec (an efficiency objective over a catch-all), one-tick fast
// windows with every kind in one class, and equal windows.
func diffSpecs() map[string]Spec {
	every := Spec{
		Version: SpecVersion, Name: "every-kind",
		FastWindow: 10 * simtime.Millisecond, SlowWindow: 30 * simtime.Millisecond, EvalInterval: 10 * simtime.Millisecond,
		BurnThreshold: 2,
		Classes: []ClassSpec{
			{Name: "mixed", Match: Match{Mod: 3, Buckets: []uint64{0, 2}}, Objectives: []Objective{
				{Name: "lat-tight", Kind: KindLatency, Target: 0.9, ThresholdNs: 5 * simtime.Millisecond},
				{Name: "avail", Kind: KindAvailability, Target: 0.95},
				{Name: "eff", Kind: KindEfficiency, FloorIOPSPerWatt: 5},
				{Name: "lat-loose", Kind: KindLatency, Target: 0.5, ThresholdNs: 40 * simtime.Millisecond},
			}},
			{Name: "rest", Objectives: []Objective{{Name: "eff", Kind: KindEfficiency, FloorIOPSPerWatt: 1}}},
		},
	}
	equal := testSpec()
	equal.Name, equal.FastWindow = "equal-windows", equal.SlowWindow
	return map[string]Spec{"test": testSpec(), "example": ExampleSpec(), "every-kind": every, "equal-windows": equal}
}

// TestEngineMatchesReference: fed identical seeded streams — rejections
// and unmatched classes, events in ticks already evaluated, hour-long
// idle gaps, efficiency objectives with and without a Power callback,
// Advance at random points and Finish mid-tick — the engine writes the
// reference's snapshot after every Advance and Finish and its alert
// stream, byte for byte, and its rows stay within their bound.
func TestEngineMatchesReference(t *testing.T) {
	alerts := 0
	for name, spec := range diffSpecs() {
		d := spec.withDefaults()
		for seed := range uint64(4) {
			for _, power := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed=%d/power=%v", name, seed, power), func(t *testing.T) {
					shape := streamShape{
						n: 3000, classes: len(spec.Classes), arrays: 6,
						interval: d.EvalInterval, ticks: int64(d.FastWindow/d.EvalInterval) + 3,
					}
					if seed == 1 && power {
						shape.gap = simtime.Hour
					}
					alerts += compareWithReference(t, spec, power, seededCalls(seed, shape))
				})
			}
		}
	}
	if alerts == 0 {
		t.Fatal("no stream raised an alert; the comparison covers no alert path")
	}
}

// FuzzEngineMatchesReference is the differential over random streams
// and window shapes.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(500), uint8(0), uint8(5), uint8(20), uint8(3))
	f.Add(uint64(2), uint16(900), uint8(1), uint8(1), uint8(3), uint8(9))
	f.Add(uint64(3), uint16(300), uint8(2), uint8(4), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, pick, fast, slow, ahead uint8) {
		names := []string{"test", "example", "every-kind", "equal-windows"}
		spec := diffSpecs()[names[int(pick)%len(names)]]
		interval := spec.withDefaults().EvalInterval
		fastTicks := 1 + int64(fast%16)
		spec.EvalInterval = interval
		spec.FastWindow = simtime.Duration(fastTicks) * interval
		spec.SlowWindow = simtime.Duration(fastTicks+int64(slow%32)) * interval
		shape := streamShape{
			n: int(n % 2000), classes: len(spec.Classes), arrays: 4,
			interval: interval, ticks: 1 + int64(ahead%(2*uint8(fastTicks)+4)),
		}
		if pick&4 != 0 {
			shape.gap = 500 * interval
		}
		calls := seededCalls(seed, shape)
		compareWithReference(t, spec, pick&8 == 0, calls)
	})
}

// FuzzSpec holds spec JSON to a labelled error, or to an engine that
// takes a short seeded stream of calls and Finish without a panic and
// keeps its rows within their bound.
func FuzzSpec(f *testing.F) {
	example, err := json.Marshal(ExampleSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	golden, err := os.ReadFile("../check/testdata/golden/slo/rebuild-storm.spec.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"classes":[{"name":"a","objectives":[{"name":"l","kind":"latency","target":0.5,"threshold_ns":1}]}],"eval_interval_ns":1,"fast_window_ns":1,"slow_window_ns":4096}`))
	f.Add([]byte(`{"classes":[{"name":"a","objectives":[{"name":"e","kind":"efficiency","floor_iops_per_watt":1}]}],"eval_interval_ns":4611686018427387904,"fast_window_ns":4611686018427387904,"slow_window_ns":4611686018427387904}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"classes":[]`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		spec, err := decodeSpec(blob, "fuzz")
		if err != nil {
			if !strings.HasPrefix(err.Error(), "slo: ") {
				t.Fatalf("unlabelled error %v", err)
			}
			return
		}
		e, err := NewEngine(spec)
		if err != nil {
			t.Fatalf("validated spec rejected by NewEngine: %v", err)
		}
		h := fnv.New64a()
		h.Write(blob)
		seed := h.Sum64()
		e.Power = stepPower(e.interval)
		calls := seededCalls(seed, streamShape{n: 200, classes: len(spec.Classes), arrays: 3, interval: e.interval, ticks: 8})
		rng := rand.New(rand.NewPCG(seed, 1))
		fed := map[int64]bool{}
		peak := 0
		for _, c := range calls {
			if c.op != 'A' && c.op != 'F' && rng.IntN(2) == 0 {
				c.class = e.Classify(c.at, rng.Uint64())
			}
			c.apply(e)
			if c.op != 'A' && c.op != 'F' {
				fed[e.tickOf(c.at)] = true
			}
			if err := checkRows(e, fed, &peak); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := json.Marshal(e.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteAlerts(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
