package powersim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/simtime"
)

// fuzzDraws is the fuzz encoding's table of draws: −0, +0, NaN, an
// HDD's five powers and 248 distinct levels, so an input can fill a
// palette many times over.
var fuzzDraws = func() [256]float64 {
	var d [256]float64
	copy(d[:], []float64{math.Copysign(0, -1), 0, math.NaN(), 8, 13.5, 11.5, 0.8, 20})
	copy(d[8:], distinctLevels(248))
	return d
}()

// fuzzGaps are the gaps the encoding's first six op codes take.  1<<60
// exceeds a chunk's offset range, so it seals the chunk.
var fuzzGaps = [...]simtime.Duration{0, 1, 1000, simtime.Millisecond, sec, 1 << 60}

// fuzzLimit bounds the encoded times, so that no window end plus a
// cycle overflows the clock.
const fuzzLimit = simtime.Time(1 << 61)

// decodeCalls turns fuzz bytes into a Set sequence.  Each op is two
// bytes, a code and a draw.  Codes 0–5 step by fuzzGaps (0 overwrites
// the last step); code 6 steps by the code's upper bits in
// microseconds; code 7 is a burst of 256 to 8,192 steps a microsecond
// apart, cycling through 16 draws from the op's draw on, which runs
// past a chunk.  An op that would pass fuzzLimit is dropped, and
// decoding stops at 16,384 calls.
func decodeCalls(data []byte) []setCall {
	var calls []setCall
	at := simtime.Time(0)
	for ; len(data) >= 2 && len(calls) < 1<<14; data = data[2:] {
		code, d := data[0], data[1]
		n, gap := 1, simtime.Duration(0)
		switch c := int(code % 8); {
		case c < len(fuzzGaps):
			gap = fuzzGaps[c]
		case c == 6:
			gap = simtime.Duration(code>>3+1) * simtime.Microsecond
		default:
			n, gap = 256*int(code>>3+1), simtime.Microsecond
		}
		if fuzzLimit-at < simtime.Time(gap)*simtime.Time(n) {
			continue
		}
		for j := range n {
			at = at.Add(gap)
			calls = append(calls, setCall{t: at, w: fuzzDraws[(int(d)+j%16)%len(fuzzDraws)]})
		}
	}
	return calls
}

// encodeCalls is decodeCalls' inverse for single steps: each call maps
// to its gap's op code (a gap the table lacks becomes the sealing gap
// from 1<<60 up, and a microsecond multiple below) and to its draw's
// index in fuzzDraws, or an index by value for draws the table lacks.
func encodeCalls(calls []setCall) []byte {
	var data []byte
	prev := simtime.Time(0)
	for _, c := range calls {
		gap := c.t.Sub(prev)
		code := byte(6) | byte(min(max(gap/simtime.Microsecond-1, 0), 31))<<3
		for i, g := range fuzzGaps {
			if gap == g || i == len(fuzzGaps)-1 && gap > g {
				code = byte(i)
			}
		}
		d := byte(math.Float64bits(c.w))
		for i, w := range fuzzDraws {
			if sameBits(w, c.w) {
				d = byte(i)
			}
		}
		data = append(data, code, d)
		prev = c.t
	}
	return data
}

// refMeasure is Measure as a loop that calls src.MeanWatts per cycle,
// with no noise at a 220 V supply.
func refMeasure(src Source, cycle simtime.Duration, t0, t1 simtime.Time) []Sample {
	var out []Sample
	for start := t0; start < t1; start = start.Add(cycle) {
		end := minTime(start.Add(cycle), t1)
		w := src.MeanWatts(start, end)
		out = append(out, Sample{Start: start, End: end, Watts: w, Volts: 220, Amps: w / 220})
	}
	return out
}

func sameSamples(a, b []Sample) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d samples, reference %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Start != y.Start || x.End != y.End || !sameBits(x.Watts, y.Watts) || !sameBits(x.Volts, y.Volts) || !sameBits(x.Amps, y.Amps) {
			return fmt.Errorf("sample %d: %+v, reference %+v", i, x, y)
		}
	}
	return nil
}

// FuzzMeterMatchesMeanWatts holds the meter's forward cursor to the
// sources' own MeanWatts.  Set sequences include same-time overwrites,
// more draws than a palette holds, gaps that seal a chunk and bursts
// longer than a chunk; windows and cycles are arbitrary.  Three checks:
//
//   - Measure over a *Timeline, a Sum (holding that timeline twice, so
//     an order of addition that differs shows) and a PSU equals, bit for bit, a loop calling MeanWatts per cycle.
//   - A Ticker whose timeline is Set ahead of the clock, interleaved
//     with its reads, equals a post-hoc Measure.
//   - A cursor read after every Set, including overwrites of the step
//     it rests on, equals a fresh MeanWatts over the same window.
func FuzzMeterMatchesMeanWatts(f *testing.F) {
	for i, c := range timelineCases() {
		f.Add(encodeCalls(c.calls), c.zero, uint8(3+i%5), int64(i)*int64(sec)/3, int64(30*sec)+int64(i), int64(sec), int64(i%3)*int64(sec))
	}
	f.Add([]byte{4, 3, 7, 9, 5, 8, 0, 20, 0, 30, 7, 40}, false, uint8(3), int64(0), int64(1<<61), int64(1<<50), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, zero bool, base uint8, t0raw, spanRaw, cycleRaw, leadRaw int64) {
		calls := decodeCalls(data)
		build := func() *Timeline {
			if zero {
				return &Timeline{}
			}
			return NewTimeline(fuzzDraws[base])
		}
		tl := build()
		for _, c := range calls {
			tl.Set(c.t, c.w)
		}
		// Windows open up to a second before time zero and close up to
		// a second past the last step; at most 4,096 cycles each.
		last := simtime.Time(0)
		if len(calls) > 0 {
			last = calls[len(calls)-1].t
		}
		horizon := uint64(last) + 2*uint64(sec)
		t0 := simtime.Time(uint64(t0raw)%horizon) - simtime.Time(sec)
		t1 := t0 + simtime.Time(uint64(spanRaw)%horizon)
		cycle := simtime.Duration(1 + uint64(cycleRaw)%horizon)
		if n := uint64(t1-t0) / uint64(cycle); n > 4096 {
			cycle = simtime.Duration(uint64(t1-t0)/4096 + 1)
		}

		other := NewTimeline(3.25)
		other.Set(simtime.Time(sec/2), 7.5)
		other.Set(simtime.Time(5*sec), 1.25)
		sum := Sum{other, tl, tl}
		for _, src := range []Source{tl, sum, PSU{Source: sum, Efficiency: 0.87, StandbyW: 4.5}} {
			m := &Meter{Source: src, Cycle: cycle, SupplyVolts: 220}
			if err := sameSamples(m.Measure(t0, t1), refMeasure(src, cycle, t0, t1)); err != nil {
				t.Fatalf("Measure over %T [%v, %v) cycle %v: %v", src, t0, t1, cycle, err)
			}
		}

		// Online: each Set lands on the clock up to lead before its time,
		// in sequence order, while the ticker reads [0, until).
		online := build()
		e := simtime.NewEngine()
		until := max(t1, 1)
		m := &Meter{Source: online, Cycle: cycle, SupplyVolts: 220}
		if n := uint64(until) / uint64(cycle); n > 4096 {
			m.Cycle = simtime.Duration(uint64(until)/4096 + 1)
		}
		ticker := m.Tick(e, until)
		lead := simtime.Duration(uint64(leadRaw) % horizon)
		clock := simtime.Time(0)
		for _, c := range calls {
			clock = max(clock, c.t-simtime.Time(lead))
			e.ScheduleEvent(clock, handlerFunc(func(*simtime.Engine, simtime.EventArg) { online.Set(c.t, c.w) }), simtime.EventArg{})
		}
		e.Run()
		if err := sameSamples(ticker.Samples(), m.Measure(0, until)); err != nil {
			t.Fatalf("Ticker to %v cycle %v, Sets %v ahead: %v", until, m.Cycle, lead, err)
		}

		// A cursor read after every Set: each window ends just past the
		// newest step, so the next Set may overwrite, or move, the step
		// the cursor rests on.  Some windows skip ahead, and some go back
		// to t0, before the step the cursor rests on.
		grown := build()
		cur := newCursor(grown)
		from := t0
		for i, c := range calls {
			grown.Set(c.t, c.w)
			switch {
			case i%7 == 6 && from < c.t:
				from = c.t - 1
			case i%5 == 4:
				from = t0
			}
			a, b := min(from, c.t), c.t+1
			if got, want := cur.meanWatts(a, b), grown.MeanWatts(a, b); !sameBits(got, want) {
				t.Fatalf("after Set %d (%v, %v): cursor read %v over [%v, %v), MeanWatts %v", i, c.t, c.w, got, a, b, want)
			}
			from = b
		}
	})
}
