package check

// Randomized differential testing: a seeded trace fuzzer producing
// arbitrary-but-valid bunch structures, held to the trace codecs and to
// load control, and a random re-entrant event schedule held to a
// reference kernel.  All randomness is seeded PCG, so every property
// failure reproduces from its seed.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// FuzzParams bound the shape of a generated trace.
type FuzzParams struct {
	// Seed drives the generator; equal seeds yield equal traces.
	Seed uint64
	// MaxBunches bounds the bunch count (at least 1 is generated).
	MaxBunches int
	// MaxBunchSize bounds packages per bunch.
	MaxBunchSize int
	// MaxGap bounds the interarrival between consecutive bunches;
	// gaps of zero (coalesced arrivals) are generated deliberately.
	MaxGap simtime.Duration
	// MaxSector bounds starting sectors.
	MaxSector int64
	// MaxKB bounds request sizes (in KiB, at least 1).
	MaxKB int64
}

// DefaultFuzzParams generate small traces suited to exhaustive replay
// in unit tests.
func DefaultFuzzParams(seed uint64) FuzzParams {
	return FuzzParams{
		Seed:         seed,
		MaxBunches:   40,
		MaxBunchSize: 6,
		MaxGap:       20 * simtime.Millisecond,
		MaxSector:    1 << 22, // 2 GiB span
		MaxKB:        256,
	}
}

// RandomTrace generates a structurally valid trace: non-decreasing
// bunch times (duplicates allowed per the format, though the builder
// merges them), non-empty bunches, positive sizes.  Everything the
// binary and text codecs must round-trip.
func RandomTrace(p FuzzParams) *blktrace.Trace {
	if p.MaxBunches < 1 {
		p.MaxBunches = 1
	}
	if p.MaxBunchSize < 1 {
		p.MaxBunchSize = 1
	}
	if p.MaxKB < 1 {
		p.MaxKB = 1
	}
	rng := rand.New(rand.NewPCG(p.Seed, 0xfacade))
	t := &blktrace.Trace{Device: fmt.Sprintf("fuzz-%d", p.Seed)}
	n := 1 + rng.IntN(p.MaxBunches)
	var at simtime.Duration
	for i := 0; i < n; i++ {
		if i > 0 && p.MaxGap > 0 && rng.IntN(8) > 0 {
			// Mostly advance; 1-in-8 bunches share the previous
			// timestamp's instant exactly (gap 0 exercises ties).
			at += simtime.Duration(rng.Int64N(int64(p.MaxGap)))
		}
		np := 1 + rng.IntN(p.MaxBunchSize)
		b := blktrace.Bunch{Time: at, Packages: make([]blktrace.IOPackage, 0, np)}
		for j := 0; j < np; j++ {
			op := storage.Read
			if rng.IntN(2) == 1 {
				op = storage.Write
			}
			b.Packages = append(b.Packages, blktrace.IOPackage{
				Sector: rng.Int64N(p.MaxSector + 1),
				Size:   (1 + rng.Int64N(p.MaxKB)) << 10,
				Op:     op,
			})
		}
		t.Bunches = append(t.Bunches, b)
	}
	return t
}

// TestRandomTraceValidAndRoundTrips is the codec differential property:
// every fuzzed trace must validate, survive the binary codec
// bit-for-bit, survive the text codec, and the two decoded forms must
// agree with each other.
func TestRandomTraceValidAndRoundTrips(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		tr := RandomTrace(DefaultFuzzParams(seed))
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: invalid trace: %v", seed, err)
		}

		var bin bytes.Buffer
		if err := blktrace.Write(&bin, tr); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fromBin, err := blktrace.Read(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: binary decode: %v", seed, err)
		}

		var txt bytes.Buffer
		if err := blktrace.WriteText(&txt, tr); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fromTxt, err := blktrace.ReadText(bytes.NewReader(txt.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: text decode: %v", seed, err)
		}

		for name, got := range map[string]*blktrace.Trace{"binary": fromBin, "text": fromTxt} {
			if got.Device != tr.Device {
				t.Fatalf("seed %d: %s device %q != %q", seed, name, got.Device, tr.Device)
			}
			if !reflect.DeepEqual(got.Bunches, tr.Bunches) {
				t.Fatalf("seed %d: %s round-trip diverged", seed, name)
			}
		}
	}
}

// schedNode is one event of a random re-entrant schedule: it fires at
// its parent's firing time plus delta, then schedules its children.
type schedNode struct {
	delta    simtime.Duration
	children []int
}

// randomSchedule builds a seeded forest of re-entrant events: roots are
// scheduled up front, and every node schedules its children when it
// fires.  Half the deltas collide on a few hot timestamps to force
// (at, seq) tie-breaks; the rest spread out.
func randomSchedule(seed uint64, n int) (roots []int, nodes []schedNode) {
	rng := rand.New(rand.NewPCG(seed, 0xd1ff))
	nodes = make([]schedNode, n)
	for i := range nodes {
		if rng.IntN(2) == 0 {
			nodes[i].delta = simtime.Duration(rng.Int64N(4)) * simtime.Millisecond
		} else {
			nodes[i].delta = simtime.Duration(rng.Int64N(int64(simtime.Second)))
		}
		if i == 0 || rng.IntN(3) == 0 {
			roots = append(roots, i)
		} else {
			parent := rng.IntN(i)
			nodes[parent].children = append(nodes[parent].children, i)
		}
	}
	return roots, nodes
}

// firing is one dispatched schedule node and its virtual time.
type firing struct {
	id int
	at simtime.Time
}

// forestHandler replays a schedule on the Engine; arg.I64 carries the
// node id.
type forestHandler struct {
	nodes []schedNode
	log   []firing
}

// OnEvent implements simtime.Handler.
func (h *forestHandler) OnEvent(e *simtime.Engine, arg simtime.EventArg) {
	id := int(arg.I64)
	h.log = append(h.log, firing{id, e.Now()})
	for _, c := range h.nodes[id].children {
		e.ScheduleEvent(e.Now().Add(h.nodes[c].delta), h, simtime.EventArg{I64: int64(c)})
	}
}

// scanSchedule replays a schedule on a reference kernel that searches
// every pending event for the least (at, seq) before each dispatch —
// the ordering rule itself, with no heap to get wrong.
func scanSchedule(roots []int, nodes []schedNode) []firing {
	type pending struct {
		at  simtime.Time
		seq int
		id  int
	}
	var queue []pending
	var log []firing
	seq := 0
	schedule := func(at simtime.Time, id int) {
		seq++
		queue = append(queue, pending{at, seq, id})
	}
	for _, r := range roots {
		schedule(simtime.Time(nodes[r].delta), r)
	}
	for len(queue) > 0 {
		best := 0
		for i, p := range queue {
			if p.at < queue[best].at || p.at == queue[best].at && p.seq < queue[best].seq {
				best = i
			}
		}
		p := queue[best]
		queue = append(queue[:best], queue[best+1:]...)
		log = append(log, firing{p.id, p.at})
		for _, c := range nodes[p.id].children {
			schedule(p.at.Add(nodes[c].delta), c)
		}
	}
	return log
}

// TestKernelMatchesBaseline replays seeded random re-entrant schedules
// through the 4-ary Engine and through the linear-scan reference
// kernel: execution order, timestamps and final clocks must be
// identical.
func TestKernelMatchesBaseline(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		roots, nodes := randomSchedule(seed, 400)
		e := simtime.NewEngine()
		h := &forestHandler{nodes: nodes}
		for _, r := range roots {
			e.ScheduleEvent(e.Now().Add(nodes[r].delta), h, simtime.EventArg{I64: int64(r)})
		}
		e.Run()
		want := scanSchedule(roots, nodes)
		if len(h.log) != len(nodes) || len(want) != len(nodes) {
			t.Fatalf("seed %d: engine fired %d events, reference %d, want %d", seed, len(h.log), len(want), len(nodes))
		}
		for i := range want {
			if h.log[i] != want[i] {
				t.Fatalf("seed %d: step %d diverges: engine (node %d at %v) vs reference (node %d at %v)",
					seed, i, h.log[i].id, h.log[i].at, want[i].id, want[i].at)
			}
		}
		if end := want[len(want)-1].at; e.Now() != end {
			t.Fatalf("seed %d: final clocks diverge: %v vs %v", seed, e.Now(), end)
		}
	}
}

// TestReplayDeterministicAcrossWorkers runs the same sweep with a
// sequential executor and an 8-way pool: every cell is an isolated
// seeded simulation, so all measured numbers must match bit for bit.
func TestReplayDeterministicAcrossWorkers(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.CollectDuration = 200 * simtime.Millisecond
	cfg.HDDs = 3

	run := func(workers int) []experiments.Measurement {
		c := cfg
		c.Workers = workers
		r, err := experiments.Sweep(c)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cells
	}
	seq := run(1)
	par := run(8)
	if len(seq) != len(par) || len(seq) == 0 {
		t.Fatalf("sweep lengths: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := seq[i], par[i]
		if a.Load != b.Load || !reflect.DeepEqual(a.Power, b.Power) ||
			a.Result.IOPS != b.Result.IOPS || a.Result.MBPS != b.Result.MBPS ||
			a.Result.Completed != b.Result.Completed ||
			a.Result.MeanResponse != b.Result.MeanResponse ||
			a.Eff.IOPSPerWatt != b.Eff.IOPSPerWatt {
			t.Fatalf("cell %d diverges across worker counts:\nseq: %+v\npar: %+v", i, a, b)
		}
	}
}

// TestLoadScalingMonotonic is the metamorphic load-control property:
// raising the configured proportion can only densify arrivals, so the
// filtered trace's mean interarrival time is non-increasing in the
// proportion, and its duration is invariant (the uniform filter always
// keeps the last bunch of every group).
func TestLoadScalingMonotonic(t *testing.T) {
	p := DefaultFuzzParams(7)
	p.MaxBunches = 200
	for seed := uint64(7); seed <= 9; seed++ {
		p.Seed = seed
		tr := RandomTrace(p)
		if tr.NumBunches() < 20 {
			continue
		}
		prev := -1.0
		for _, load := range []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0} {
			f := replay.UniformFilter{Proportion: load}.Apply(tr)
			if f.Duration() != tr.Duration() {
				t.Fatalf("seed %d load %v: filtered duration %v != original %v", seed, load, f.Duration(), tr.Duration())
			}
			if f.NumBunches() < 2 {
				continue
			}
			mean := f.Duration().Seconds() / float64(f.NumBunches()-1)
			if prev >= 0 && mean > prev*(1+1e-12) {
				t.Fatalf("seed %d: mean interarrival rose from %.9g to %.9g at load %v", seed, prev, mean, load)
			}
			prev = mean
		}
	}
}
