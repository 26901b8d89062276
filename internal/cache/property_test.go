package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/synth"
)

// Satellite properties: write conservation (bytes admitted dirty ==
// bytes written back + bytes still dirty at drain), no eviction policy
// ever exceeds the configured capacity, and a zero-capacity cache is a
// byte-identical pass-through of the uncached system.

// randomWorkload drives n seeded random requests through c and runs
// the engine to drain after each.
func randomWorkload(t *testing.T, engine *simtime.Engine, c *Cache, seed uint64, n int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xcafe))
	for i := 0; i < n; i++ {
		op := storage.Read
		if rng.Float64() < 0.5 {
			op = storage.Write
		}
		off := rng.Int64N(64 << 20)
		size := int64(1+rng.IntN(64)) * 4096
		fired := 0
		c.Submit(storage.Request{Op: op, Offset: off, Size: size}, func(simtime.Time) { fired++ })
		// Randomly interleave: half the time let everything drain,
		// otherwise keep requests in flight.
		if rng.IntN(2) == 0 {
			engine.Run()
		}
		_ = fired
	}
	engine.Run()
}

func TestPropertyWriteConservation(t *testing.T) {
	for _, evict := range []string{"lru", "2q", "clock"} {
		for _, admission := range []string{"always", "zone", "bypass-seq"} {
			for seed := uint64(1); seed <= 5; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", evict, admission, seed)
				t.Run(name, func(t *testing.T) {
					engine := simtime.NewEngine()
					dev := &fakeDev{engine: engine, capacity: 32 << 20, latency: 2 * simtime.Millisecond}
					c, err := New(engine, dev, powersim.NewTimeline(5), Params{
						Tier:          TierDRAM,
						CapacityBytes: 2 << 20, // 32 lines: small enough to force evictions
						Eviction:      evict,
						Admission:     admission,
					})
					if err != nil {
						t.Fatal(err)
					}
					randomWorkload(t, engine, c, seed, 400)
					st := c.Stats()
					if st.BytesDirtied != st.WritebackBytes+st.DirtyBytes {
						t.Fatalf("conservation violated: dirtied %d != written back %d + dirty %d",
							st.BytesDirtied, st.WritebackBytes, st.DirtyBytes)
					}
					if st.DirtyBytes != 0 {
						t.Fatalf("%d bytes still dirty after full drain", st.DirtyBytes)
					}
					if err := c.CheckInvariants(engine.Now()); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func TestPropertyCapacityNeverExceeded(t *testing.T) {
	for _, evict := range []string{"lru", "2q", "clock"} {
		t.Run(evict, func(t *testing.T) {
			engine := simtime.NewEngine()
			dev := &fakeDev{engine: engine, capacity: 256 << 20, latency: simtime.Millisecond}
			c, err := New(engine, dev, powersim.NewTimeline(5), Params{
				Tier:          TierDRAM,
				CapacityBytes: 1 << 20, // 16 lines
				Eviction:      evict,
			})
			if err != nil {
				t.Fatal(err)
			}
			randomWorkload(t, engine, c, 99, 600)
			st := c.Stats()
			if st.MaxOccupancy > c.capacityLines {
				t.Fatalf("%s: max occupancy %d exceeded capacity %d lines", evict, st.MaxOccupancy, c.capacityLines)
			}
			if st.Evictions == 0 {
				t.Fatalf("%s: workload never evicted; property vacuous", evict)
			}
			if err := c.CheckInvariants(engine.Now()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPropertyZeroCapacityPassthrough replays the same trace against a
// bare array and a zero-capacity cached array: every observable —
// replay result JSON and metered power samples — must be byte-for-byte
// identical.
func TestPropertyZeroCapacityPassthrough(t *testing.T) {
	trace := synth.WebServerTrace(synth.WebServerParams{
		Seed: 11, Duration: 30 * simtime.Second, MeanIOPS: 50, FootprintBytes: 1 << 30,
	})

	run := func(cached bool) ([]byte, []byte) {
		engine := simtime.NewEngine()
		array, err := raid.NewHDDArray(engine, raid.DefaultParams(), 4, disksim.Seagate7200())
		if err != nil {
			t.Fatal(err)
		}
		var dev storage.Device = array
		var src powersim.Source = array.PowerSource()
		if cached {
			c, err := New(engine, array, array.PowerSource(), Params{Tier: TierDRAM, CapacityBytes: 0})
			if err != nil {
				t.Fatal(err)
			}
			dev, src = c, c.PowerSource()
		}
		res, err := replay.Replay(engine, dev, trace, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		resJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		meter := powersim.DefaultMeter(src)
		samples, err := json.Marshal(meter.Measure(res.Start, res.End))
		if err != nil {
			t.Fatal(err)
		}
		return resJSON, samples
	}

	baseRes, baseSamples := run(false)
	cachedRes, cachedSamples := run(true)
	if !bytes.Equal(baseRes, cachedRes) {
		t.Fatal("zero-capacity cache changed the replay result")
	}
	if !bytes.Equal(baseSamples, cachedSamples) {
		t.Fatal("zero-capacity cache changed the metered power samples")
	}
}

// TestPinnedHitCounts replays 20,000 4 KiB reads whose hits are fixed
// by construction through a 32 MiB tier over a 6-HDD array: a 32-extent
// hot set read round-robin stays resident, and one never-reused cold
// extent every 1, 2 or 20 accesses supplies the misses.  LRU and 2Q
// miss only the hot set's 32 cold starts; CLOCK misses 32 more.
func TestPinnedHitCounts(t *testing.T) {
	const n, hotExtents = 20000, 32
	coldEvery := []int{1, 2, 20}
	want := map[string][]int64{
		"lru":   {0, 9968, 18968},
		"2q":    {0, 9968, 18968},
		"clock": {0, 9936, 18936},
	}
	traces := make([]*blktrace.Trace, len(coldEvery))
	for i, every := range coldEvery {
		tr := &blktrace.Trace{Device: fmt.Sprintf("cold-every-%d", every)}
		var cold, hot int64
		for j := range n {
			ext := hot % hotExtents
			if (j+1)%every == 0 {
				ext = hotExtents + cold
				cold++
			} else {
				hot++
			}
			tr.Bunches = append(tr.Bunches, blktrace.Bunch{
				Time:     simtime.Duration(j) * simtime.Millisecond,
				Packages: []blktrace.IOPackage{{Sector: ext * DefaultExtentBytes / storage.SectorSize, Size: 4 << 10, Op: storage.Read}},
			})
		}
		traces[i] = tr
	}
	for _, tier := range []string{TierDRAM, TierSSD} {
		for _, eviction := range []string{"lru", "2q", "clock"} {
			for i, tr := range traces {
				t.Run(tier+"/"+eviction+"/"+tr.Device, func(t *testing.T) {
					engine := simtime.NewEngine()
					arr, err := raid.NewHDDArray(engine, raid.DefaultParams(), 6, disksim.Seagate7200())
					if err != nil {
						t.Fatal(err)
					}
					c, err := New(engine, arr, arr.PowerSource(), Params{Tier: tier, CapacityBytes: 32 << 20, Eviction: eviction})
					if err != nil {
						t.Fatal(err)
					}
					res, err := replay.Replay(engine, c, tr, replay.Options{})
					if err != nil {
						t.Fatal(err)
					}
					s := c.Stats()
					if res.Completed != n || s.Hits+s.Misses != n || s.Hits != want[eviction][i] {
						t.Fatalf("%d completed, %d hits and %d misses; want %d, %d and %d",
							res.Completed, s.Hits, s.Misses, n, want[eviction][i], n-want[eviction][i])
					}
				})
			}
		}
	}
}
