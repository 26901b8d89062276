package disksim

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/simtime"
	"repro/internal/storage"
)

// handlerFunc adapts a closure to simtime.Handler for test scheduling.
type handlerFunc func(*simtime.Engine, simtime.EventArg)

func (f handlerFunc) OnEvent(e *simtime.Engine, arg simtime.EventArg) { f(e, arg) }

// TestDiskRequestPathAllocatesNothing: once warm, a request submitted
// to an idle drive and drained costs no allocation, with one request
// queued behind another so the queue's head advances every run.
func TestDiskRequestPathAllocatesNothing(t *testing.T) {
	reqs := [2]storage.Request{
		{Op: storage.Read, Offset: 1 << 30, Size: 4096},
		{Op: storage.Write, Offset: 7 << 30, Size: 64 << 10},
	}
	for _, c := range []struct {
		name string
		dev  func(e *simtime.Engine) storage.Device
	}{
		{"hdd", func(e *simtime.Engine) storage.Device { return NewHDD(e, Seagate7200()) }},
		{"ssd", func(e *simtime.Engine) storage.Device { return NewSSD(e, MemorightSLC32()) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := simtime.NewEngine()
			d := c.dev(e)
			done := func(simtime.Time) {}
			run := func() {
				for _, r := range reqs {
					d.Submit(r, done)
				}
				e.Run()
			}
			for range 20 {
				run()
			}
			if got := testing.AllocsPerRun(200, run); got != 0 {
				t.Fatalf("%v allocations per run, want 0", got)
			}
		})
	}
}

// TestHDDQueueBufferStaysBounded: a drive that serves many requests at
// a steady queue depth reuses its queue buffer instead of letting it
// creep along the heap; the buffer stays within four times the depth.
func TestHDDQueueBufferStaysBounded(t *testing.T) {
	const depth, total = 50, 100_000
	e := simtime.NewEngine()
	d := NewHDD(e, Seagate7200())
	rng := rand.New(rand.NewPCG(3, 3))
	submitted, served, worst := 0, 0, 0
	var submit func()
	done := func(simtime.Time) {
		served++
		worst = max(worst, d.queue.Cap())
		if submitted < total {
			submit()
		}
	}
	submit = func() {
		submitted++
		off := rng.Int64N(d.Capacity()/4096-1) * 4096
		d.Submit(storage.Request{Op: storage.Read, Offset: off, Size: 4096}, done)
	}
	for range depth {
		submit()
	}
	e.Run()
	if served != total {
		t.Fatalf("served %d of %d", served, total)
	}
	if worst > 4*depth {
		t.Fatalf("queue buffer reached %d slots at a steady depth of %d", worst, depth)
	}
}

// TestSchedulersMatchReference: each scheduler serves exactly the
// sequence a brute-force reference picks from the same queue, with
// submissions arriving both on a timer and from completion callbacks,
// so picks happen while new requests interleave with the queue.
func TestSchedulersMatchReference(t *testing.T) {
	type queued struct {
		id  int
		off int64
	}
	for _, sched := range []Scheduler{FIFO, SSTF, LOOK} {
		t.Run(sched.String(), func(t *testing.T) {
			const total = 3000
			e := simtime.NewEngine()
			p := Seagate7200()
			p.Scheduler = sched
			d := NewHDD(e, p)
			rng := rand.New(rand.NewPCG(11, uint64(sched)))
			cyl := func(off int64) int64 { return min(off*p.Cylinders/p.CapacityBytes, p.Cylinders-1) }

			// The reference drive: its waiting requests in arrival
			// order, arm position and LOOK sweep direction.
			var waiting []queued
			busy, head, dir := false, int64(0), int64(1)
			// pick removes and returns the id the policy serves next:
			// the nearest cylinder (ahead of the arm, for LOOK), the
			// earliest arrival on ties.
			pick := func() int {
				best := 0
				switch sched {
				case SSTF:
					dist := func(q queued) int64 { return max(cyl(q.off)-head, head-cyl(q.off)) }
					for i, q := range waiting {
						if dist(q) < dist(waiting[best]) {
							best = i
						}
					}
				case LOOK:
					best = -1
					for attempt := 0; best < 0 && attempt < 2; attempt++ {
						for i, q := range waiting {
							delta := (cyl(q.off) - head) * dir
							if delta >= 0 && (best < 0 || delta < (cyl(waiting[best].off)-head)*dir) {
								best = i
							}
						}
						if best < 0 {
							dir = -dir
						}
					}
				}
				id := waiting[best].id
				waiting = slices.Delete(waiting, best, best+1)
				return id
			}

			var want, got []int
			submitted := 0
			var submit func()
			submit = func() {
				id := submitted
				submitted++
				off := rng.Int64N(p.CapacityBytes/4096-1) * 4096
				waiting = append(waiting, queued{id, off})
				if !busy {
					busy = true
					want = append(want, pick())
				}
				d.Submit(storage.Request{Op: storage.Read, Offset: off, Size: 4096}, func(simtime.Time) {
					got = append(got, id)
					head = cyl(off + 4096 - 1)
					if len(waiting) > 0 {
						want = append(want, pick())
					} else {
						busy = false
					}
					for k := rng.IntN(3); k > 0 && submitted < total; k-- {
						submit()
					}
				})
			}
			tick := handlerFunc(func(*simtime.Engine, simtime.EventArg) { submit() })
			for i := range total / 3 {
				e.ScheduleEvent(simtime.Time(i)*simtime.Time(3*simtime.Millisecond), tick, simtime.EventArg{})
			}
			e.Run()
			if len(got) != submitted || submitted < total/2 {
				t.Fatalf("served %d of %d submitted", len(got), submitted)
			}
			if !slices.Equal(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("service %d: drive served request %d, reference picks %d", i, got[i], want[i])
					}
				}
			}
		})
	}
}
