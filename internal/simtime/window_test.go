package simtime

import "testing"

// TestDrainThrough checks the window-drain semantics: events at or
// before the limit fire in order, the clock stays at the last fired
// event, and scheduling at the window boundary afterwards is legal.
func TestDrainThrough(t *testing.T) {
	e := NewEngine()
	var fired []Time
	note := func() { fired = append(fired, e.Now()) }
	for _, at := range []Time{5, 15, 25, 35} {
		e.Schedule(at, note)
	}
	e.DrainThrough(20)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 15 {
		t.Fatalf("DrainThrough(20) fired %v, want [5 15]", fired)
	}
	if e.Now() != 15 {
		t.Fatalf("clock = %v after drain, want 15 (last fired, not pinned)", e.Now())
	}
	// Scheduling exactly at the boundary must not panic even though the
	// boundary exceeds the clock.
	e.Schedule(20, note)
	e.DrainThrough(20)
	if len(fired) != 3 || fired[2] != 20 {
		t.Fatalf("boundary event did not fire: %v", fired)
	}
	e.DrainThrough(MaxTime)
	if len(fired) != 5 || fired[4] != 35 {
		t.Fatalf("full drain fired %v", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after full drain", e.Pending())
	}
}

// TestDrainThroughReentrant verifies that an event which schedules more
// work inside the window keeps the drain going, matching RunUntil.
func TestDrainThroughReentrant(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.Schedule(10, func() { fired = append(fired, e.Now()) }) // same-time follow-up
		e.Schedule(12, func() { fired = append(fired, e.Now()) }) // in-window follow-up
		e.Schedule(99, func() { fired = append(fired, e.Now()) }) // out-of-window
	})
	e.DrainThrough(12)
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 10 || fired[2] != 12 {
		t.Fatalf("reentrant drain fired %v, want [10 10 12]", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the out-of-window event", e.Pending())
	}
}

// TestDrainThroughMatchesRun replays the same schedule through one full
// Run and through a sequence of windowed drains and requires identical
// fire orders — the determinism contract fleet barriers rest on.
func TestDrainThroughMatchesRun(t *testing.T) {
	build := func(e *Engine, out *[]Time) {
		for i := 0; i < 50; i++ {
			at := Time((i * 37) % 100)
			e.Schedule(at, func() { *out = append(*out, e.Now()) })
		}
	}
	var serial, windowed []Time
	se := NewEngine()
	build(se, &serial)
	se.Run()
	we := NewEngine()
	build(we, &windowed)
	for limit := Time(0); limit <= 100; limit += 7 {
		we.DrainThrough(limit)
	}
	we.DrainThrough(MaxTime)
	if len(serial) != len(windowed) {
		t.Fatalf("fired %d vs %d events", len(windowed), len(serial))
	}
	for i := range serial {
		if serial[i] != windowed[i] {
			t.Fatalf("fire order diverges at %d: %v vs %v", i, windowed[i], serial[i])
		}
	}
}

// TestDrainThroughNoAlloc pins the zero-allocation contract of the
// windowed hot loop: draining pre-scheduled closure-free events must not
// allocate.
func TestDrainThroughNoAlloc(t *testing.T) {
	e := NewEngine()
	h := countHandler{n: new(int)}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 64; i++ {
			e.ScheduleEvent(e.Now().Add(Duration(i)), h, EventArg{})
		}
		e.DrainThrough(MaxTime)
	})
	if allocs > 0 {
		t.Fatalf("DrainThrough allocated %.1f per run, want 0", allocs)
	}
	if *h.n != 64*11 {
		t.Fatalf("handler ran %d times", *h.n)
	}
}

type countHandler struct{ n *int }

func (c countHandler) OnEvent(*Engine, EventArg) { *c.n++ }
