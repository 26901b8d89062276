package simtime

import "testing"

// TestDrainThrough checks the window-drain semantics: events at or
// before the limit fire in order, the clock stays at the last fired
// event, and scheduling at the window boundary afterwards is legal.
func TestDrainThrough(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	for _, at := range []Time{5, 15, 25, 35} {
		e.ScheduleEvent(at, r, EventArg{})
	}
	e.DrainThrough(20)
	if fired := r.times; len(fired) != 2 || fired[0] != 5 || fired[1] != 15 {
		t.Fatalf("DrainThrough(20) fired %v, want [5 15]", fired)
	}
	if e.Now() != 15 {
		t.Fatalf("clock = %v after drain, want 15 (last fired, not pinned)", e.Now())
	}
	// Scheduling exactly at the boundary must not panic even though the
	// boundary exceeds the clock.
	e.ScheduleEvent(20, r, EventArg{})
	e.DrainThrough(20)
	if fired := r.times; len(fired) != 3 || fired[2] != 20 {
		t.Fatalf("boundary event did not fire: %v", fired)
	}
	e.DrainThrough(MaxTime)
	if fired := r.times; len(fired) != 5 || fired[4] != 35 {
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
	r := &recorder{}
	e.ScheduleEvent(10, handlerFunc(func(e *Engine, arg EventArg) {
		r.OnEvent(e, arg)
		e.ScheduleEvent(10, r, EventArg{}) // same-time follow-up
		e.ScheduleEvent(12, r, EventArg{}) // in-window follow-up
		e.ScheduleEvent(99, r, EventArg{}) // out-of-window
	}), EventArg{})
	e.DrainThrough(12)
	if fired := r.times; len(fired) != 3 || fired[0] != 10 || fired[1] != 10 || fired[2] != 12 {
		t.Fatalf("reentrant drain fired %v, want [10 10 12]", r.times)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the out-of-window event", e.Pending())
	}
}

// TestDrainThroughMatchesRun replays the same schedule through one full
// Run and through a sequence of windowed drains and requires identical
// fire orders — the determinism contract fleet barriers rest on.
func TestDrainThroughMatchesRun(t *testing.T) {
	build := func(e *Engine, r *recorder) {
		for i := 0; i < 50; i++ {
			e.ScheduleEvent(Time((i*37)%100), r, EventArg{I64: int64(i)})
		}
	}
	serial, windowed := &recorder{}, &recorder{}
	se := NewEngine()
	build(se, serial)
	se.Run()
	we := NewEngine()
	build(we, windowed)
	for limit := Time(0); limit <= 100; limit += 7 {
		we.DrainThrough(limit)
	}
	we.DrainThrough(MaxTime)
	if len(serial.args) != len(windowed.args) {
		t.Fatalf("fired %d vs %d events", len(windowed.args), len(serial.args))
	}
	for i := range serial.args {
		if serial.args[i] != windowed.args[i] || serial.times[i] != windowed.times[i] {
			t.Fatalf("fire order diverges at %d: event %d at %v vs %d at %v",
				i, windowed.args[i], windowed.times[i], serial.args[i], serial.times[i])
		}
	}
}

// TestDrainThroughNoAlloc pins the zero-allocation contract of the
// windowed hot loop: draining pre-scheduled events must not allocate.
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
