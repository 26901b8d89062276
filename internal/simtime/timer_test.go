package simtime

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestKeyAndArgLayout pins the heap layout: a 24-byte key with no
// pointer field, so sift moves take no write barrier and the collector
// never scans the heap, and a 16-byte EventArg in a 32-byte payload.
func TestKeyAndArgLayout(t *testing.T) {
	if s := unsafe.Sizeof(key{}); s != 24 {
		t.Errorf("heap key is %d bytes, want 24", s)
	}
	if s := unsafe.Sizeof(EventArg{}); s != 16 {
		t.Errorf("EventArg is %d bytes, want 16", s)
	}
	if s := unsafe.Sizeof(payload{}); s != 32 {
		t.Errorf("payload is %d bytes, want 32", s)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(key{}), reflect.TypeOf(EventArg{})} {
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); f.Type.Kind() {
			case reflect.Int32, reflect.Int64, reflect.Uint32, reflect.Uint64:
			default:
				t.Errorf("%s.%s is a %v: the type must hold no pointer", typ.Name(), f.Name, f.Type.Kind())
			}
		}
	}
}

// A timer whose deadline only moves later holds one heap slot, fires
// once at its last deadline, and costs one pop per superseded slot
// that came due, not one per Reset.
func TestTimerMovingLaterHoldsOneSlot(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	tm := e.NewTimer(r, EventArg{I64: 7})
	for at := Time(10); at <= 1000; at += 10 {
		tm.Reset(at)
		if e.Pending() != 1 {
			t.Fatalf("after Reset(%v): %d pending, want 1", at, e.Pending())
		}
	}
	e.Run()
	if len(r.times) != 1 || r.times[0] != 1000 || r.args[0] != 7 {
		t.Fatalf("timer ran at %v with %v, want once at 1000 with 7", r.times, r.args)
	}
	if e.Fired() != 2 {
		t.Fatalf("fired %d events, want 2 (the first slot, then the live deadline)", e.Fired())
	}
	tm.Reset(e.Now() + 5)
	tm.Stop()
	e.Run()
	if len(r.times) != 1 {
		t.Fatalf("a stopped timer ran: %v", r.times)
	}
}

func TestTimerResetInThePastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleEvent(10, nopHandler{}, EventArg{})
	e.Run()
	tm := e.NewTimer(&recorder{}, EventArg{})
	defer func() {
		if recover() == nil {
			t.Fatal("Reset before now did not panic")
		}
	}()
	tm.Reset(5)
}

// refTimer is the timer a model would build without simtime.Timer: each
// Reset schedules a fresh event, and an event whose generation a later
// Reset or Stop superseded fires as a no-op.
type refTimer struct {
	e     *Engine
	h     Handler
	arg   EventArg
	gen   int64
	armed bool
}

func (r *refTimer) Reset(at Time) {
	r.gen++
	r.armed = true
	r.e.ScheduleEvent(at, r, EventArg{I64: r.gen})
}

func (r *refTimer) Stop() { r.armed = false }

func (r *refTimer) OnEvent(e *Engine, arg EventArg) {
	if !r.armed || arg.I64 != r.gen {
		return
	}
	r.armed = false
	r.h.OnEvent(e, r.arg)
}

// resetStopper is what the fuzzed program drives: a Timer or a refTimer.
type resetStopper interface {
	Reset(at Time)
	Stop()
}

// fuzzTimers is the number of timers a fuzzed program drives.
const fuzzTimers = 3

// timerWorld runs one fuzzed program on one engine and logs every
// handler dispatch.  Plain events and timer handlers may Reset or Stop
// a timer when they run, so timers are driven from inside dispatch too.
type timerWorld struct {
	e        *Engine
	timers   [fuzzTimers]resetStopper
	last     [fuzzTimers]Time // latest deadline each timer was given
	monotone bool             // clamp every deadline to its timer's last
	acts     []timerAct       // what plain event i does when it runs
	rearms   [fuzzTimers]int  // self re-arms each timer has left
	log      []dispatch
	check    func() // run after every dispatch
}

// timerAct is a plain event's action: Reset (delta >= 0) or Stop
// (delta < 0) one timer, or nothing (timer < 0).
type timerAct struct {
	timer int
	delta Duration
}

type dispatch struct {
	at  Time
	who int64 // plain event index, or -1-timer
}

func (w *timerWorld) reset(k int, at Time) {
	if w.monotone {
		at = max(at, w.last[k])
	}
	w.last[k] = at
	w.timers[k].Reset(at)
}

// OnEvent dispatches plain events (Kind 0, I64 the event's index) and
// timer fires (Kind 1, I64 the timer).
func (w *timerWorld) OnEvent(e *Engine, arg EventArg) {
	if arg.Kind == 1 {
		k := int(arg.I64)
		w.log = append(w.log, dispatch{at: e.Now(), who: -1 - int64(k)})
		if w.rearms[k] > 0 {
			w.rearms[k]--
			w.reset(k, e.Now()+Time(10*w.rearms[k]))
		}
	} else {
		w.log = append(w.log, dispatch{at: e.Now(), who: arg.I64})
		switch a := w.acts[arg.I64]; {
		case a.timer < 0:
		case a.delta < 0:
			w.timers[a.timer].Stop()
		default:
			w.reset(a.timer, e.Now().Add(a.delta))
		}
	}
	if w.check != nil {
		w.check()
	}
}

// run decodes data into an interleaving of scheduled events, Resets
// (at now, earlier than queued, later), Stops, self re-arms and clock
// advances, applies it, and drains the engine.  after runs at every
// top-level step.  Decoding reads only data and the clock, so two
// worlds given the same data run the same program as long as their
// dispatches agree.
func (w *timerWorld) run(data []byte, after func()) {
	if len(data) > 0 {
		w.monotone = data[0]&1 == 1
		data = data[1:]
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, p := data[i], data[i+1]
		k := int(op>>4) % fuzzTimers
		d := Duration(p%8) * 10 // small deltas: ties and at-now are common
		switch op % 5 {
		case 0:
			a := timerAct{timer: -1}
			switch (op >> 3) % 3 {
			case 1:
				a = timerAct{timer: k, delta: Duration(p>>3) * 10}
			case 2:
				a = timerAct{timer: k, delta: -1}
			}
			w.acts = append(w.acts, a)
			w.e.ScheduleEvent(w.e.Now().Add(d), w, EventArg{I64: int64(len(w.acts) - 1)})
		case 1:
			w.reset(k, w.e.Now().Add(d*Duration(1+p>>6)))
		case 2:
			w.timers[k].Stop()
		case 3:
			w.e.RunUntil(w.e.Now().Add(Duration(p%32) * 5))
		case 4:
			w.rearms[k] = int(p % 4)
		}
		after()
	}
	w.e.Run()
	after()
}

// timerSlots counts the heap slots each Timer holds.
func timerSlots(e *Engine, timers [fuzzTimers]resetStopper) (n [fuzzTimers]int) {
	for _, k := range e.heap {
		for i, tm := range timers {
			if e.slab[k.slot].h == Handler((*timerSlot)(tm.(*Timer))) {
				n[i]++
			}
		}
	}
	return n
}

// FuzzTimerMatchesRescheduling runs a fuzzed interleaving of
// ScheduleEvent, Reset (at now, earlier than the queued slot, later),
// Stop, same-time ties and clock advances against Timers and against
// reference timers that schedule a fresh event per Reset and drop stale
// ones by generation.  Dispatch times and order must be identical, the
// Timers' engine must never pop more events than the reference's, and
// with monotone deadlines no Timer may hold more than one heap slot.
func FuzzTimerMatchesRescheduling(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 7, 1, 3, 1, 0})                              // later Resets on one slot
	f.Add([]byte{0, 1, 7, 1, 0, 2, 0, 3, 31})                       // at-now Reset, then Stop
	f.Add([]byte{0, 1, 7, 0, 0, 1, 2, 3, 31, 17, 1})                // earlier-than-queued Reset
	f.Add([]byte{1, 4, 3, 1, 1, 0, 8, 8, 9, 3, 31, 3, 31, 3, 31})   // self re-arms, events resetting
	f.Add([]byte{0, 0, 16, 0, 16, 1, 16, 1, 0, 40, 0, 3, 20, 2, 0}) // ties at one instant
	f.Add([]byte{0, 1, 1, 1, 7})                                    // a later Reset supersedes the queued slot
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1})                              // a deadline ties an event scheduled after it
	f.Add([]byte{0, 1, 7, 1, 1, 3, 4, 1, 3, 3, 7, 1, 4})            // an orphan comes due while the timer is armed
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		got := &timerWorld{e: NewEngine()}
		want := &timerWorld{e: NewEngine()}
		for k := range fuzzTimers {
			got.timers[k] = got.e.NewTimer(got, EventArg{Kind: 1, I64: int64(k)})
			want.timers[k] = &refTimer{e: want.e, h: want, arg: EventArg{Kind: 1, I64: int64(k)}}
		}
		bound := func() {
			if !got.monotone {
				return
			}
			for k, n := range timerSlots(got.e, got.timers) {
				if n > 1 {
					t.Fatalf("timer %d holds %d heap slots under monotone deadlines", k, n)
				}
			}
		}
		got.check = bound
		var steps []uint64
		want.run(data, func() { steps = append(steps, want.e.Fired()) })
		step := 0
		got.run(data, func() {
			bound()
			if g, w := got.e.Fired(), steps[step]; g > w {
				t.Fatalf("step %d: popped %d events, reference %d", step, g, w)
			}
			step++
		})
		if len(got.log) != len(want.log) {
			t.Fatalf("%d dispatches, reference %d", len(got.log), len(want.log))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("dispatch %d: %+v, reference %+v", i, got.log[i], want.log[i])
			}
		}
	})
}
