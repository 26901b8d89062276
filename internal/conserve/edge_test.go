// Edge-case tests: degenerate timeouts and empty workloads must behave
// sensibly through every policy — no panics, no NaN, no hung engines.
package conserve_test

import (
	"math"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/conserve"
	"repro/internal/disksim"
	"repro/internal/experiments"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// handlerFunc adapts a closure to simtime.Handler for test scheduling.
type handlerFunc func(*simtime.Engine, simtime.EventArg)

func (f handlerFunc) OnEvent(e *simtime.Engine, arg simtime.EventArg) { f(e, arg) }

// TestTimeoutZeroSpinsDownImmediately: Timeout=0 means "spin down the
// moment the disk goes idle" — the disk must be in standby as soon as
// its last request completes, with the decision recorded.
func TestTimeoutZeroSpinsDownImmediately(t *testing.T) {
	engine := simtime.NewEngine()
	hdd := disksim.NewHDD(engine, disksim.Seagate7200())
	m := conserve.NewManagedDisk(engine, hdd, 0)
	rec := &recorder{}
	m.AttachDecisions(&conserve.Control{Observer: rec}, "tpm", 0)

	var finish simtime.Time
	m.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(tm simtime.Time) { finish = tm })
	engine.Run()

	if finish == 0 {
		t.Fatal("request never completed")
	}
	if !hdd.InStandby() {
		t.Fatal("disk not in standby after idle with zero timeout")
	}
	var downs int
	for _, d := range rec.decisions {
		if d.Kind == conserve.DecisionSpinDown {
			downs++
			if d.IdleNs != 0 {
				t.Fatalf("zero-timeout spin-down records idle %d ns", d.IdleNs)
			}
		}
	}
	if downs == 0 {
		t.Fatal("no spin-down decision recorded")
	}
}

// TestTimeoutNeverFires: a timeout that overflows the integer clock
// must behave as infinity — the timer never fires, the engine still
// drains, the disk never sleeps.
func TestTimeoutNeverFires(t *testing.T) {
	engine := simtime.NewEngine()
	hdd := disksim.NewHDD(engine, disksim.Seagate7200())
	m := conserve.NewManagedDisk(engine, hdd, simtime.Duration(math.MaxInt64))
	rec := &recorder{}
	m.AttachDecisions(&conserve.Control{Observer: rec}, "tpm", 0)

	done := false
	m.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(simtime.Time) { done = true })
	engine.Run() // must terminate: the overflowed deadline is dropped

	if !done {
		t.Fatal("request never completed")
	}
	if hdd.InStandby() {
		t.Fatal("disk slept under an effectively infinite timeout")
	}
	if len(rec.decisions) != 0 {
		t.Fatalf("recorded %d decisions, want none", len(rec.decisions))
	}
}

// TestNegativeTimeoutPanics: a negative timeout is a programming error.
func TestNegativeTimeoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative timeout accepted")
		}
	}()
	engine := simtime.NewEngine()
	conserve.NewManagedDisk(engine, disksim.NewHDD(engine, disksim.Seagate7200()), -1)
}

// TestZeroLengthTraceAllPolicies: replaying an empty trace through
// every technique must complete cleanly with zero throughput and
// finite, non-NaN measurements.
func TestZeroLengthTraceAllPolicies(t *testing.T) {
	empty := &blktrace.Trace{Device: "empty"}
	cfg := experiments.DefaultConfig()
	for _, technique := range experiments.ConserveTechniques {
		t.Run(technique, func(t *testing.T) {
			spec := conserve.Spec{Technique: technique, Control: &conserve.Control{Observer: &recorder{}}}
			sys, err := experiments.Build(cfg, experiments.StackSpec{Conserve: spec})
			if err != nil {
				t.Fatal(err)
			}
			m, err := experiments.Measure(sys, empty, replay.UniformFilter{Proportion: 0.5}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.Result.Completed != 0 || m.Result.Issued != 0 {
				t.Fatalf("empty trace issued/completed %d/%d IOs", m.Result.Issued, m.Result.Completed)
			}
			for name, v := range map[string]float64{
				"IOPS":    m.Result.IOPS,
				"power":   m.Power.Watts,
				"energy":  m.Eff.EnergyJ,
				"iops/W":  m.Eff.IOPSPerWatt,
				"mbps/kW": m.Eff.MBPSPerKW,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s is %v on empty trace", name, v)
				}
			}
			// With no demand there is nothing to wake for.  (Down-shifts
			// and spin-downs are fine — DRPM steps idle disks to low RPM,
			// eRAID's t=0 tick may rest a member — but a spin-up means a
			// policy woke a disk nobody asked for.)
			if spinUps, _ := sys.WearCounts(); spinUps != 0 {
				t.Errorf("empty trace caused %d spin-ups", spinUps)
			}
		})
	}
}

// TestManagedDiskZeroTimeoutUnderBursts: immediate spin-down must not
// deadlock or mis-count under back-to-back bursts — every request still
// completes, and every wake is a recorded forced spin-up.
func TestManagedDiskZeroTimeoutUnderBursts(t *testing.T) {
	engine := simtime.NewEngine()
	hdd := disksim.NewHDD(engine, disksim.Seagate7200())
	m := conserve.NewManagedDisk(engine, hdd, 0)
	rec := &recorder{}
	m.AttachDecisions(&conserve.Control{Observer: rec}, "tpm", 0)

	completed := 0
	var submit func(i int)
	submit = func(i int) {
		if i >= 5 {
			return
		}
		m.Submit(storage.Request{Op: storage.Read, Offset: int64(i) * 1 << 20, Size: 4096}, func(simtime.Time) {
			completed++
			// Leave a gap so the zero timeout trips, then go again.
			engine.AfterEvent(30*simtime.Second, handlerFunc(func(*simtime.Engine, simtime.EventArg) {
				submit(i + 1)
			}), simtime.EventArg{})
		})
	}
	submit(0)
	engine.Run()

	if completed != 5 {
		t.Fatalf("completed %d of 5 requests", completed)
	}
	var downs, ups int
	for _, d := range rec.decisions {
		switch d.Kind {
		case conserve.DecisionSpinDown:
			downs++
		case conserve.DecisionSpinUp:
			ups++
			if !d.Forced {
				t.Fatalf("seq %d: demand wake not forced", d.Seq)
			}
		}
	}
	if downs != 5 {
		t.Fatalf("%d spin-downs, want 5 (one per burst)", downs)
	}
	if ups != 4 {
		t.Fatalf("%d forced spin-ups, want 4 (every burst after the first)", ups)
	}
	if st := hdd.Stats(); st.SpinUps != int64(ups) || st.SpinDowns != int64(downs) {
		t.Fatalf("drive counters %+v disagree with ledger (%d downs, %d ups)", st, downs, ups)
	}
}
