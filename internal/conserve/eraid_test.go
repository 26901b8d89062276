package conserve

import (
	"math/rand/v2"
	"testing"

	"repro/internal/disksim"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/storage"
)

func TestERAIDValidation(t *testing.T) {
	e := simtime.NewEngine()
	if _, err := NewERAIDArray(e, Spec{Technique: "eraid", ERAIDLowIOPS: 50, ERAIDHighIOPS: 10}); err == nil {
		t.Fatal("inverted thresholds accepted")
	}
}

func TestERAIDSpinsDownMemberWhenIdle(t *testing.T) {
	e := simtime.NewEngine()
	arr, err := NewERAIDArray(e, Spec{Technique: "eraid"})
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(simtime.Time(10 * simtime.Second))
	if arr.Offline() < 0 {
		t.Fatal("no member rested despite zero load")
	}
	if arr.Array().Healthy() {
		t.Fatal("array still healthy with a rested member")
	}
	if arr.Stats().Offlines != 1 {
		t.Fatalf("offlines = %d", arr.Stats().Offlines)
	}
}

func TestERAIDServesReadsWhileMemberRests(t *testing.T) {
	e := simtime.NewEngine()
	arr, err := NewERAIDArray(e, Spec{Technique: "eraid"})
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(simtime.Time(10 * simtime.Second)) // rest one member
	victim := arr.Offline()
	rng := rand.New(rand.NewPCG(6, 6))
	done := 0
	// A light trickle below the wake threshold.
	for i := 0; i < 20; i++ {
		at := e.Now().Add(simtime.Duration(i) * simtime.Duration(200*simtime.Millisecond))
		off := rng.Int64N(arr.Capacity()/4096-1) * 4096
		e.ScheduleEvent(at, handlerFunc(func(*simtime.Engine, simtime.EventArg) {
			arr.Submit(storage.Request{Op: storage.Read, Offset: off, Size: 4096}, func(simtime.Time) { done++ })
		}), simtime.EventArg{})
	}
	e.RunUntil(simtime.Time(20 * simtime.Second))
	if done != 20 {
		t.Fatalf("completed %d of 20 reads in eRAID mode", done)
	}
	// The rested member never served and never woke.
	if arr.hdds[victim].Stats().Served != 0 {
		t.Fatal("rested member served I/O")
	}
	if !arr.hdds[victim].InStandby() {
		t.Fatal("rested member woke under light load")
	}
	if arr.Array().Stats().ReconstructReads == 0 {
		t.Fatal("no reconstruction happened; reads missed the rested member entirely?")
	}
}

func TestERAIDWakesUnderHighLoad(t *testing.T) {
	e := simtime.NewEngine()
	arr, err := NewERAIDArray(e, Spec{Technique: "eraid"})
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(simtime.Time(10 * simtime.Second)) // rest one member
	if arr.Offline() < 0 {
		t.Fatal("precondition: no member rested")
	}
	// Offer well above HighIOPS for several windows.
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 1500; i++ {
		at := e.Now().Add(simtime.Duration(i) * simtime.Duration(5*simtime.Millisecond))
		off := rng.Int64N(arr.Capacity()/4096-1) * 4096
		e.ScheduleEvent(at, handlerFunc(func(*simtime.Engine, simtime.EventArg) {
			arr.Submit(storage.Request{Op: storage.Read, Offset: off, Size: 4096}, func(simtime.Time) {})
		}), simtime.EventArg{})
	}
	// Mid-burst the member must be awake and the array healthy again.
	e.RunUntil(simtime.Time(15 * simtime.Second))
	if arr.Offline() >= 0 {
		t.Fatal("member still resting under heavy load")
	}
	if arr.Stats().Restores == 0 {
		t.Fatal("no restore recorded")
	}
	if !arr.Array().Healthy() {
		t.Fatal("array not restored to healthy")
	}
	// Once the burst drains, the policy rests a member again.
	e.RunUntil(simtime.Time(40 * simtime.Second))
	if arr.Offline() < 0 {
		t.Fatal("policy failed to re-rest after the burst")
	}
}

func TestERAIDSavesIdleEnergy(t *testing.T) {
	// Pure idle comparison: always-on RAID5 vs eRAID resting a member.
	horizon := simtime.Time(2 * simtime.Minute)

	e1 := simtime.NewEngine()
	base, err := raid.NewHDDArray(e1, raid.DefaultParams(), 6, disksim.Seagate7200())
	if err != nil {
		t.Fatal(err)
	}
	e1.RunUntil(horizon)
	baseJ := base.PowerSource().EnergyJ(0, horizon)

	e2 := simtime.NewEngine()
	arr, err := NewERAIDArray(e2, Spec{Technique: "eraid"})
	if err != nil {
		t.Fatal(err)
	}
	e2.RunUntil(horizon)
	eraidJ := arr.PowerSource().EnergyJ(0, horizon)

	if eraidJ >= baseJ {
		t.Fatalf("eRAID idle energy %.0f J should be below always-on %.0f J", eraidJ, baseJ)
	}
	// One of six disks rests: expect roughly an 8th of the disk budget
	// back; with chassis overhead the total saving is smaller but real.
	if eraidJ > baseJ*0.95 {
		t.Fatalf("eRAID saving too small: %.0f vs %.0f J", eraidJ, baseJ)
	}
}
