package conserve

import (
	"math/rand/v2"
	"testing"

	"repro/internal/disksim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// pdcSpec is the PDC these tests were written against: popularity
// re-ranked every 10 s, members that spin down after 5 s idle.
var pdcSpec = Spec{Technique: "pdc", PDCReorgInterval: 10 * simtime.Second, SpinDownTimeout: 5 * simtime.Second}

func TestPDCServesRequests(t *testing.T) {
	e := simtime.NewEngine()
	d := NewPDC(e, pdcSpec)
	rng := rand.New(rand.NewPCG(3, 3))
	done := 0
	for i := 0; i < 200; i++ {
		off := rng.Int64N(d.Capacity()/4096-64) * 4096
		op := storage.Read
		if rng.IntN(3) == 0 {
			op = storage.Write
		}
		d.Submit(storage.Request{Op: op, Offset: off, Size: 4096 * (1 + rng.Int64N(8))}, func(simtime.Time) { done++ })
	}
	e.Run()
	if done != 200 {
		t.Fatalf("completed %d of 200", done)
	}
}

func TestPDCConcentratesHotChunksOnFirstDisk(t *testing.T) {
	e := simtime.NewEngine()
	p := pdcSpec
	p.PDCReorgInterval = simtime.Second
	d := NewPDC(e, p)
	// A hot set whose home placement spreads across all six members.
	hot := make([]int64, 12)
	for i := range hot {
		hot[i] = int64(i) // chunks 0..11: home disks 0..5, twice
	}
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 600; i++ {
		at := simtime.Time(i) * simtime.Time(20*simtime.Millisecond)
		chunk := hot[rng.IntN(len(hot))]
		e.ScheduleEvent(at, handlerFunc(func(*simtime.Engine, simtime.EventArg) {
			d.Submit(storage.Request{Op: storage.Read, Offset: chunk * chunkBytes, Size: 4096}, func(simtime.Time) {})
		}), simtime.EventArg{})
	}
	e.RunUntil(simtime.Time(30 * simtime.Second))
	if d.Stats().Reorgs == 0 || d.Stats().Migrations == 0 {
		t.Fatalf("no reorganisation happened: %+v", d.Stats())
	}
	// After concentration every hot chunk must resolve to disk 0 (12
	// chunks fit easily within one member's slots).
	for _, c := range hot {
		if got := d.diskOf(c); got != 0 {
			t.Fatalf("hot chunk %d on disk %d, want 0", c, got)
		}
	}
}

func TestPDCColdDisksSpinDown(t *testing.T) {
	e := simtime.NewEngine()
	p := pdcSpec
	p.PDCReorgInterval = simtime.Second
	p.SpinDownTimeout = 2 * simtime.Second
	d := NewPDC(e, p)
	// Hot traffic confined to chunks homed on disks 0..5 initially but
	// migrated to disk 0; afterwards the tail disks idle and sleep.
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 2000; i++ {
		at := simtime.Time(i) * simtime.Time(30*simtime.Millisecond)
		chunk := int64(rng.IntN(12))
		e.ScheduleEvent(at, handlerFunc(func(*simtime.Engine, simtime.EventArg) {
			d.Submit(storage.Request{Op: storage.Read, Offset: chunk * chunkBytes, Size: 4096}, func(simtime.Time) {})
		}), simtime.EventArg{})
	}
	// Check mid-workload (requests continue to 60 s): the cold members
	// must be asleep while the hot one is still serving.
	e.RunUntil(simtime.Time(55 * simtime.Second))
	asleep := 0
	for _, m := range d.Disks()[1:] {
		if m.Disk().InStandby() {
			asleep++
		}
	}
	if asleep < 4 {
		t.Fatalf("only %d of 5 cold members asleep under concentrated load", asleep)
	}
	if d.Disks()[0].Disk().InStandby() {
		t.Fatal("the hot member slept while serving the working set")
	}
}

func TestPDCEnergyBeatsPlainTPM(t *testing.T) {
	// Under a skewed workload whose hot set spans all members' home
	// positions, plain TPM cannot rest anyone; PDC concentrates the
	// heat and rests the rest.
	runWorkload := func(dev storage.Device, e *simtime.Engine) {
		rng := rand.New(rand.NewPCG(6, 6))
		for i := 0; i < 1200; i++ {
			at := simtime.Time(i) * simtime.Time(100*simtime.Millisecond)
			chunk := int64(rng.IntN(24))
			e.ScheduleEvent(at, handlerFunc(func(*simtime.Engine, simtime.EventArg) {
				dev.Submit(storage.Request{Op: storage.Read, Offset: chunk * (64 << 10), Size: 4096}, func(simtime.Time) {})
			}), simtime.EventArg{})
		}
		e.RunUntil(simtime.Time(3 * simtime.Minute))
	}

	// Plain TPM JBOD.
	e1 := simtime.NewEngine()
	members := make([]Member, 6)
	for i := range members {
		prm := disksim.Seagate7200()
		prm.Seed += uint64(i)
		members[i] = NewManagedDisk(e1, disksim.NewHDD(e1, prm), 5*simtime.Second)
	}
	jbod, err := NewJBOD(members)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(jbod, e1)
	tpmJ := jbod.PowerSource().EnergyJ(0, e1.Now())

	// PDC.
	e2 := simtime.NewEngine()
	p := pdcSpec
	p.PDCReorgInterval = 2 * simtime.Second
	pdc := NewPDC(e2, p)
	runWorkload(pdc, e2)
	pdcJ := pdc.PowerSource().EnergyJ(0, e2.Now())

	if pdcJ >= tpmJ*0.85 {
		t.Fatalf("PDC energy %.0f J should be well below plain TPM %.0f J", pdcJ, tpmJ)
	}
}
