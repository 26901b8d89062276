package conserve

import (
	"testing"

	"repro/internal/disksim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

func TestSetRPMFractionPhysics(t *testing.T) {
	e := simtime.NewEngine()
	p := disksim.Seagate7200()
	d := disksim.NewHDD(e, p)
	if d.RPMFraction() != 1 {
		t.Fatalf("initial fraction = %v", d.RPMFraction())
	}
	if !d.SetRPMFraction(0.5) {
		t.Fatal("idle disk refused RPM shift")
	}
	e.Run() // complete the shift
	if d.RPMFraction() != 0.5 {
		t.Fatalf("fraction = %v", d.RPMFraction())
	}
	// Idle power at half speed is far below full speed but above the
	// electronics floor.
	low := d.Timeline().At(e.Now())
	if low >= p.IdleW*0.6 || low <= p.IdleW*0.2 {
		t.Fatalf("half-speed idle power %v vs nominal %v", low, p.IdleW)
	}
	// Clamping.
	if !d.SetRPMFraction(0.01) {
		t.Fatal("clamped shift refused")
	}
	e.Run()
	if d.RPMFraction() != p.MinRPMFraction {
		t.Fatalf("fraction %v not clamped to %v", d.RPMFraction(), p.MinRPMFraction)
	}
	if !d.SetRPMFraction(2.0) {
		t.Fatal("upshift refused")
	}
	e.Run()
	if d.RPMFraction() != 1 {
		t.Fatalf("fraction %v not clamped to 1", d.RPMFraction())
	}
	// Two real shifts: 1 -> 0.5 and 0.5 -> 1.  The clamped 0.01 request
	// was a no-op (already at the floor).
	if d.Stats().RPMShifts != 2 {
		t.Fatalf("shifts = %d, want 2", d.Stats().RPMShifts)
	}
}

func TestRPMShiftRefusedWhileBusy(t *testing.T) {
	e := simtime.NewEngine()
	d := disksim.NewHDD(e, disksim.Seagate7200())
	d.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 1 << 20}, func(simtime.Time) {})
	if d.SetRPMFraction(0.5) {
		t.Fatal("busy disk accepted RPM shift")
	}
	e.Run()
}

func TestLowRPMSlowsService(t *testing.T) {
	serviceTime := func(frac float64) simtime.Duration {
		e := simtime.NewEngine()
		d := disksim.NewHDD(e, disksim.Seagate7200())
		if frac < 1 {
			d.SetRPMFraction(frac)
			e.Run()
		}
		issue := e.Now()
		var resp simtime.Duration
		d.Submit(storage.Request{Op: storage.Read, Offset: 1 << 30, Size: 1 << 20}, func(ft simtime.Time) {
			resp = ft.Sub(issue)
		})
		e.Run()
		return resp
	}
	full, half := serviceTime(1), serviceTime(0.5)
	if half <= full {
		t.Fatalf("half-speed service (%v) should be slower than full (%v)", half, full)
	}
}

func TestDRPMStepsDownWhenIdle(t *testing.T) {
	e := simtime.NewEngine()
	hdd := disksim.NewHDD(e, disksim.Seagate7200())
	d := NewDRPMDisk(e, hdd, DefaultDRPMLevels(), simtime.Second)
	e.RunUntil(simtime.Time(20 * simtime.Second))
	if d.Level() != len(DefaultDRPMLevels())-1 {
		t.Fatalf("level = %d after long idle, want bottom", d.Level())
	}
	if hdd.RPMFraction() != 0.5 {
		t.Fatalf("fraction = %v", hdd.RPMFraction())
	}
}

func TestDRPMRestoresSpeedUnderLoad(t *testing.T) {
	e := simtime.NewEngine()
	hdd := disksim.NewHDD(e, disksim.Seagate7200())
	d := NewDRPMDisk(e, hdd, DefaultDRPMLevels(), simtime.Second)
	e.RunUntil(simtime.Time(10 * simtime.Second)) // idle to the floor
	completed := false
	e.ScheduleEvent(e.Now(), handlerFunc(func(*simtime.Engine, simtime.EventArg) {
		d.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(simtime.Time) { completed = true })
	}), simtime.EventArg{})
	// Check right after the restoring shift completes (completion at
	// ~10.02s, shift 0.6s) but before the next idle step-down fires at
	// lastActivity+1s.
	e.RunUntil(simtime.Time(10*simtime.Second + 900*simtime.Millisecond))
	if !completed {
		t.Fatal("request at low speed never completed")
	}
	if d.Level() != 0 || hdd.RPMFraction() != 1 {
		t.Fatalf("speed not restored: level=%d frac=%v", d.Level(), hdd.RPMFraction())
	}
	// Left idle again, the policy steps back down — that is by design.
	e.RunUntil(simtime.Time(30 * simtime.Second))
	if d.Level() == 0 {
		t.Fatal("policy failed to re-enter low-power levels after load ceased")
	}
}

func TestDRPMNeverPaysSpinUpPenalty(t *testing.T) {
	// Unlike TPM, a DRPM disk serves immediately at reduced speed: the
	// response penalty is milliseconds, not seconds.
	e := simtime.NewEngine()
	hdd := disksim.NewHDD(e, disksim.Seagate7200())
	d := NewDRPMDisk(e, hdd, DefaultDRPMLevels(), simtime.Second)
	e.RunUntil(simtime.Time(10 * simtime.Second))
	var resp simtime.Duration
	e.ScheduleEvent(e.Now(), handlerFunc(func(*simtime.Engine, simtime.EventArg) {
		issue := e.Now()
		d.Submit(storage.Request{Op: storage.Read, Offset: 1 << 30, Size: 4096}, func(ft simtime.Time) {
			resp = ft.Sub(issue)
		})
	}), simtime.EventArg{})
	e.Run()
	if resp <= 0 || resp > simtime.Second {
		t.Fatalf("low-speed response %v; DRPM must avoid spin-up-scale penalties", resp)
	}
}

func TestDRPMSavesEnergyOnSparseWorkload(t *testing.T) {
	run := func(managed bool) float64 {
		e := simtime.NewEngine()
		hdd := disksim.NewHDD(e, disksim.Seagate7200())
		var dev storage.Device = hdd
		if managed {
			dev = NewDRPMDisk(e, hdd, DefaultDRPMLevels(), simtime.Second)
		}
		for i := 0; i < 8; i++ {
			at := simtime.Time(i) * simtime.Time(15*simtime.Second)
			e.ScheduleEvent(at, handlerFunc(func(*simtime.Engine, simtime.EventArg) {
				dev.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(simtime.Time) {})
			}), simtime.EventArg{})
		}
		e.RunUntil(simtime.Time(2 * simtime.Minute))
		return hdd.Timeline().EnergyJ(0, e.Now())
	}
	always, drpm := run(false), run(true)
	if drpm >= always*0.75 {
		t.Fatalf("DRPM energy %.0f J should be well below always-full-speed %.0f J", drpm, always)
	}
}
