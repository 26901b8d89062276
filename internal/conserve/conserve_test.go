package conserve

import (
	"math/rand/v2"
	"testing"

	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// handlerFunc adapts a closure to simtime.Handler for test scheduling.
type handlerFunc func(*simtime.Engine, simtime.EventArg)

func (f handlerFunc) OnEvent(e *simtime.Engine, arg simtime.EventArg) { f(e, arg) }

func newHDD(e *simtime.Engine) *disksim.HDD {
	return disksim.NewHDD(e, disksim.Seagate7200())
}

func TestHDDStandbyAndWake(t *testing.T) {
	e := simtime.NewEngine()
	p := disksim.Seagate7200()
	d := disksim.NewHDD(e, p)
	if !d.Standby() {
		t.Fatal("idle disk refused standby")
	}
	if !d.InStandby() {
		t.Fatal("not in standby")
	}
	if d.Standby() {
		t.Fatal("double standby accepted")
	}
	// Power must be at standby level.
	e.RunUntil(simtime.Time(2 * simtime.Second))
	if got := d.Timeline().At(e.Now()); got != p.StandbyW {
		t.Fatalf("standby power = %v, want %v", got, p.StandbyW)
	}
	// Submit wakes the disk; completion pays the spin-up.
	var finish simtime.Time
	d.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(ft simtime.Time) { finish = ft })
	e.Run()
	if finish < simtime.Time(2*simtime.Second)+simtime.Time(p.SpinUp) {
		t.Fatalf("completion %v earlier than spin-up allows", finish)
	}
	if d.InStandby() {
		t.Fatal("disk still in standby after request")
	}
	st := d.Stats()
	if st.SpinDowns != 1 || st.SpinUps != 1 {
		t.Fatalf("spin stats = %+v", st)
	}
}

func TestHDDStandbyRefusedWhileBusy(t *testing.T) {
	e := simtime.NewEngine()
	d := newHDD(e)
	d.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 1 << 20}, func(simtime.Time) {})
	if d.Standby() {
		t.Fatal("busy disk accepted standby")
	}
	e.Run()
	if !d.Standby() {
		t.Fatal("idle disk refused standby after completion")
	}
}

func TestHDDQueueDuringSpinUp(t *testing.T) {
	e := simtime.NewEngine()
	d := newHDD(e)
	d.Standby()
	completions := 0
	for i := 0; i < 5; i++ {
		d.Submit(storage.Request{Op: storage.Read, Offset: int64(i) * 4096, Size: 4096}, func(simtime.Time) { completions++ })
	}
	e.Run()
	if completions != 5 {
		t.Fatalf("completed %d of 5", completions)
	}
	if d.Stats().SpinUps != 1 {
		t.Fatalf("spin-ups = %d, want 1 (requests queued during spin-up)", d.Stats().SpinUps)
	}
}

func TestManagedDiskSpinsDownAfterTimeout(t *testing.T) {
	e := simtime.NewEngine()
	d := newHDD(e)
	m := NewManagedDisk(e, d, simtime.Second)
	// One request at t=0, then silence.
	m.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(simtime.Time) {})
	e.RunUntil(simtime.Time(10 * simtime.Second))
	if !d.InStandby() {
		t.Fatal("disk not spun down after idle timeout")
	}
	if d.Stats().SpinDowns != 1 {
		t.Fatalf("spin-downs = %d", d.Stats().SpinDowns)
	}
	// Mean power over the long idle tail must be near standby.
	mean := d.Timeline().MeanWatts(simtime.Time(5*simtime.Second), simtime.Time(10*simtime.Second))
	if mean > 1.0 {
		t.Fatalf("post-spin-down power %v W too high", mean)
	}
}

func TestManagedDiskStaysUpUnderActivity(t *testing.T) {
	e := simtime.NewEngine()
	d := newHDD(e)
	m := NewManagedDisk(e, d, simtime.Second)
	// Requests every 500 ms: never a full idle second.
	for i := 0; i < 20; i++ {
		at := simtime.Time(i) * simtime.Time(500*simtime.Millisecond)
		e.ScheduleEvent(at, handlerFunc(func(*simtime.Engine, simtime.EventArg) {
			m.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(simtime.Time) {})
		}), simtime.EventArg{})
	}
	e.RunUntil(simtime.Time(9*simtime.Second + 900*simtime.Millisecond))
	if d.Stats().SpinDowns != 0 {
		t.Fatalf("disk spun down %d times despite steady activity", d.Stats().SpinDowns)
	}
}

func TestManagedDiskSavesEnergyOnIdleWorkload(t *testing.T) {
	run := func(managed bool) float64 {
		e := simtime.NewEngine()
		d := newHDD(e)
		var dev storage.Device = d
		if managed {
			dev = NewManagedDisk(e, d, simtime.Second)
		}
		// Sparse workload: a request every 30 s.
		for i := 0; i < 4; i++ {
			at := simtime.Time(i) * simtime.Time(30*simtime.Second)
			e.ScheduleEvent(at, handlerFunc(func(*simtime.Engine, simtime.EventArg) {
				dev.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(simtime.Time) {})
			}), simtime.EventArg{})
		}
		e.RunUntil(simtime.Time(2 * simtime.Minute))
		return d.Timeline().EnergyJ(0, e.Now())
	}
	always, tpm := run(false), run(true)
	if tpm >= always*0.5 {
		t.Fatalf("TPM energy %.0f J should be well below always-on %.0f J", tpm, always)
	}
}

func TestManagedDiskResponsePenalty(t *testing.T) {
	e := simtime.NewEngine()
	d := newHDD(e)
	m := NewManagedDisk(e, d, simtime.Second)
	var first, second simtime.Duration
	e.ScheduleEvent(simtime.Time(5*simtime.Second), handlerFunc(func(*simtime.Engine, simtime.EventArg) {
		issue := e.Now()
		m.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(ft simtime.Time) { first = ft.Sub(issue) })
	}), simtime.EventArg{})
	e.ScheduleEvent(simtime.Time(5*simtime.Second)+simtime.Time(7*simtime.Second), handlerFunc(func(*simtime.Engine, simtime.EventArg) {
		issue := e.Now()
		m.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(ft simtime.Time) { second = ft.Sub(issue) })
	}), simtime.EventArg{})
	e.Run()
	// First arrival finds the disk asleep: pays ~6 s spin-up.
	if first < 6*simtime.Second {
		t.Fatalf("first response %v did not pay spin-up", first)
	}
	if second > simtime.Second {
		t.Fatalf("second response %v should be fast (disk awake)", second)
	}
}

// maidSpec is the MAID these tests were written against: data disks
// that spin down after 5 s idle.
var maidSpec = Spec{Technique: "maid", SpinDownTimeout: 5 * simtime.Second}

func TestMAIDReadMissThenHit(t *testing.T) {
	e := simtime.NewEngine()
	m := NewMAID(e, maidSpec)
	req := storage.Request{Op: storage.Read, Offset: 1 << 20, Size: 4096}
	var t1, t2 simtime.Duration
	issue := e.Now()
	m.Submit(req, func(ft simtime.Time) { t1 = ft.Sub(issue) })
	e.Run()
	issue2 := e.Now()
	m.Submit(req, func(ft simtime.Time) { t2 = ft.Sub(issue2) })
	e.Run()
	st := m.Stats()
	if st.ReadMisses != 1 || st.ReadHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if t1 <= 0 || t2 <= 0 {
		t.Fatal("no completions")
	}
}

func TestMAIDWritesNeverWakeDataDisks(t *testing.T) {
	e := simtime.NewEngine()
	m := NewMAID(e, maidSpec)
	// Let the data disks spin down first.
	e.RunUntil(simtime.Time(3 * maidSpec.SpinDownTimeout))
	for _, d := range m.DataDisks() {
		if !d.Disk().InStandby() {
			t.Fatal("data disk not asleep before writes")
		}
	}
	// A burst of writes within cache capacity: absorbed by cache disks.
	rng := rand.New(rand.NewPCG(1, 1))
	done := 0
	for i := 0; i < 100; i++ {
		off := rng.Int64N(maidCacheChunks/2) * chunkBytes
		m.Submit(storage.Request{Op: storage.Write, Offset: off, Size: 4096}, func(simtime.Time) { done++ })
	}
	e.Run()
	if done != 100 {
		t.Fatalf("completed %d of 100 writes", done)
	}
	for i, d := range m.DataDisks() {
		if d.Disk().(*disksim.HDD).Stats().SpinUps != 0 {
			t.Fatalf("data disk %d woke for cached writes", i)
		}
	}
	if m.Stats().Writes != 100 {
		t.Fatalf("write count = %d", m.Stats().Writes)
	}
}

func TestMAIDEvictionDestagesDirtyChunks(t *testing.T) {
	e := simtime.NewEngine()
	m := NewMAID(e, maidSpec)
	// More distinct chunks than the cache directory holds force
	// eviction.
	for i := int64(0); i < maidCacheChunks+32; i++ {
		m.Submit(storage.Request{Op: storage.Write, Offset: i * chunkBytes, Size: 4096}, func(simtime.Time) {})
	}
	e.Run()
	if m.Stats().Destages == 0 {
		t.Fatal("dirty evictions did not destage")
	}
	if len(m.dir) > maidCacheChunks {
		t.Fatalf("directory grew to %d > capacity %d", len(m.dir), maidCacheChunks)
	}
}

func TestMAIDSavesEnergyVersusAlwaysOnJBOD(t *testing.T) {
	// Sparse, cache-friendly read workload over 5 virtual minutes: a
	// tiny hot set that MAID's cache fully absorbs after warm-up.
	workload := func(dev storage.Device, e *simtime.Engine) {
		rng := rand.New(rand.NewPCG(2, 2))
		for i := 0; i < 140; i++ {
			at := simtime.Time(i) * simtime.Time(2*simtime.Second)
			off := rng.Int64N(8) * (64 << 10) // hot 512 KB set
			e.ScheduleEvent(at, handlerFunc(func(*simtime.Engine, simtime.EventArg) {
				dev.Submit(storage.Request{Op: storage.Read, Offset: off, Size: 4096}, func(simtime.Time) {})
			}), simtime.EventArg{})
		}
		e.RunUntil(simtime.Time(5 * simtime.Minute))
	}

	// Always-on JBOD of 6 disks.
	e1 := simtime.NewEngine()
	var jbodSum powersim.Sum
	jbod := make([]*disksim.HDD, 6)
	for i := range jbod {
		prm := disksim.Seagate7200()
		prm.Seed += uint64(i)
		jbod[i] = disksim.NewHDD(e1, prm)
		jbodSum = append(jbodSum, jbod[i].Timeline())
	}
	workload(jbod[0], e1) // all requests hit disk 0; others idle but spinning
	alwaysOn := jbodSum.EnergyJ(0, e1.Now())

	// MAID with 1 cache + 5 data disks.
	e2 := simtime.NewEngine()
	m := NewMAID(e2, maidSpec)
	workload(m, e2)
	maid := m.PowerSource().EnergyJ(0, e2.Now())

	if maid >= alwaysOn*0.6 {
		t.Fatalf("MAID energy %.0f J should be well below always-on %.0f J", maid, alwaysOn)
	}
	if m.Stats().ReadHits == 0 {
		t.Fatal("hot working set never hit the cache")
	}
}

func TestMAIDChunkSpanningRequest(t *testing.T) {
	e := simtime.NewEngine()
	m := NewMAID(e, maidSpec)
	// A read spanning two chunks completes exactly once.
	completions := 0
	m.Submit(storage.Request{Op: storage.Read, Offset: chunkBytes - 2048, Size: 4096}, func(simtime.Time) { completions++ })
	e.Run()
	if completions != 1 {
		t.Fatalf("completions = %d", completions)
	}
	if m.Stats().ReadMisses != 2 {
		t.Fatalf("expected 2 chunk misses, got %d", m.Stats().ReadMisses)
	}
}
