package conserve

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// refManagedDisk is TPM with idle checks that re-arm themselves: a
// check that finds the disk idle for less than the timeout schedules
// another at lastActivity+timeout, a time the draining completion has
// already armed, and every request completes through a fresh closure.
// The differential test holds ManagedDisk to its decisions.
type refManagedDisk struct {
	engine       *simtime.Engine
	disk         SpinDowner
	timeout      simtime.Duration
	lastActivity simtime.Time
	outstanding  int
	ctl          *Control
	index        int
}

func newRefManagedDisk(engine *simtime.Engine, disk SpinDowner, timeout simtime.Duration) *refManagedDisk {
	m := &refManagedDisk{engine: engine, disk: disk, timeout: timeout}
	scheduleClamped(engine, engine.Now().Add(timeout), m)
	return m
}

func (m *refManagedDisk) OnEvent(e *simtime.Engine, _ simtime.EventArg) { m.check(e.Now()) }

func (m *refManagedDisk) check(deadline simtime.Time) {
	if m.outstanding > 0 || m.disk.InStandby() {
		return
	}
	if idle := deadline.Sub(m.lastActivity); idle >= m.timeout {
		if !m.ctl.propose(Decision{
			At:          int64(deadline),
			Kind:        DecisionSpinDown,
			Policy:      "tpm",
			Disk:        m.index,
			IdleNs:      int64(idle),
			QueueDepth:  queueDepthOf(m.disk),
			Outstanding: m.outstanding,
		}) {
			return
		}
		m.disk.Standby()
		return
	}
	scheduleClamped(m.engine, m.lastActivity.Add(m.timeout), m)
}

func (m *refManagedDisk) Submit(req storage.Request, done func(simtime.Time)) {
	if m.ctl != nil && m.disk.InStandby() {
		m.ctl.propose(Decision{
			At:          int64(m.engine.Now()),
			Kind:        DecisionSpinUp,
			Policy:      "tpm",
			Disk:        m.index,
			IdleNs:      int64(m.engine.Now().Sub(m.lastActivity)),
			QueueDepth:  queueDepthOf(m.disk),
			Outstanding: m.outstanding,
			Forced:      true,
		})
	}
	m.lastActivity = m.engine.Now()
	m.outstanding++
	m.disk.Submit(req, func(finish simtime.Time) {
		m.outstanding--
		m.lastActivity = finish
		if m.outstanding == 0 {
			scheduleClamped(m.engine, finish.Add(m.timeout), m)
		}
		done(finish)
	})
}

func (m *refManagedDisk) Capacity() int64              { return m.disk.Capacity() }
func (m *refManagedDisk) Timeline() *powersim.Timeline { return m.disk.Timeline() }

// refDRPMDisk is DRPM with step-down checks that re-arm themselves, the
// same way refManagedDisk's do.
type refDRPMDisk struct {
	engine       *simtime.Engine
	disk         *disksim.HDD
	levels       []float64
	stepDown     simtime.Duration
	level        int
	lastActivity simtime.Time
	outstanding  int
	ctl          *Control
	index        int
}

func newRefDRPMDisk(engine *simtime.Engine, disk *disksim.HDD, levels []float64, stepDown simtime.Duration) *refDRPMDisk {
	d := &refDRPMDisk{engine: engine, disk: disk, levels: levels, stepDown: stepDown}
	d.armTimer()
	return d
}

func (d *refDRPMDisk) armTimer() {
	scheduleClamped(d.engine, d.engine.Now().Add(d.stepDown), d)
}

func (d *refDRPMDisk) OnEvent(e *simtime.Engine, _ simtime.EventArg) { d.check(e.Now()) }

func (d *refDRPMDisk) check(deadline simtime.Time) {
	if d.outstanding > 0 {
		return
	}
	if idle := deadline.Sub(d.lastActivity); idle >= d.stepDown {
		if d.level+1 < len(d.levels) && d.disk.CanSetRPM() {
			if !d.ctl.propose(Decision{
				At:          int64(deadline),
				Kind:        DecisionRPMShift,
				Policy:      "drpm",
				Disk:        d.index,
				FromLevel:   d.level,
				Level:       d.level + 1,
				IdleNs:      int64(idle),
				QueueDepth:  d.disk.QueueDepth(),
				Outstanding: d.outstanding,
			}) {
				return
			}
			if d.disk.SetRPMFraction(d.levels[d.level+1]) {
				d.level++
			}
		}
		if d.level+1 < len(d.levels) {
			d.armTimer()
		}
		return
	}
	scheduleClamped(d.engine, d.lastActivity.Add(d.stepDown), d)
}

func (d *refDRPMDisk) Submit(req storage.Request, done func(simtime.Time)) {
	d.lastActivity = d.engine.Now()
	d.outstanding++
	d.disk.Submit(req, func(finish simtime.Time) {
		d.outstanding--
		d.lastActivity = finish
		if d.outstanding == 0 {
			if d.level != 0 && d.disk.CanSetRPM() && d.ctl.propose(Decision{
				At:          int64(finish),
				Kind:        DecisionRPMShift,
				Policy:      "drpm",
				Disk:        d.index,
				FromLevel:   d.level,
				Level:       0,
				QueueDepth:  d.disk.QueueDepth(),
				Outstanding: d.outstanding,
			}) && d.disk.SetRPMFraction(d.levels[0]) {
				d.level = 0
			}
			scheduleClamped(d.engine, finish.Add(d.stepDown), d)
		}
		done(finish)
	})
}

func (d *refDRPMDisk) Capacity() int64              { return d.disk.Capacity() }
func (d *refDRPMDisk) Timeline() *powersim.Timeline { return d.disk.Timeline() }

// refJBOD is JBOD splitting each request into a fragment slice first
// and completing it through one closure per fragment, with the count
// and latest finish captured.
type refJBOD struct {
	disks      []Member
	chunkBytes int64
	capacity   int64
}

func (j *refJBOD) Submit(req storage.Request, done func(simtime.Time)) {
	off, remaining := req.Offset%j.capacity, req.Size
	type frag struct {
		disk         int
		offset, size int64
	}
	var frags []frag
	for remaining > 0 {
		chunk := off / j.chunkBytes
		within := off % j.chunkBytes
		take := min(j.chunkBytes-within, remaining)
		n := int64(len(j.disks))
		frags = append(frags, frag{disk: int(chunk % n), offset: (chunk/n)*j.chunkBytes + within, size: take})
		off += take
		remaining -= take
	}
	outstanding := len(frags)
	var latest simtime.Time
	for _, f := range frags {
		j.disks[f.disk].Submit(storage.Request{Op: req.Op, Offset: f.offset, Size: f.size}, func(t simtime.Time) {
			latest = max(latest, t)
			if outstanding--; outstanding == 0 {
				done(latest)
			}
		})
	}
}

func (j *refJBOD) Capacity() int64 { return j.capacity }

// timedReq is one request of a test stream and its arrival time.
type timedReq struct {
	at  simtime.Time
	req storage.Request
}

// burstyStream draws n requests in bursts of one to eight, spaced up to
// 50 ms apart, separated by idle gaps from a fifth of the timeout to
// three times it (up to 3 s for a zero timeout), so checks fire on both
// sides of the timeout.  Sizes run from 4 KiB to 256 KiB, so requests
// cross chunk boundaries.
func burstyStream(seed uint64, n int, capacity int64, timeout simtime.Duration) []timedReq {
	rng := rand.New(rand.NewPCG(seed, 0x1d1e))
	gapSpan := 3 * timeout
	if gapSpan == 0 {
		gapSpan = 3 * simtime.Second
	}
	var out []timedReq
	var at simtime.Time
	for len(out) < n {
		at = at.Add(timeout/5 + simtime.Duration(rng.Int64N(int64(gapSpan-timeout/5))))
		for burst := 1 + rng.IntN(8); burst > 0 && len(out) < n; burst-- {
			at = at.Add(simtime.Duration(rng.Int64N(int64(50 * simtime.Millisecond))))
			size := int64(1+rng.IntN(64)) * 4096
			op := storage.Read
			if rng.IntN(3) == 0 {
				op = storage.Write
			}
			out = append(out, timedReq{at: at, req: storage.Request{Op: op, Offset: rng.Int64N(capacity - size), Size: size}})
		}
	}
	return out
}

// streamRun submits a request stream to a device at its arrival times
// and records each request's completion time.
type streamRun struct {
	dev    storage.Device
	reqs   []timedReq
	finish []simtime.Time
}

func (s *streamRun) OnEvent(_ *simtime.Engine, arg simtime.EventArg) {
	i := arg.I64
	s.dev.Submit(s.reqs[i].req, func(t simtime.Time) { s.finish[i] = t })
}

// schedule queues the stream on e as one series.
func (s *streamRun) schedule(e *simtime.Engine) {
	s.finish = make([]simtime.Time, len(s.reqs))
	e.ScheduleSeries(len(s.reqs), func(i int) simtime.Time { return s.reqs[i].at }, s)
}

// idleCheckRun is one engine driving a 4-disk JBOD of policy disks.
type idleCheckRun struct {
	engine *simtime.Engine
	hdds   []*disksim.HDD
	rec    decisionLog
	stream streamRun
}

type decisionLog []Decision

func (l *decisionLog) ObserveDecision(d Decision) { *l = append(*l, d) }

// runIdleChecks builds four drives, wraps each with wrap, feeds a JBOD
// of them (refJBOD when ref is set) the stream and drains the engine.
func runIdleChecks(t *testing.T, reqs []timedReq, wrap func(*simtime.Engine, *disksim.HDD, *Control, int) Member, ref bool) *idleCheckRun {
	t.Helper()
	r := &idleCheckRun{engine: simtime.NewEngine()}
	ctl := &Control{Observer: &r.rec}
	members := make([]Member, 4)
	for i := range members {
		p := disksim.Seagate7200()
		p.Seed += uint64(i) * 104729
		hdd := disksim.NewHDD(r.engine, p)
		r.hdds = append(r.hdds, hdd)
		members[i] = wrap(r.engine, hdd, ctl, i)
	}
	jbod, err := NewJBOD(members)
	if err != nil {
		t.Fatal(err)
	}
	var dev storage.Device = jbod
	if ref {
		dev = &refJBOD{disks: members, chunkBytes: 64 << 10, capacity: jbod.Capacity()}
	}
	r.stream = streamRun{dev: dev, reqs: reqs}
	r.stream.schedule(r.engine)
	r.engine.Run()
	return r
}

// TestIdleChecksMatchReArmingReference drives JBODs of ManagedDisks and
// DRPMDisks beside copies whose stale checks re-arm themselves and
// whose requests complete through closures, on twin engines fed the
// same bursty streams.  Deleting the re-arm may only remove duplicate
// events queued behind the live check: every decision, drive counter,
// power step, joule and completion must match, and the package disks
// must never fire more events.
func TestIdleChecksMatchReArmingReference(t *testing.T) {
	type policyCase struct {
		name    string
		timeout simtime.Duration
		pkg     func(*simtime.Engine, *disksim.HDD, *Control, int) Member
		ref     func(*simtime.Engine, *disksim.HDD, *Control, int) Member
	}
	var cases []policyCase
	for _, timeout := range []simtime.Duration{0, 2 * simtime.Second, 10 * simtime.Second} {
		cases = append(cases, policyCase{
			name:    fmt.Sprintf("tpm/timeout=%v", timeout),
			timeout: timeout,
			pkg: func(e *simtime.Engine, hdd *disksim.HDD, ctl *Control, i int) Member {
				m := NewManagedDisk(e, hdd, timeout)
				m.AttachDecisions(ctl, "tpm", i)
				return m
			},
			ref: func(e *simtime.Engine, hdd *disksim.HDD, ctl *Control, i int) Member {
				m := newRefManagedDisk(e, hdd, timeout)
				m.ctl, m.index = ctl, i
				return m
			},
		})
	}
	for _, step := range []simtime.Duration{2 * simtime.Second, 10 * simtime.Second} {
		for levels := 2; levels <= 4; levels++ {
			table := DefaultDRPMLevels()[:levels]
			cases = append(cases, policyCase{
				name:    fmt.Sprintf("drpm/step=%v/levels=%d", step, levels),
				timeout: step,
				pkg: func(e *simtime.Engine, hdd *disksim.HDD, ctl *Control, i int) Member {
					d := NewDRPMDisk(e, hdd, table, step)
					d.AttachDecisions(ctl, i)
					return d
				},
				ref: func(e *simtime.Engine, hdd *disksim.HDD, ctl *Control, i int) Member {
					d := newRefDRPMDisk(e, hdd, table, step)
					d.ctl, d.index = ctl, i
					return d
				},
			})
		}
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			capacity := 4 * disksim.Seagate7200().CapacityBytes
			reqs := burstyStream(uint64(ci+1), 600, capacity, c.timeout)
			got := runIdleChecks(t, reqs, c.pkg, false)
			want := runIdleChecks(t, reqs, c.ref, true)

			if len(got.rec) == 0 {
				t.Fatal("no decisions: the stream never let a policy act")
			}
			if !slices.Equal(got.rec, want.rec) {
				for i := range min(len(got.rec), len(want.rec)) {
					if got.rec[i] != want.rec[i] {
						t.Fatalf("decision %d: got %+v, reference %+v", i, got.rec[i], want.rec[i])
					}
				}
				t.Fatalf("%d decisions, reference %d", len(got.rec), len(want.rec))
			}
			if !slices.Equal(got.stream.finish, want.stream.finish) {
				t.Fatal("completion times differ from the reference's")
			}
			end := max(got.engine.Now(), want.engine.Now())
			for i := range got.hdds {
				if g, w := got.hdds[i].Stats(), want.hdds[i].Stats(); g != w {
					t.Fatalf("disk %d stats %+v, reference %+v", i, g, w)
				}
				gt, wt := got.hdds[i].Timeline(), want.hdds[i].Timeline()
				if gt.Steps() != wt.Steps() || !slices.Equal(gt.Segments(0, end), wt.Segments(0, end)) {
					t.Fatalf("disk %d power timeline differs from the reference's (%d steps vs %d)", i, gt.Steps(), wt.Steps())
				}
				if g, w := gt.EnergyJ(0, end), wt.EnergyJ(0, end); g != w {
					t.Fatalf("disk %d energy %v J, reference %v J", i, g, w)
				}
			}
			t.Logf("%d decisions; fired %d events, reference %d", len(got.rec), got.engine.Fired(), want.engine.Fired())
			if g, w := got.engine.Fired(), want.engine.Fired(); g > w {
				t.Fatalf("fired %d events, more than the reference's %d", g, w)
			} else if c.timeout > 0 && g == w {
				t.Fatalf("fired as many events as the reference (%d): the stream never left a stale check", g)
			}
		})
	}
}

// gappedReads queues n 4 KiB reads on dev, at seeded gaps uniform in
// 0.2–3 s: a disk busier than its timeout, where every completion
// drains it.
func gappedReads(e *simtime.Engine, dev storage.Device, n int) *streamRun {
	rng := rand.New(rand.NewPCG(11, 0x9a9))
	s := &streamRun{dev: dev, reqs: make([]timedReq, n)}
	var at simtime.Time
	for i := range s.reqs {
		at = at.Add(200*simtime.Millisecond + simtime.Duration(rng.Int64N(int64(2800*simtime.Millisecond))))
		s.reqs[i] = timedReq{at: at, req: storage.Request{Op: storage.Read, Offset: rng.Int64N(dev.Capacity()-4096) &^ 4095, Size: 4096}}
	}
	s.schedule(e)
	return s
}

// TestIdleChecksStayBoundedUnderSteadyLoad feeds one policy disk a read
// every 0.2–3 s against a longer timeout.  Each request costs its
// arrival and its service completion; the idle timer's one heap slot
// comes due once per timeout at most and moves to the live deadline.
// A check per draining completion would cost a third event per request
// and keep one pending per request still inside the timeout; checks
// that re-armed themselves would fire again at every later arrival.
func TestIdleChecksStayBoundedUnderSteadyLoad(t *testing.T) {
	const n = 2000
	for _, c := range []struct {
		name string
		wrap func(*simtime.Engine, *disksim.HDD) storage.Device
	}{
		{"tpm/timeout=10s", func(e *simtime.Engine, hdd *disksim.HDD) storage.Device {
			return NewManagedDisk(e, hdd, 10*simtime.Second)
		}},
		{"drpm/step=5s", func(e *simtime.Engine, hdd *disksim.HDD) storage.Device {
			return NewDRPMDisk(e, hdd, DefaultDRPMLevels(), 5*simtime.Second)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := simtime.NewEngine()
			s := gappedReads(e, c.wrap(e, newHDD(e)), n)
			e.Run()
			for i, f := range s.finish {
				if f == 0 {
					t.Fatalf("request %d never completed", i)
				}
			}
			t.Logf("fired %d events, heap depth %d", e.Fired(), e.MaxHeapDepth())
			if perReq := float64(e.Fired()) / n; perReq >= 3 {
				t.Errorf("fired %d events for %d requests (%.2f per request), want fewer than 3 per request", e.Fired(), n, perReq)
			}
			if d := e.MaxHeapDepth(); d >= 8 {
				t.Errorf("event heap reached %d pending events, want fewer than 8", d)
			}
		})
	}
}

// TestJBODRequestPathAllocatesNothing: once warm, a JBOD of policy
// disks serves a request and its idle checks without allocating: the
// JBOD's join and each disk's in-flight records come off free lists.
// Power-timeline growth is amortised, not per request.
func TestJBODRequestPathAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		wrap func(*simtime.Engine, *disksim.HDD) Member
	}{
		{"tpm", func(e *simtime.Engine, hdd *disksim.HDD) Member { return NewManagedDisk(e, hdd, 10*simtime.Second) }},
		{"drpm", func(e *simtime.Engine, hdd *disksim.HDD) Member {
			return NewDRPMDisk(e, hdd, DefaultDRPMLevels(), 5*simtime.Second)
		}},
	} {
		e := simtime.NewEngine()
		members := make([]Member, 4)
		for i := range members {
			members[i] = c.wrap(e, newHDD(e))
		}
		jbod, err := NewJBOD(members)
		if err != nil {
			t.Fatal(err)
		}
		small := storage.Request{Op: storage.Read, Offset: 3 << 20, Size: 4096}
		// 256 KiB from 32 KiB into a chunk spans five 64 KiB chunks, so
		// one member serves two fragments.
		large := storage.Request{Op: storage.Read, Offset: 7<<20 + 32<<10, Size: 256 << 10}
		done := func(simtime.Time) {}
		for i := 0; i < 100; i++ {
			jbod.Submit(small, done)
			jbod.Submit(large, done)
		}
		e.Run()
		for _, req := range []storage.Request{small, large} {
			allocs := testing.AllocsPerRun(100, func() {
				jbod.Submit(req, done)
				e.Run()
			})
			if allocs != 0 {
				t.Errorf("%s: %d KiB read: %v allocations per request, want 0", c.name, req.Size>>10, allocs)
			}
		}
	}
}
