package raid

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// refArray is the map-based request planner the scratch planner
// replaced, kept verbatim apart from telemetry hooks: mapRange,
// planRead, planStripes and planStripeWrite allocate their results and
// group a write's segments through a map keyed by stripe.
type refArray struct {
	params Params
	n      int
	failed int
	stats  Stats
}

func (a *refArray) mapRange(off, size int64) []segment {
	s := a.params.StripBytes
	n := int64(a.n)
	var segs []segment
	for size > 0 {
		strip := off / s
		within := off % s
		take := s - within
		if take > size {
			take = size
		}
		var seg segment
		switch a.params.Level {
		case RAID0:
			seg = segment{
				disk:       int(strip % n),
				diskOffset: (strip/n)*s + within,
				size:       take,
				stripe:     strip / n,
				parityDisk: -1,
			}
		case RAID5:
			dataPer := n - 1
			stripe := strip / dataPer
			k := strip % dataPer
			parity := int(stripe % n)
			disk := (parity + 1 + int(k)) % int(n)
			seg = segment{
				disk:       disk,
				diskOffset: stripe*s + within,
				size:       take,
				stripe:     stripe,
				parityDisk: parity,
			}
		}
		segs = append(segs, seg)
		off += take
		size -= take
	}
	return segs
}

func (a *refArray) planRead(req storage.Request) []plannedOp {
	segs := a.mapRange(req.Offset, req.Size)
	var ops []plannedOp
	for _, seg := range segs {
		if seg.disk == a.failed {
			a.stats.ReconstructReads++
			for j := 0; j < a.n; j++ {
				if j == a.failed {
					continue
				}
				ops = append(ops, plannedOp{Disk: j, Req: storage.Request{Op: storage.Read, Offset: seg.diskOffset, Size: seg.size}})
			}
			continue
		}
		ops = append(ops, plannedOp{Disk: seg.disk, Req: storage.Request{Op: storage.Read, Offset: seg.diskOffset, Size: seg.size}})
	}
	return ops
}

func (a *refArray) planStripes(segs []segment) []stripePlan {
	var plans []stripePlan
	byStripe := map[int64]*stripePlan{}
	var order []int64
	for _, seg := range segs {
		p, ok := byStripe[seg.stripe]
		if !ok {
			p = &stripePlan{stripe: seg.stripe, parityDisk: seg.parityDisk, parityOffset: seg.diskOffset, paritySize: seg.size}
			byStripe[seg.stripe] = p
			order = append(order, seg.stripe)
		}
		p.segs = append(p.segs, seg)
		lo, hi := p.parityOffset, p.parityOffset+p.paritySize
		if seg.diskOffset < lo {
			lo = seg.diskOffset
		}
		if end := seg.diskOffset + seg.size; end > hi {
			hi = end
		}
		p.parityOffset, p.paritySize = lo, hi-lo
	}
	dataWidth := int64(a.n - 1)
	for _, st := range order {
		p := byStripe[st]
		var covered int64
		full := true
		for _, seg := range p.segs {
			covered += seg.size
			if seg.size != a.params.StripBytes || seg.diskOffset != p.stripe*a.params.StripBytes {
				full = false
			}
		}
		p.fullStripe = full && covered == dataWidth*a.params.StripBytes
		plans = append(plans, *p)
	}
	return plans
}

func (a *refArray) planStripeWrite(p stripePlan) plannedGroup {
	degraded := a.failed >= 0 && a.stripeTouchesFailed(p)
	if degraded {
		a.stats.DegradedStripes++
	}
	parityAlive := p.parityDisk != a.failed

	var writes []plannedOp
	for _, seg := range p.segs {
		if seg.disk == a.failed {
			continue
		}
		writes = append(writes, plannedOp{Disk: seg.disk, Req: storage.Request{Op: storage.Write, Offset: seg.diskOffset, Size: seg.size}})
	}
	if parityAlive {
		a.stats.ParityWrites++
		writes = append(writes, plannedOp{Disk: p.parityDisk, Req: storage.Request{Op: storage.Write, Offset: p.parityOffset, Size: p.paritySize}})
	}
	if p.fullStripe {
		a.stats.FullStripeWrites++
		return plannedGroup{Writes: writes}
	}
	a.stats.RMWStripes++
	var reads []plannedOp
	switch {
	case !degraded:
		for _, seg := range p.segs {
			reads = append(reads, plannedOp{Disk: seg.disk, Req: storage.Request{Op: storage.Read, Offset: seg.diskOffset, Size: seg.size}})
		}
		a.stats.ParityReads++
		reads = append(reads, plannedOp{Disk: p.parityDisk, Req: storage.Request{Op: storage.Read, Offset: p.parityOffset, Size: p.paritySize}})
	case !parityAlive:
	default:
		for j := 0; j < a.n; j++ {
			if j == a.failed || j == p.parityDisk {
				continue
			}
			reads = append(reads, plannedOp{Disk: j, Req: storage.Request{Op: storage.Read, Offset: p.parityOffset, Size: p.paritySize}})
		}
	}
	return plannedGroup{Reads: reads, Writes: writes}
}

func (a *refArray) stripeTouchesFailed(p stripePlan) bool {
	if p.parityDisk == a.failed {
		return true
	}
	for _, seg := range p.segs {
		if seg.disk == a.failed {
			return true
		}
	}
	return false
}

// expect plans req and returns its member ops in the order members
// that complete instantly receive them: every stripe's first phase in
// stripe order, then the write phases of read-modify-write stripes,
// each issued when its stripe's pre-reads land.
func (a *refArray) expect(req storage.Request) []plannedOp {
	var first, second []plannedOp
	switch req.Op {
	case storage.Read:
		a.stats.Reads++
		first = a.planRead(req)
	case storage.Write:
		a.stats.Writes++
		segs := a.mapRange(req.Offset, req.Size)
		if a.params.Level == RAID0 {
			for _, seg := range segs {
				first = append(first, plannedOp{Disk: seg.disk, Req: storage.Request{Op: storage.Write, Offset: seg.diskOffset, Size: seg.size}})
			}
			break
		}
		for _, p := range a.planStripes(segs) {
			g := a.planStripeWrite(p)
			if len(g.Reads) == 0 {
				first = append(first, g.Writes...)
				continue
			}
			first = append(first, g.Reads...)
			second = append(second, g.Writes...)
		}
	}
	ops := append(first, second...)
	for _, op := range ops {
		if op.Req.Op == storage.Read {
			a.stats.DiskReads++
		} else {
			a.stats.DiskWrites++
		}
	}
	return ops
}

// logDisk completes every op instantly, like fakeDisk, and appends it
// to a log all members of an array share, so the test sees the order
// in which the controller submitted them across members.
type logDisk struct {
	*fakeDisk
	idx int
	log *[]plannedOp
}

func (d *logDisk) Submit(req storage.Request, done func(simtime.Time)) {
	*d.log = append(*d.log, plannedOp{Disk: d.idx, Req: req})
	d.fakeDisk.Submit(req, done)
}

// TestPlannerMatchesMapReference drives seeded random requests that
// cross strip and stripe boundaries through RAID-0 and RAID-5 arrays,
// healthy and with each member failed in turn, and holds every
// request's member ops (disk, op, offset, size, in order) and the
// running Stats to the map-based reference planner.
func TestPlannerMatchesMapReference(t *testing.T) {
	type config struct {
		level  Level
		n      int
		failed int
	}
	var configs []config
	for _, n := range []int{1, 2, 4} {
		configs = append(configs, config{RAID0, n, -1})
	}
	for _, n := range []int{3, 4, 5, 6} {
		for failed := -1; failed < n; failed++ {
			configs = append(configs, config{RAID5, n, failed})
		}
	}
	for ci, c := range configs {
		t.Run(fmt.Sprintf("%v-%d-failed%d", c.level, c.n, c.failed), func(t *testing.T) {
			e := simtime.NewEngine()
			var log []plannedOp
			disks := make([]Disk, c.n)
			for i := range disks {
				disks[i] = &logDisk{fakeDisk: newFakeDisk(e, 1<<40), idx: i, log: &log}
			}
			p := DefaultParams()
			p.Level = c.level
			a, err := New(e, p, disks)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refArray{params: p, n: c.n, failed: -1}
			if c.failed >= 0 {
				if err := a.FailDisk(c.failed); err != nil {
					t.Fatal(err)
				}
				ref.failed = c.failed
			}
			dataWidth := int64(c.n)
			if c.level == RAID5 {
				dataWidth--
			}
			stripe := dataWidth * strip
			rng := rand.New(rand.NewPCG(uint64(ci), 0x91a))
			for i := 0; i < 300; i++ {
				op := storage.Read
				if rng.IntN(2) == 1 {
					op = storage.Write
				}
				// Mix strip-aligned, stripe-aligned and ragged extents
				// so requests start, end and span across both kinds of
				// boundary.
				off := rng.Int64N(16 * stripe)
				size := 1 + rng.Int64N(3*stripe)
				switch rng.IntN(4) {
				case 0:
					off -= off % strip
				case 1:
					off -= off % stripe
					size = stripe * (1 + rng.Int64N(2))
				case 2:
					size = strip * (1 + rng.Int64N(2*dataWidth))
				}
				req := storage.Request{Op: op, Offset: off, Size: size}
				want := ref.expect(req)
				log = log[:0]
				completions := 0
				a.Submit(req, func(simtime.Time) { completions++ })
				e.Run()
				if completions != 1 {
					t.Fatalf("request %d %+v: done called %d times", i, req, completions)
				}
				if !slices.Equal(log, want) {
					t.Fatalf("request %d %+v: member ops\n got %+v\nwant %+v", i, req, log, want)
				}
				if a.Stats() != ref.stats {
					t.Fatalf("request %d %+v: stats\n got %+v\nwant %+v", i, req, a.Stats(), ref.stats)
				}
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRequestPathAllocatesNothing: once warm, an array request costs no
// allocation with telemetry off — planning reuses the array's scratch,
// and commands and joins come off its free list.
func TestRequestPathAllocatesNothing(t *testing.T) {
	const width = 4 * strip // data width of a 5-disk RAID-5 stripe
	cases := []struct {
		name   string
		req    storage.Request
		failed bool
	}{
		{"read", storage.Request{Op: storage.Read, Offset: 3*strip + 4096, Size: 64 << 10}, false},
		{"rmw write", storage.Request{Op: storage.Write, Offset: 4096, Size: 4096}, false},
		{"full-stripe write", storage.Request{Op: storage.Write, Offset: width, Size: width}, false},
		{"two-stripe write", storage.Request{Op: storage.Write, Offset: 2 * strip, Size: width}, false},
		{"degraded read", storage.Request{Op: storage.Read, Offset: 4096, Size: 4096}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := simtime.NewEngine()
			a, err := NewHDDArray(e, DefaultParams(), 5, disksim.Seagate7200())
			if err != nil {
				t.Fatal(err)
			}
			if c.failed {
				if err := a.FailDisk(a.mapRange(c.req.Offset, c.req.Size)[0].disk); err != nil {
					t.Fatal(err)
				}
			}
			done := func(simtime.Time) {}
			run := func() {
				a.Submit(c.req, done)
				e.Run()
			}
			for i := 0; i < 20; i++ {
				run()
			}
			if got := testing.AllocsPerRun(200, run); got != 0 {
				t.Fatalf("%v allocations per request, want 0", got)
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// flakyDisk breaks the member contract on its first op: it completes
// it twice (dup) or never (drop).
type flakyDisk struct {
	*fakeDisk
	dup, drop bool
	seen      int
}

func (d *flakyDisk) Submit(req storage.Request, done func(simtime.Time)) {
	d.seen++
	switch {
	case d.seen > 1:
		d.fakeDisk.Submit(req, done)
	case d.drop:
		d.reqs = append(d.reqs, req)
	case d.dup:
		d.fakeDisk.Submit(req, done)
		now := d.engine.Now()
		d.engine.ScheduleEvent(now, handlerFunc(func(*simtime.Engine, simtime.EventArg) { done(now) }), simtime.EventArg{})
	}
}

func flakyArray(t *testing.T, e *simtime.Engine, dup, drop bool) *Array {
	t.Helper()
	disks := make([]Disk, 4)
	for i := range disks {
		disks[i] = newFakeDisk(e, 1<<40)
	}
	// Strip 0 of a 4-disk RAID-5 lands on disk 1 (stripe 0's parity is
	// disk 0); make that member the flaky one.
	disks[1] = &flakyDisk{fakeDisk: newFakeDisk(e, 1<<40), dup: dup, drop: drop}
	a, err := New(e, DefaultParams(), disks)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.mapRange(0, strip)[0].disk; d != 1 {
		t.Fatalf("strip 0 maps to disk %d, want 1", d)
	}
	return a
}

// TestMemberCompletingTwicePanics: a repeated completion lands on a
// join that has already recycled, which must stop the run loudly
// rather than complete whichever request holds the join next.
func TestMemberCompletingTwicePanics(t *testing.T) {
	e := simtime.NewEngine()
	a := flakyArray(t, e, true, false)
	completions := 0
	a.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(simtime.Time) { completions++ })
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "landed on an idle join") {
			t.Fatalf("recovered %v, want the idle-join panic", r)
		}
		if completions != 1 {
			t.Fatalf("request completed %d times before the panic, want 1", completions)
		}
	}()
	e.Run()
	t.Fatal("a repeated member completion did not panic")
}

// TestDroppedMemberCompletionFailsInvariants: a member that never
// completes an op leaves its request hanging, and the drained array's
// self-check names the shortfall.
func TestDroppedMemberCompletionFailsInvariants(t *testing.T) {
	e := simtime.NewEngine()
	a := flakyArray(t, e, false, true)
	completed := false
	a.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 2 * strip}, func(simtime.Time) { completed = true })
	e.Run()
	if completed {
		t.Fatal("request completed without one of its member ops")
	}
	err := a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "1 member op completions landed for 2 issued") {
		t.Fatalf("CheckInvariants = %v, want the landed/issued shortfall", err)
	}
}

// TestNonFiniteMemberDrawFailsInvariants: a NaN draw on a member's
// timeline fails the array's self-check both when the member checks
// its own timeline (an HDD) and when it leaves that to the array (a
// raid.Disk with no CheckInvariants of its own).
func TestNonFiniteMemberDrawFailsInvariants(t *testing.T) {
	hddArray := func(t *testing.T, e *simtime.Engine) (*Array, *powersim.Timeline) {
		a, err := NewHDDArray(e, DefaultParams(), 4, disksim.Seagate7200())
		if err != nil {
			t.Fatal(err)
		}
		return a, a.Disks()[2].Timeline()
	}
	fakeDisks := func(t *testing.T, e *simtime.Engine) (*Array, *powersim.Timeline) {
		a, fakes := fakeArray(t, e, RAID5, 4)
		return a, fakes[2].tl
	}
	for name, build := range map[string]func(*testing.T, *simtime.Engine) (*Array, *powersim.Timeline){
		"hdd": hddArray, "bare disk": fakeDisks,
	} {
		t.Run(name, func(t *testing.T) {
			e := simtime.NewEngine()
			a, tl := build(t, e)
			a.Submit(storage.Request{Op: storage.Write, Offset: 0, Size: 4096}, func(simtime.Time) {})
			e.Run()
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("healthy array: %v", err)
			}
			tl.Set(e.Now().Add(simtime.Millisecond), math.NaN())
			err := a.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), "raid: member 2: ") || !strings.Contains(err.Error(), "non-finite draw NaN") {
				t.Fatalf("CheckInvariants = %v, want member 2's non-finite draw", err)
			}
		})
	}
}
