package blktrace

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
	"repro/internal/storage"
)

func spaced(n int, gap simtime.Duration) *Trace {
	t := &Trace{Device: "t"}
	for i := 0; i < n; i++ {
		t.Bunches = append(t.Bunches, Bunch{
			Time:     simtime.Duration(i) * gap,
			Packages: []IOPackage{{Sector: int64(i) * 8, Size: 4096, Op: storage.Read}},
		})
	}
	return t
}

func TestSlice(t *testing.T) {
	tr := spaced(100, simtime.Millisecond)
	got, err := Slice(tr, 10*simtime.Millisecond, 20*simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumBunches() != 10 {
		t.Fatalf("bunches = %d, want 10", got.NumBunches())
	}
	if got.Bunches[0].Time != 0 {
		t.Fatalf("window not rebased: first at %v", got.Bunches[0].Time)
	}
	if got.Duration() != 9*simtime.Millisecond {
		t.Fatalf("duration = %v", got.Duration())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Slice(tr, 20*simtime.Millisecond, 10*simtime.Millisecond); err == nil {
		t.Fatal("inverted window accepted")
	}
	if _, err := Slice(tr, -1, 10); err == nil {
		t.Fatal("negative start accepted")
	}
}

func TestMerge(t *testing.T) {
	a := spaced(10, 2*simtime.Millisecond) // 0,2,4,...
	b := spaced(10, 2*simtime.Millisecond)
	for i := range b.Bunches {
		b.Bunches[i].Time += simtime.Millisecond // 1,3,5,...
	}
	got, err := Merge("merged", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumIOs() != 20 {
		t.Fatalf("IOs = %d", got.NumIOs())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Device != "merged" {
		t.Fatalf("device = %q", got.Device)
	}
	// Perfect interleave: bunches at 0,1,2,...,19 ms.
	if got.NumBunches() != 20 {
		t.Fatalf("bunches = %d", got.NumBunches())
	}
	for i, bn := range got.Bunches {
		if bn.Time != simtime.Duration(i)*simtime.Millisecond {
			t.Fatalf("bunch %d at %v", i, bn.Time)
		}
	}
}

func TestMergeCoalescesEqualTimestamps(t *testing.T) {
	a := spaced(5, simtime.Millisecond)
	b := spaced(5, simtime.Millisecond)
	got, err := Merge("m", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumBunches() != 5 || got.NumIOs() != 10 {
		t.Fatalf("bunches=%d ios=%d, want 5/10", got.NumBunches(), got.NumIOs())
	}
	if len(got.Bunches[0].Packages) != 2 {
		t.Fatalf("coalesced bunch size = %d", len(got.Bunches[0].Packages))
	}
}

func TestMergeRejectsInvalid(t *testing.T) {
	bad := &Trace{Bunches: []Bunch{{Time: 0}}}
	if _, err := Merge("m", spaced(2, 1), bad); err == nil {
		t.Fatal("invalid input accepted")
	}
}

func TestRemapAddresses(t *testing.T) {
	tr := &Trace{Device: "big", Bunches: []Bunch{
		{Time: 0, Packages: []IOPackage{
			{Sector: 0, Size: 4096, Op: storage.Read},
			{Sector: 1000000000, Size: 4096, Op: storage.Write}, // 512 GB in
		}},
	}}
	got, err := RemapAddresses(tr, 1<<40, 1<<30) // 1 TB -> 1 GB
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got.Bunches {
		for _, p := range b.Packages {
			if p.Sector*512+p.Size > 1<<30 {
				t.Fatalf("remapped request out of range: %+v", p)
			}
		}
	}
	// Relative position preserved approximately: 512 GB of 1 TB ~ half.
	mid := got.Bunches[0].Packages[1].Sector * 512
	if mid < (1<<30)*45/100 || mid > (1<<30)*55/100 {
		t.Fatalf("relative position lost: %d", mid)
	}
	if _, err := RemapAddresses(tr, 0, 1); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

// Property: Slice(t, 0, Duration+1) is the identity (modulo clone) and
// Merge(a) == a for any valid trace.
func TestPropertySliceMergeIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		tr := randomTrace(rng, 40)
		if tr.NumBunches() == 0 {
			return true
		}
		sl, err := Slice(tr, 0, tr.Duration()+1)
		if err != nil || sl.NumIOs() != tr.NumIOs() {
			return false
		}
		mg, err := Merge(tr.Device, tr)
		if err != nil || mg.NumIOs() != tr.NumIOs() || mg.TotalBytes() != tr.TotalBytes() {
			return false
		}
		return mg.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
