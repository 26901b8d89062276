package repository

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/synth"
)

func tinyTrace() *blktrace.Trace {
	return &blktrace.Trace{Device: "raid5", Bunches: []blktrace.Bunch{
		{Time: 0, Packages: []blktrace.IOPackage{{Sector: 0, Size: 4096, Op: storage.Read}}},
		{Time: simtime.Millisecond, Packages: []blktrace.IOPackage{{Sector: 8, Size: 4096, Op: storage.Write}}},
	}}
}

func TestNames(t *testing.T) {
	m := synth.Mode{RequestBytes: 4096, ReadRatio: 0.25, RandomRatio: 0.5}
	if got := SyntheticName("raid5-hdd", m); got != "raid5-hdd__rs4096_rd25_rn50.replay" {
		t.Fatalf("SyntheticName = %q", got)
	}
	if got := RealName("raid5-hdd", "web-o4"); got != "raid5-hdd__real_web-o4.replay" {
		t.Fatalf("RealName = %q", got)
	}
	// Sanitisation: path separators and spaces become dashes.
	if got := RealName("dev/0 ", "a b"); got != "dev-0-__real_a-b.replay" {
		t.Fatalf("sanitised = %q", got)
	}
}

func TestParseName(t *testing.T) {
	e, err := ParseName("raid5__rs65536_rd100_rn0.replay")
	if err != nil {
		t.Fatal(err)
	}
	want := synth.Mode{RequestBytes: 65536, ReadRatio: 1, RandomRatio: 0}
	if e.Device != "raid5" || e.Mode != want || e.IsReal() {
		t.Fatalf("entry = %+v", e)
	}
	e, err = ParseName("ssd__real_cello99.replay")
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsReal() || e.RealLabel != "cello99" || e.Device != "ssd" {
		t.Fatalf("entry = %+v", e)
	}
	for _, bad := range []string{"noformat.replay", "x__rs_rd_rn.replay", "plain.txt"} {
		if _, err := ParseName(bad); err == nil {
			t.Errorf("ParseName(%q) accepted", bad)
		}
	}
}

func TestDerivedNameRoundTrip(t *testing.T) {
	cases := []struct {
		device, profile string
		seed            uint64
	}{
		{"raid5-hdd", "web", 1},
		{"raid5-ssd", "web-o4", 42},   // hyphenated profile label
		{"raid5-hdd", "cello99", 0},   // label ending in digits, zero seed
		{"raid5-hdd", "p-2", 7},       // label ending in -<digits>
		{"dev 0", "my profile", 9000}, // sanitised spaces
	}
	for _, c := range cases {
		name := DerivedName(c.device, c.profile, c.seed)
		e, err := ParseName(name)
		if err != nil {
			t.Fatalf("ParseName(%q): %v", name, err)
		}
		if !e.IsDerived() || e.IsReal() {
			t.Fatalf("%q parsed as %+v", name, e)
		}
		wantProfile := sanitize(c.profile)
		if e.Device != sanitize(c.device) || e.ProfileLabel != wantProfile || e.Seed != c.seed {
			t.Fatalf("%q round-tripped to %+v", name, e)
		}
		// Parse → render closes the loop.
		if again := DerivedName(e.Device, e.ProfileLabel, e.Seed); again != name {
			t.Fatalf("render(parse(%q)) = %q", name, again)
		}
	}
	if got := DerivedName("raid5-hdd", "web", 3); got != "raid5-hdd__derived-web-3.replay" {
		t.Fatalf("DerivedName = %q", got)
	}
}

func TestStoreDerived(t *testing.T) {
	repo, err := Open(filepath.Join(t.TempDir(), "repo"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := repo.StoreDerived("raid5-hdd", "web", 5, tinyTrace())
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsDerived() || e.ProfileLabel != "web" || e.Seed != 5 {
		t.Fatalf("entry = %+v", e)
	}
	got, err := repo.Load(DerivedName("raid5-hdd", "web", 5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tinyTrace()) {
		t.Fatal("derived trace changed across store/load")
	}
	entries, err := repo.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDerived() {
		t.Fatalf("List = %+v", entries)
	}
}

func TestNameRoundTrip(t *testing.T) {
	for _, m := range synth.PaperModes() {
		name := SyntheticName("raid5", m)
		e, err := ParseName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Mode != m {
			t.Fatalf("mode round trip: %+v != %+v", e.Mode, m)
		}
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	repo, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := synth.Mode{RequestBytes: 4096, ReadRatio: 0.5, RandomRatio: 0.25}
	tr := tinyTrace()
	e, err := repo.StoreSynthetic("raid5", m, tr)
	if err != nil {
		t.Fatal(err)
	}
	if e.Path == "" || e.Mode != m {
		t.Fatalf("entry = %+v", e)
	}
	got, err := repo.Load(SyntheticName("raid5", m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("trace round trip mismatch")
	}
}

func TestStoreRealAndList(t *testing.T) {
	repo, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.StoreReal("raid5", "web-o4", tinyTrace()); err != nil {
		t.Fatal(err)
	}
	m := synth.Mode{RequestBytes: 512, ReadRatio: 0, RandomRatio: 1}
	if _, err := repo.StoreSynthetic("raid5", m, tinyTrace()); err != nil {
		t.Fatal(err)
	}
	// A stray file should be skipped, not break listing.
	if err := os.WriteFile(filepath.Join(repo.Dir(), "junk.replay"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(repo.Dir(), "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := repo.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("List = %d entries, want 2: %+v", len(entries), entries)
	}
	var real, syn int
	for _, e := range entries {
		if e.IsReal() {
			real++
		} else {
			syn++
		}
	}
	if real != 1 || syn != 1 {
		t.Fatalf("real=%d synthetic=%d", real, syn)
	}
}

func TestLoadMissing(t *testing.T) {
	repo, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Load(RealName("raid5", "nothing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestStoreRejectsInvalidTrace(t *testing.T) {
	repo, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := &blktrace.Trace{Bunches: []blktrace.Bunch{{Time: 0}}}
	if _, err := repo.StoreReal("d", "bad", bad); err == nil {
		t.Fatal("invalid trace stored")
	}
	// No partial file must remain.
	entries, _ := repo.List()
	if len(entries) != 0 {
		t.Fatalf("partial store left entries: %+v", entries)
	}
}

func TestOverwrite(t *testing.T) {
	repo, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t1 := tinyTrace()
	if _, err := repo.StoreReal("d", "x", t1); err != nil {
		t.Fatal(err)
	}
	t2 := tinyTrace()
	t2.Bunches = t2.Bunches[:1]
	if _, err := repo.StoreReal("d", "x", t2); err != nil {
		t.Fatal(err)
	}
	got, err := repo.Load(RealName("d", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumBunches() != 1 {
		t.Fatalf("overwrite failed: %d bunches", got.NumBunches())
	}
}
