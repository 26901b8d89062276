package host

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func sampleRecord(load float64) Record {
	return Record{
		Device:    "raid5-hdd",
		TraceName: "raid5__rs4096_rd0_rn50.replay",
		Mode:      ModeVector{RequestBytes: 4096, RandomRatio: 0.5, LoadProportion: load},
		Power:     PowerData{MeanWatts: 80, MeanVolts: 220, MeanAmps: 80.0 / 220, EnergyJ: 9600, Samples: 120},
		Perf:      PerfData{IOPS: 500 * load, MBPS: 2 * load, MeanResponseMs: 8, DurationS: 120, IOs: int64(60000 * load)},
		Efficiency: EfficiencyData{
			IOPSPerWatt: 500 * load / 80,
			MBPSPerKW:   2 * load / 0.08,
		},
	}
}

func TestInsertAssignsIDsAndTimes(t *testing.T) {
	db := NewDB()
	id1 := db.Insert(sampleRecord(0.1))
	id2 := db.Insert(sampleRecord(0.2))
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d, %d", id1, id2)
	}
	r, ok := db.Get(id1)
	if !ok {
		t.Fatal("Get failed")
	}
	if r.TestTime.IsZero() {
		t.Fatal("TestTime not stamped")
	}
	if _, ok := db.Get(99); ok {
		t.Fatal("Get(99) should fail")
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d", db.Len())
	}
}

func TestSelectFilters(t *testing.T) {
	db := NewDB()
	for _, load := range []float64{0.1, 0.2, 0.5, 1.0} {
		db.Insert(sampleRecord(load))
	}
	other := sampleRecord(0.5)
	other.Device = "raid5-ssd"
	db.Insert(other)

	if got := db.Select(Query{Device: "raid5-hdd"}); len(got) != 4 {
		t.Fatalf("device filter: %d", len(got))
	}
	if got := db.Select(Query{MinLoad: 0.4, MaxLoad: 0.6}); len(got) != 2 {
		t.Fatalf("load filter: %d", len(got))
	}
	if got := db.Select(Query{RequestBytes: 4096}); len(got) != 5 {
		t.Fatalf("size filter: %d", len(got))
	}
	if got := db.Select(Query{RequestBytes: 512}); len(got) != 0 {
		t.Fatalf("non-matching size: %d", len(got))
	}
	if got := db.Select(Query{TraceName: "nope"}); len(got) != 0 {
		t.Fatalf("trace filter: %d", len(got))
	}
	// Sorted by ID.
	got := db.Select(Query{})
	for i := 1; i < len(got); i++ {
		if got[i].ID <= got[i-1].ID {
			t.Fatal("not sorted by ID")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDB()
	db.Insert(sampleRecord(0.3))
	db.Insert(sampleRecord(0.7))
	path := filepath.Join(t.TempDir(), "results.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("loaded %d records", got.Len())
	}
	// IDs continue after reload.
	if id := got.Insert(sampleRecord(0.9)); id != 3 {
		t.Fatalf("next id = %d, want 3", id)
	}
	r, ok := got.Get(1)
	if !ok || r.Power.MeanWatts != 80 {
		t.Fatalf("record 1 = %+v ok=%v", r, ok)
	}
}

func TestLoadDBMissingFile(t *testing.T) {
	db, err := LoadDB(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 0 {
		t.Fatal("missing file should load empty")
	}
	if id := db.Insert(sampleRecord(0.1)); id != 1 {
		t.Fatalf("id = %d", id)
	}
}

func TestLoadDBCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDB(path); err == nil {
		t.Fatal("corrupt database accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := NewDB()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				db.Insert(sampleRecord(0.5))
				db.Select(Query{MinLoad: 0.1})
				db.Len()
			}
		}()
	}
	wg.Wait()
	if db.Len() != 800 {
		t.Fatalf("Len = %d, want 800", db.Len())
	}
	// IDs must be unique.
	seen := map[int64]bool{}
	for _, r := range db.Select(Query{}) {
		if seen[r.ID] {
			t.Fatalf("duplicate id %d", r.ID)
		}
		seen[r.ID] = true
	}
}

// TestInsertDuplicateRecords: inserting the same record twice must
// produce two rows with distinct IDs, and a caller-supplied ID is
// ignored rather than trusted.
func TestInsertDuplicateRecords(t *testing.T) {
	db := NewDB()
	rec := sampleRecord(0.5)
	rec.ID = 777 // must be ignored
	id1 := db.Insert(rec)
	id2 := db.Insert(rec)
	if id1 == id2 {
		t.Fatalf("duplicate insert reused id %d", id1)
	}
	if id1 == 777 || id2 == 777 {
		t.Fatal("caller-supplied ID was trusted")
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
	a, _ := db.Get(id1)
	b, _ := db.Get(id2)
	if a.Perf != b.Perf || a.Power != b.Power || a.Mode != b.Mode {
		t.Fatal("duplicate rows diverged beyond ID/time")
	}
}

// TestSaveLoadPreservesAllFields round-trips a record with every
// schema field populated, including the omitempty ones, and demands
// exact equality after reload.
func TestSaveLoadPreservesAllFields(t *testing.T) {
	full := Record{
		TestTime:  time.Date(2026, 8, 5, 12, 30, 0, 0, time.UTC),
		Device:    "raid5-ssd",
		TraceName: "fin2.replay",
		Mode: ModeVector{
			RequestBytes:   8192,
			ReadRatio:      0.25,
			RandomRatio:    0.75,
			LoadProportion: 0.6,
		},
		Power: PowerData{
			MeanWatts: 95.5, MeanVolts: 219.8, MeanAmps: 0.4345,
			EnergyJ: 11460.0, Samples: 240,
		},
		Perf: PerfData{
			IOPS: 1234.5, MBPS: 9.876,
			MeanResponseMs: 7.25, MaxResponseMs: 91.5,
			P95ResponseMs: 22.5, P99ResponseMs: 40.125,
			DurationS: 120, IOs: 148140,
		},
		Efficiency: EfficiencyData{IOPSPerWatt: 12.926, MBPSPerKW: 103.41},
		Notes:      "degraded mode, disk 2 failed",
	}
	db := NewDB()
	id := db.Insert(full)

	path := filepath.Join(t.TempDir(), "results.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDB(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := loaded.Get(id)
	if !ok {
		t.Fatal("record lost across save/load")
	}
	want := full
	want.ID = id
	// Insert preserves a non-zero TestTime verbatim; UTC survives JSON.
	if !got.TestTime.Equal(want.TestTime) {
		t.Fatalf("TestTime = %v, want %v", got.TestTime, want.TestTime)
	}
	got.TestTime = want.TestTime
	if got != want {
		t.Fatalf("field drift across save/load:\n got %+v\nwant %+v", got, want)
	}
}

// writeDB writes blob as a database file and returns its path.
func writeDB(t testing.TB, blob string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.json")
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadDBNeverReusesIDs: IDs continue above the largest record ID
// even when next_id lags behind it, so Get finds the new record.
func TestLoadDBNeverReusesIDs(t *testing.T) {
	db, err := LoadDB(writeDB(t, `{"next_id": 1, "records": [{"id": 1}, {"id": 2, "notes": "second"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord(0.5)
	rec.Notes = "new"
	if id := db.Insert(rec); id != 3 {
		t.Fatalf("Insert after a lagging next_id = %d, want 3", id)
	}
	if r, ok := db.Get(3); !ok || r.Notes != "new" {
		t.Fatalf("Get(3) = %+v, %v", r, ok)
	}
	// A next_id ahead of every record is kept.
	db, err = LoadDB(writeDB(t, `{"next_id": 10, "records": [{"id": 4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if id := db.Insert(rec); id != 10 {
		t.Fatalf("Insert after next_id 10 = %d", id)
	}
}

// TestLoadDBRejectsBadIDs: an ID Insert could reuse, or one past 2^53,
// is an error naming the file and the ID.
func TestLoadDBRejectsBadIDs(t *testing.T) {
	for _, c := range []struct{ blob, want string }{
		{`{"next_id": 9223372036854775807, "records": []}`, "next_id 9223372036854775807 exceeds 9007199254740992"},
		{`{"next_id": 9007199254740993}`, "next_id 9007199254740993 exceeds 9007199254740992"},
		{`{"records": [{"id": 0}]}`, "record id 0 outside [1, 9007199254740992]"},
		{`{"records": [{"id": -3}]}`, "record id -3 outside [1, 9007199254740992]"},
		{`{"records": [{"id": 9007199254740993}]}`, "record id 9007199254740993 outside [1, 9007199254740992]"},
		{`{"next_id": 1, "records": [{"id": 1}, {"id": 2}, {"id": 1}]}`, "record id 1 repeats"},
	} {
		path := writeDB(t, c.blob)
		want := "host: database " + path + ": " + c.want
		if _, err := LoadDB(path); err == nil || err.Error() != want {
			t.Errorf("LoadDB(%s) = %v, want %q", c.blob, err, want)
		}
	}
	// The bounds themselves load.
	if _, err := LoadDB(writeDB(t, `{"next_id": 9007199254740992, "records": [{"id": 1}, {"id": 9007199254740992}]}`)); err != nil {
		t.Fatal(err)
	}
}
