package host

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoadDB holds LoadDB to "labelled error, or a usable database":
// a rejected file yields an error that names it, and an accepted one
// saves to a file that loads back and saves to the same bytes, and
// its next Insert returns an ID no record has.  Seeds: a Save output,
// a next_id that lags the records, a next_id at the top of int64, and
// a corrupt file.
func FuzzLoadDB(f *testing.F) {
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
	db := NewDB()
	db.Insert(sampleRecord(0.3))
	db.Insert(sampleRecord(0.7))
	if err := db.Save(in); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(in)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	f.Add([]byte(`{"next_id": 1, "records": [{"id": 1}, {"id": 2}]}`))
	f.Add([]byte(`{"next_id": 9223372036854775807, "records": []}`))
	f.Add([]byte(`{nope`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := LoadDB(in)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "host: ") || !strings.Contains(err.Error(), in) {
				t.Fatalf("error does not name the file: %v", err)
			}
			return
		}
		if err := db.Save(out); err != nil {
			t.Fatalf("accepted database does not save: %v", err)
		}
		first, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		again, err := LoadDB(out)
		if err != nil {
			t.Fatalf("saved database does not load: %v", err)
		}
		if err := again.Save(out); err != nil {
			t.Fatal(err)
		}
		if second, err := os.ReadFile(out); err != nil || !bytes.Equal(first, second) {
			t.Fatalf("save/load does not round-trip (%v):\n%s\n---\n%s", err, first, second)
		}
		ids := make(map[int64]bool, db.Len())
		for _, r := range db.Select(Query{}) {
			ids[r.ID] = true
		}
		if id := db.Insert(Record{}); id < 1 || ids[id] {
			t.Fatalf("Insert returned id %d; record ids %v", id, ids)
		}
	})
}
