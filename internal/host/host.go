// Package host implements the evaluation host's results database
// (paper Section III-A1).  After each test, TRACER stores a record
// carrying the test time, the workload mode vector (request size,
// random rate, read rate, load proportion), the energy dissipation data
// (average current, voltage, power), the performance result (IOPS,
// MBPS, response time) and the derived energy-efficiency values.  Users
// query the database for completed tests.
//
// The paper's host uses a GUI over a SQL database on Windows; this
// reproduction provides an embeddable, concurrency-safe store with JSON
// persistence, queried from the tracer CLI.
package host

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// ModeVector is the paper's workload mode: request size, random rate,
// read rate, plus the configured load proportion.
type ModeVector struct {
	RequestBytes   int64   `json:"request_bytes"`
	ReadRatio      float64 `json:"read_ratio"`
	RandomRatio    float64 `json:"random_ratio"`
	LoadProportion float64 `json:"load_proportion"`
}

// PowerData is the energy dissipation portion of a record: average
// current in amperes, voltage in volts, power in watts, and the energy
// integral.
type PowerData struct {
	MeanAmps  float64 `json:"mean_amps"`
	MeanVolts float64 `json:"mean_volts"`
	MeanWatts float64 `json:"mean_watts"`
	EnergyJ   float64 `json:"energy_j"`
	Samples   int     `json:"samples"`
}

// PerfData is the performance portion: average IOPS, MBPS and response
// time.
type PerfData struct {
	IOPS           float64 `json:"iops"`
	MBPS           float64 `json:"mbps"`
	MeanResponseMs float64 `json:"mean_response_ms"`
	MaxResponseMs  float64 `json:"max_response_ms"`
	P95ResponseMs  float64 `json:"p95_response_ms,omitempty"`
	P99ResponseMs  float64 `json:"p99_response_ms,omitempty"`
	DurationS      float64 `json:"duration_s"`
	IOs            int64   `json:"ios"`
}

// EfficiencyData is the derived energy-efficiency portion.
type EfficiencyData struct {
	IOPSPerWatt float64 `json:"iops_per_watt"`
	MBPSPerKW   float64 `json:"mbps_per_kw"`
}

// Record is one completed test.
type Record struct {
	ID         int64          `json:"id"`
	TestTime   time.Time      `json:"test_time"`
	Device     string         `json:"device"`
	TraceName  string         `json:"trace_name"`
	Mode       ModeVector     `json:"mode"`
	Power      PowerData      `json:"power"`
	Perf       PerfData       `json:"perf"`
	Efficiency EfficiencyData `json:"efficiency"`
	Notes      string         `json:"notes,omitempty"`
}

// DB is a concurrency-safe results store.
type DB struct {
	mu      sync.RWMutex
	nextID  int64
	records []Record
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{nextID: 1} }

// Insert stores a record, assigning and returning its ID.  The caller's
// ID field is ignored.
func (db *DB) Insert(r Record) int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	r.ID = db.nextID
	db.nextID++
	if r.TestTime.IsZero() {
		r.TestTime = time.Now()
	}
	db.records = append(db.records, r)
	return r.ID
}

// Get retrieves a record by ID.
func (db *DB) Get(id int64) (Record, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, r := range db.records {
		if r.ID == id {
			return r, true
		}
	}
	return Record{}, false
}

// Len reports the number of stored records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.records)
}

// Query selects records matching the filter, sorted by ID.
type Query struct {
	// Device filters by device label; empty matches all.
	Device string
	// TraceName filters by trace; empty matches all.
	TraceName string
	// MinLoad and MaxLoad bound the configured load proportion; zero
	// MaxLoad means unbounded.
	MinLoad, MaxLoad float64
	// RequestBytes filters by mode request size; zero matches all.
	RequestBytes int64
}

// Select runs the query.
func (db *DB) Select(q Query) []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Record
	for _, r := range db.records {
		if q.Device != "" && r.Device != q.Device {
			continue
		}
		if q.TraceName != "" && r.TraceName != q.TraceName {
			continue
		}
		if r.Mode.LoadProportion < q.MinLoad {
			continue
		}
		if q.MaxLoad > 0 && r.Mode.LoadProportion > q.MaxLoad {
			continue
		}
		if q.RequestBytes > 0 && r.Mode.RequestBytes != q.RequestBytes {
			continue
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Save persists the database as JSON at path (atomic rename).
func (db *DB) Save(path string) error {
	db.mu.RLock()
	blob, err := json.MarshalIndent(struct {
		NextID  int64    `json:"next_id"`
		Records []Record `json:"records"`
	}{db.nextID, db.records}, "", "  ")
	db.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("host: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("host: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("host: %w", err)
	}
	return nil
}

// maxID is the largest record ID or next_id a database file may hold:
// 2^53, the largest integer a float64 JSON reader keeps exactly.
const maxID = 1 << 53

// LoadDB reads a database saved by Save.  A missing file yields an
// empty database, so first runs need no setup.  A record ID below 1 or
// above 2^53, a repeated record ID, or a next_id above 2^53 is an
// error naming the file, and IDs continue above the largest record ID
// whatever next_id says, so Insert never reuses one.
func LoadDB(path string) (*DB, error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewDB(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	var raw struct {
		NextID  int64    `json:"next_id"`
		Records []Record `json:"records"`
	}
	if err := json.Unmarshal(blob, &raw); err != nil {
		return nil, fmt.Errorf("host: corrupt database %s: %w", path, err)
	}
	if raw.NextID > maxID {
		return nil, fmt.Errorf("host: database %s: next_id %d exceeds %d", path, raw.NextID, maxID)
	}
	db := &DB{nextID: max(raw.NextID, 1), records: raw.Records}
	seen := make(map[int64]bool, len(raw.Records))
	for _, r := range raw.Records {
		switch {
		case r.ID < 1 || r.ID > maxID:
			return nil, fmt.Errorf("host: database %s: record id %d outside [1, %d]", path, r.ID, maxID)
		case seen[r.ID]:
			return nil, fmt.Errorf("host: database %s: record id %d repeats", path, r.ID)
		}
		seen[r.ID] = true
		db.nextID = max(db.nextID, r.ID+1)
	}
	return db, nil
}
