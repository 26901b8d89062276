package fleet

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/simtime"
)

// Fault schedules one member-disk failure: at offset At from run
// start, disk Disk of member Array fails and a background rebuild
// starts immediately, streaming RebuildBytes in ChunkBytes steps
// against the foreground load.  The fault event is scheduled on the
// target member's own engine, so it fires during that member's worker
// drain at the exact same virtual time for any worker count.
type Fault struct {
	// Array is the member index to degrade.
	Array int `json:"array"`
	// Disk is the member-disk index to fail (default 0).
	Disk int `json:"disk"`
	// At is the failure time as an offset from run start.
	At simtime.Duration `json:"at_ns"`
	// RebuildBytes and ChunkBytes size the rebuild; zero takes the
	// raid package defaults.
	RebuildBytes int64 `json:"rebuild_bytes,omitempty"`
	ChunkBytes   int64 `json:"chunk_bytes,omitempty"`
}

// FaultResult reports one injected fault's lifecycle.
type FaultResult struct {
	Array int `json:"array"`
	Disk  int `json:"disk"`
	// FailedAt is the virtual time the disk failed.
	FailedAt simtime.Time `json:"failed_at_ns"`
	// RecoveredAt is when the rebuild finished and the member was
	// restored; zero if the run ended first.
	RecoveredAt simtime.Time `json:"recovered_at_ns,omitempty"`
	// Error records a fault that could not be injected (e.g. the
	// member was already degraded).
	Error string `json:"error,omitempty"`
}

// faultTask injects one fault when its event fires on the member's
// engine.
type faultTask struct {
	m     *member
	fault Fault
	res   *FaultResult
}

// OnEvent implements simtime.Handler.
func (ft *faultTask) OnEvent(e *simtime.Engine, _ simtime.EventArg) {
	a := ft.m.array
	if err := a.FailDisk(ft.fault.Disk); err != nil {
		ft.res.Error = err.Error()
		return
	}
	ft.res.FailedAt = e.Now()
	res := ft.res
	if err := a.StartRebuild(ft.fault.RebuildBytes, ft.fault.ChunkBytes, func(t simtime.Time) {
		res.RecoveredAt = t
	}); err != nil {
		res.Error = err.Error()
	}
}

// validateFaults rejects a fault a run cannot honour before anything
// is scheduled: an array or disk the fleet does not have, a negative
// offset, a fault at or after span, the end of a stream that declares
// its duration (span < 0 when it declares none), and two faults on one
// array.  A fault past the stream would fire only in the final drain,
// which runs the member on to the fault and its rebuild and so
// stretches the run, diluting its rates, long after the last IO.  A
// RAID5 member tolerates one failure; two faults on one array would
// half-apply in time order, which is never what a scenario means.
func validateFaults(faults []Fault, arrays, disks int, span simtime.Duration) error {
	seen := make(map[int]bool)
	for i, ft := range faults {
		if ft.Array < 0 || ft.Array >= arrays {
			return fmt.Errorf("fleet: fault #%d targets array %d of %d", i, ft.Array, arrays)
		}
		if ft.Disk < 0 || ft.Disk >= disks {
			return fmt.Errorf("fleet: fault #%d targets disk %d of %d", i, ft.Disk, disks)
		}
		if ft.At < 0 {
			return fmt.Errorf("fleet: fault #%d at negative offset %v", i, ft.At)
		}
		if span >= 0 && ft.At >= span {
			return fmt.Errorf("fleet: fault #%d at %v is not before the stream's end at %v", i, ft.At, span)
		}
		if seen[ft.Array] {
			return fmt.Errorf("fleet: two faults target array %d; RAID5 tolerates one failure", ft.Array)
		}
		seen[ft.Array] = true
	}
	return nil
}

// ParseFaults parses a CLI fault list: comma-separated ARRAY@TIME or
// ARRAY@TIME:DISK specs, e.g. "12@30s" or "3@500ms:1,7@1s".
func ParseFaults(spec string) ([]Fault, error) {
	var out []Fault
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		arrStr, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("fleet: fault %q: want ARRAY@TIME[:DISK]", part)
		}
		arr, err := strconv.Atoi(arrStr)
		if err != nil {
			return nil, fmt.Errorf("fleet: fault %q: bad array index: %w", part, err)
		}
		timeStr, diskStr, hasDisk := strings.Cut(rest, ":")
		d, err := time.ParseDuration(timeStr)
		if err != nil {
			return nil, fmt.Errorf("fleet: fault %q: bad time: %w", part, err)
		}
		f := Fault{Array: arr, At: simtime.FromStd(d)}
		if hasDisk {
			if f.Disk, err = strconv.Atoi(diskStr); err != nil {
				return nil, fmt.Errorf("fleet: fault %q: bad disk index: %w", part, err)
			}
		}
		out = append(out, f)
	}
	return out, nil
}

// FaultsFromMTBF draws a seeded failure scenario: each array's first
// failure time is exponential with the given mean; failures landing
// inside the horizon become faults (at most one per array — RAID5).
// The draw order is array-index order, so the scenario is a pure
// function of (arrays, disks, mtbf, horizon, seed).
func FaultsFromMTBF(arrays, disks int, mtbf, horizon simtime.Duration, seed uint64) []Fault {
	if arrays <= 0 || mtbf <= 0 || horizon <= 0 {
		return nil
	}
	rng := rand.New(rand.NewPCG(seed, 0xfa117))
	var out []Fault
	for i := 0; i < arrays; i++ {
		at := simtime.Duration(float64(mtbf) * rng.ExpFloat64())
		disk := 0
		if disks > 1 {
			disk = rng.IntN(disks)
		}
		if at < horizon {
			out = append(out, Fault{Array: i, Disk: disk, At: at})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
