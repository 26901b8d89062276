// Package storage defines the request and device abstractions shared by
// the simulated storage substrate (internal/disksim, internal/raid) and
// the trace replay engine (internal/replay).
//
// TRACER's replay tool is device-agnostic: the paper drives a physical
// RAID array over fiber channel, while this reproduction drives
// discrete-event device models.  Everything above this interface —
// filtering, replay scheduling, throughput accounting, energy metering —
// is identical in both worlds.
package storage

import (
	"fmt"

	"repro/internal/simtime"
)

// SectorSize is the logical block size in bytes.  Trace files address
// storage in 512-byte sectors, matching blktrace.
const SectorSize = 512

// Op is the I/O direction of a request.
type Op uint8

const (
	// Read transfers data from the device.
	Read Op = iota
	// Write transfers data to the device.
	Write
)

// String returns "read" or "write".
func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Request is a single block-level I/O.
type Request struct {
	// Op is the transfer direction.
	Op Op
	// Offset is the starting byte address on the device.
	Offset int64
	// Size is the transfer length in bytes.  Must be positive.
	Size int64
}

// End returns the byte address one past the last byte touched.
func (r Request) End() int64 { return r.Offset + r.Size }

// Sector returns the starting sector number.
func (r Request) Sector() int64 { return r.Offset / SectorSize }

// Validate reports an error when the request is malformed or falls
// outside a device of the given capacity (in bytes).  A zero capacity
// skips the bounds check.
func (r Request) Validate(capacity int64) error {
	if r.Op != Read && r.Op != Write {
		return fmt.Errorf("storage: invalid op %d", r.Op)
	}
	if r.Size <= 0 {
		return fmt.Errorf("storage: non-positive size %d", r.Size)
	}
	if r.Offset < 0 {
		return fmt.Errorf("storage: negative offset %d", r.Offset)
	}
	if capacity > 0 && r.End() > capacity {
		return fmt.Errorf("storage: request [%d,%d) beyond capacity %d", r.Offset, r.End(), capacity)
	}
	return nil
}

// Device is anything that can serve block I/O on the virtual clock.
// Submit enqueues the request at the current virtual time; done fires on
// the simulation engine when the request completes.  Implementations
// must invoke done exactly once per submitted request and must never
// invoke it before the submission time.
type Device interface {
	// Submit enqueues req.  done receives the completion time.
	Submit(req Request, done func(finish simtime.Time))
	// Capacity reports the device size in bytes.
	Capacity() int64
}
