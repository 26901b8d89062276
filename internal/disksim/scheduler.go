package disksim

// Scheduler selects which queued request an HDD serves next.  The
// paper's array exposes raw disks (controller cache disabled), so the
// per-drive scheduler is the only reordering in the path; comparing
// policies is one of the repository's ablation studies.
type Scheduler int

const (
	// FIFO serves requests in arrival order (the default; what the
	// experiment sections of the paper assume).
	FIFO Scheduler = iota
	// SSTF serves the request with the shortest seek from the current
	// head position.
	SSTF
	// LOOK sweeps the arm across the platter, serving requests in
	// cylinder order and reversing at the last request in each
	// direction (the classic elevator).
	LOOK
)

// String names the policy.
func (s Scheduler) String() string {
	switch s {
	case FIFO:
		return "fifo"
	case SSTF:
		return "sstf"
	case LOOK:
		return "look"
	default:
		return "scheduler(?)"
	}
}

// selectNext picks the index of the next queued request under the
// drive's scheduling policy.  The queue is guaranteed non-empty.
func (d *HDD) selectNext() int {
	switch d.params.Scheduler {
	case SSTF:
		best, bestDist := 0, int64(-1)
		for i := range d.queue.Len() {
			dist := d.cylinderOf(d.queue.At(i).req.Offset) - d.headCyl
			if dist < 0 {
				dist = -dist
			}
			if bestDist < 0 || dist < bestDist {
				best, bestDist = i, dist
			}
		}
		return best
	case LOOK:
		// Find the nearest request in the sweep direction; reverse when
		// none remains ahead of the head.
		for attempt := 0; attempt < 2; attempt++ {
			best, bestDist := -1, int64(-1)
			for i := range d.queue.Len() {
				delta := d.cylinderOf(d.queue.At(i).req.Offset) - d.headCyl
				if d.sweepDir < 0 {
					delta = -delta
				}
				if delta < 0 {
					continue // behind the head in this direction
				}
				if bestDist < 0 || delta < bestDist {
					best, bestDist = i, delta
				}
			}
			if best >= 0 {
				return best
			}
			d.sweepDir = -d.sweepDir
		}
		return 0 // unreachable: some request always qualifies after reversing
	default:
		return 0
	}
}
