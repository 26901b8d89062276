package main

import "time"

// On a VM of a shared machine, such as the 2-vCPU Intel Xeon VM this
// benchmark was tuned on, the speed of the same code drifts by up to a
// factor of two over tens of seconds as the neighbours' load changes.
// Every repetition is therefore bracketed by two samples of a fixed
// reference kernel, and the calibrated rate scales the repetition's IO
// rate by the kernel's speed at that time.  The kernel lives in the
// benchmark, so no change to the simulator can make it faster or
// slower; only the host can.

// refNominal is the reference speed, in kernel steps per host second,
// that calibrated rates are scaled to.  It is a round number near the
// kernel's speed on the VM the benchmark was tuned on (2.5 to 3.4 M
// steps/s), so calibrated and raw rates read about the same there.
const refNominal = 2.5e6

// refSampleSteps is the length of one reference sample, about 100 ms
// at refNominal.
const refSampleSteps = 250_000

const (
	refEvents = 4096    // pending events in the heap
	refWords  = 1 << 19 // 4 MiB state table
	refKeys   = 1 << 14 // per-key buffers in the map
)

type refEvent struct{ at, id uint64 }

// refKernel is a small discrete-event loop with the simulator's mix of
// work.  Each step pops the earliest event from a binary heap, updates
// a pseudo-random word of a 4 MiB table, appends to a per-key buffer in
// a map (allocating a fresh buffer when one fills), runs a chain of
// dependent floating-point operations, and schedules the event's
// successor.  Each of the four parts responds to a different kind of
// contention on the host: the heap and the table to the caches and
// memory, the buffers to allocation and GC, the chain to the clock.
type refKernel struct {
	steps int // per sample
	heap  []refEvent
	table []uint64
	bufs  map[uint32][]byte
	rng   uint64
	sink  float64
}

func newRefKernel(steps int) *refKernel {
	k := &refKernel{
		steps: steps,
		heap:  make([]refEvent, refEvents),
		table: make([]uint64, refWords),
		bufs:  make(map[uint32][]byte, refKeys),
		rng:   88172645463325252,
	}
	for i := range k.heap {
		k.heap[i] = refEvent{uint64(i), uint64(i)}
	}
	return k
}

// speed runs one sample and returns the kernel's speed in steps per
// host second.
func (k *refKernel) speed() float64 {
	start := time.Now()
	k.run()
	return float64(k.steps) / time.Since(start).Seconds()
}

func (k *refKernel) run() {
	h := k.heap
	for range k.steps {
		e := h[0]
		k.rng ^= k.rng << 13
		k.rng ^= k.rng >> 7
		k.rng ^= k.rng << 17
		w := &k.table[(e.id*0x9E3779B97F4A7C15^k.rng)&(refWords-1)]
		*w += e.at

		key := uint32(k.rng>>32) & (refKeys - 1)
		b := k.bufs[key]
		if len(b) == cap(b) {
			b = make([]byte, 0, 16)
		}
		k.bufs[key] = append(b, byte(e.at))

		x := float64(e.at & 1023)
		for range 32 {
			x = x*1.0000001 + 1e-9
		}
		k.sink += x

		next := e.at + 1 + (k.rng>>40)&1023
		if *w&3 == 0 {
			next += 512
		}
		h[0] = refEvent{next, e.id}
		for j := 0; ; {
			c := 2*j + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].at < h[c].at {
				c++
			}
			if h[j].at <= h[c].at {
				break
			}
			h[j], h[c] = h[c], h[j]
			j = c
		}
	}
}
