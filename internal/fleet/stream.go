package fleet

import (
	"math/rand/v2"

	"repro/internal/blktrace"
	"repro/internal/simtime"
	"repro/internal/slo"
	"repro/internal/storage"
)

// ClientRequest is one front-end arrival: a block-level request from a
// named client at a point on the shared virtual clock.  The router maps
// it onto a member array; the request's address is interpreted within
// that array.
type ClientRequest struct {
	// At is the arrival time at the front end.
	At simtime.Time
	// Client identifies the issuing client; affinity policies hash it.
	Client uint64
	// Req is the block-level request.
	Req storage.Request
}

// Stream produces the fleet's client arrivals in nondecreasing At
// order.  Next reports false when the stream is exhausted.
type Stream interface {
	Next() (ClientRequest, bool)
}

// SynthParams configure a synthetic open-loop client stream.
type SynthParams struct {
	// Duration is the span of the arrival process.
	Duration simtime.Duration
	// MeanIOPS is the aggregate offered rate across the whole fleet;
	// inter-arrival gaps are exponential (Poisson arrivals).
	MeanIOPS float64
	// Clients is the number of distinct client IDs, drawn uniformly.
	Clients int
	// Size is the request size in bytes (sector-aligned).
	Size int64
	// ReadRatio is the fraction of reads (0..1).
	ReadRatio float64
	// WorkingSet bounds the byte region addressed on each array.
	WorkingSet int64
	// Seed drives the PCG generator; the stream is a pure function of
	// its parameters.
	Seed uint64
}

// DefaultSynth returns the stream defaults used by the CLI and tests:
// 1 s of Poisson arrivals at 1000 IOPS, 1024 clients, 16 KiB requests,
// 60% reads over an 8 GiB working set.
func DefaultSynth() SynthParams {
	return SynthParams{
		Duration:   simtime.Second,
		MeanIOPS:   1000,
		Clients:    1024,
		Size:       16 << 10,
		ReadRatio:  0.6,
		WorkingSet: 8 << 30,
		Seed:       1,
	}
}

// SynthStream is a deterministic synthetic client stream.
type SynthStream struct {
	p   SynthParams
	rng *rand.Rand
	now simtime.Time
	end simtime.Time
}

// NewSynthStream builds a stream from p, filling zero fields with
// DefaultSynth values.
func NewSynthStream(p SynthParams) *SynthStream {
	d := DefaultSynth()
	if p.Duration <= 0 {
		p.Duration = d.Duration
	}
	if p.MeanIOPS <= 0 {
		p.MeanIOPS = d.MeanIOPS
	}
	if p.Clients <= 0 {
		p.Clients = d.Clients
	}
	if p.Size <= 0 {
		p.Size = d.Size
	}
	if p.ReadRatio < 0 || p.ReadRatio > 1 {
		p.ReadRatio = d.ReadRatio
	}
	if p.WorkingSet < p.Size {
		p.WorkingSet = d.WorkingSet
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	// Sector-align the size so offsets stay addressable.
	if rem := p.Size % storage.SectorSize; rem != 0 {
		p.Size += storage.SectorSize - rem
	}
	return &SynthStream{
		p:   p,
		rng: rand.New(rand.NewPCG(p.Seed, 0xf1ee7)),
		end: simtime.Time(0).Add(p.Duration),
	}
}

// Duration reports the configured arrival span, so the fleet can pin
// rate accounting to the offered window even when the tail is idle.
func (s *SynthStream) Duration() simtime.Duration { return s.p.Duration }

// Next implements Stream.
func (s *SynthStream) Next() (ClientRequest, bool) {
	gap := simtime.FromSeconds(s.rng.ExpFloat64() / s.p.MeanIOPS)
	if gap <= 0 {
		gap = simtime.Nanosecond
	}
	s.now = s.now.Add(gap)
	if s.now >= s.end {
		return ClientRequest{}, false
	}
	op := storage.Write
	if s.rng.Float64() < s.p.ReadRatio {
		op = storage.Read
	}
	sectors := (s.p.WorkingSet - s.p.Size) / storage.SectorSize
	var offset int64
	if sectors > 0 {
		offset = s.rng.Int64N(sectors+1) * storage.SectorSize
	}
	return ClientRequest{
		At:     s.now,
		Client: s.rng.Uint64N(uint64(s.p.Clients)),
		Req:    storage.Request{Op: op, Offset: offset, Size: s.p.Size},
	}, true
}

// Client IDs for replayed traces follow slo.ClientOfSector: requests
// within the same 16 MiB region count as one client, so affinity
// policies see the trace's spatial locality and the SLO engine
// attributes replayed traffic the same way here and in tracerd.

// TraceStream adapts a blktrace capture to a fleet client stream:
// bunch arrival offsets become stream times and the originating client
// is derived from each package's address region.
type TraceStream struct {
	trace *blktrace.Trace
	bunch int
	pkg   int
}

// NewTraceStream wraps trace; the trace is not modified.
func NewTraceStream(trace *blktrace.Trace) *TraceStream {
	return &TraceStream{trace: trace}
}

// Duration reports the trace's span.
func (s *TraceStream) Duration() simtime.Duration { return s.trace.Duration() }

// Next implements Stream.
func (s *TraceStream) Next() (ClientRequest, bool) {
	for s.bunch < len(s.trace.Bunches) {
		b := &s.trace.Bunches[s.bunch]
		if s.pkg >= len(b.Packages) {
			s.bunch++
			s.pkg = 0
			continue
		}
		p := b.Packages[s.pkg]
		s.pkg++
		return ClientRequest{
			At:     simtime.Time(0).Add(b.Time),
			Client: slo.ClientOfSector(p.Sector),
			Req:    p.Request(),
		}, true
	}
	return ClientRequest{}, false
}
