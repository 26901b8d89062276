package fleet

import "fmt"

// ArrayState is the router's view of one member array at decision
// time.  The coordinator updates it as it routes within a window;
// completions become visible at window barriers, so every policy
// decision depends only on coordinator-side state — never on worker
// scheduling — which is what keeps fleet results independent of the
// worker count.  A policy that reads it gets a barrier after every
// window, so each completion is visible from the window after the one
// it lands in.
type ArrayState struct {
	// Outstanding is the number of admitted, not yet completed IOs.
	Outstanding int
	// QueuedBytes is the payload of those outstanding IOs.
	QueuedBytes int64
	// Admitted is the lifetime count of IOs routed to this array.
	Admitted int64
}

// Policy places one client request onto a member array.  Pick returns
// an index into states; it must be deterministic given (r, states) and
// the policy's own history.
type Policy interface {
	// Name labels the policy in results and reports.
	Name() string
	// Pick chooses the target array for r.
	Pick(r ClientRequest, states []ArrayState) int
}

// stateBlind marks a policy whose Pick reads nothing of states but its
// length.  The coordinator routes several windows between barriers for
// such a policy; any other Policy, one from outside this package
// included, counts as reading state and gets a barrier after every
// window.
type stateBlind interface{ ignoresState() }

// RoundRobin rotates through the arrays in index order, one request
// each, regardless of load.
type RoundRobin struct{ next int }

func (*RoundRobin) ignoresState() {}

// NewRoundRobin returns a rotation starting at array 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy: the k-th request lands on array k mod n.
func (p *RoundRobin) Pick(_ ClientRequest, states []ArrayState) int {
	i := p.next % len(states)
	p.next++
	return i
}

// LeastLoaded places each request on the array with the fewest
// outstanding IOs, lowest index winning ties.
type LeastLoaded struct{}

// NewLeastLoaded returns the least-outstanding-IOs policy.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Policy.
func (p *LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Policy.
func (p *LeastLoaded) Pick(_ ClientRequest, states []ArrayState) int {
	best := 0
	for i := 1; i < len(states); i++ {
		if states[i].Outstanding < states[best].Outstanding {
			best = i
		}
	}
	return best
}

// WeightedScore scores each array as a weighted sum of outstanding IOs
// and queued bytes and places the request on the lowest score, lowest
// index winning ties.  It generalizes LeastLoaded: byte weight makes a
// few large transfers count like many small ones.
type WeightedScore struct {
	// OutstandingWeight scores one in-flight IO (default 1).
	OutstandingWeight float64
	// BytesWeight scores one queued byte (default 1/64Ki: a 64 KiB
	// request weighs like one outstanding IO).
	BytesWeight float64
}

// NewWeightedScore returns the weighted policy with default weights.
func NewWeightedScore() *WeightedScore {
	return &WeightedScore{OutstandingWeight: 1, BytesWeight: 1.0 / (64 << 10)}
}

// Name implements Policy.
func (p *WeightedScore) Name() string { return "weighted" }

func (p *WeightedScore) score(st ArrayState) float64 {
	return p.OutstandingWeight*float64(st.Outstanding) + p.BytesWeight*float64(st.QueuedBytes)
}

// Pick implements Policy.
func (p *WeightedScore) Pick(_ ClientRequest, states []ArrayState) int {
	best := 0
	bestScore := p.score(states[0])
	for i := 1; i < len(states); i++ {
		if s := p.score(states[i]); s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Affinity hashes the client ID onto an array, so one client's
// requests always land on the same member (cache and locality
// friendly).  The mapping depends only on the client ID and the array
// count — never on load — so it is stable across runs and across
// fleets of the same size.
type Affinity struct{}

// NewAffinity returns the client-affinity hashing policy.
func NewAffinity() *Affinity { return &Affinity{} }

func (*Affinity) ignoresState() {}

// Name implements Policy.
func (p *Affinity) Name() string { return "affinity" }

// fnv1a64 hashes the 8 little-endian bytes of v (FNV-1a).
func fnv1a64(v uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v >> (8 * i) & 0xff
		h *= prime
	}
	return h
}

// Pick implements Policy.
func (p *Affinity) Pick(r ClientRequest, states []ArrayState) int {
	return int(fnv1a64(r.Client) % uint64(len(states)))
}

// PolicyFromString parses a placement policy name.
func PolicyFromString(name string) (Policy, error) {
	switch name {
	case "round-robin", "":
		return NewRoundRobin(), nil
	case "least-loaded":
		return NewLeastLoaded(), nil
	case "weighted":
		return NewWeightedScore(), nil
	case "affinity":
		return NewAffinity(), nil
	default:
		return nil, fmt.Errorf("fleet: unknown policy %q (want round-robin, least-loaded, weighted or affinity)", name)
	}
}
