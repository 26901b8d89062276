// Decision tracing: every spin-down, spin-up, RPM-shift, member
// offline/restore and migration the conserve policies take can be
// observed (for the optimize ledger) and arbitrated (for counterfactual
// replay: "what if disk 3 had stayed up?").
//
// The hooks follow the telemetry-probe convention: a nil *Control is
// fully inert — one pointer compare per decision point, no allocations —
// so unobserved runs behave and perform exactly as before.
package conserve

// DecisionKind names one class of policy action.
type DecisionKind string

// The decision kinds the five policies emit.
const (
	// DecisionSpinDown is a TPM/MAID/PDC idle-timeout spindle stop.
	DecisionSpinDown DecisionKind = "spin-down"
	// DecisionSpinUp is a demand wake: a request arrived at a standby
	// disk.  It is forced — there is no counterfactual alternative,
	// because refusing it would strand the request.
	DecisionSpinUp DecisionKind = "spin-up"
	// DecisionRPMShift is a DRPM spindle-speed change (either
	// direction); Level/FromLevel carry the transition.
	DecisionRPMShift DecisionKind = "rpm-shift"
	// DecisionOffline is an eRAID member rest (served degraded).
	DecisionOffline DecisionKind = "offline-member"
	// DecisionRestore is an eRAID member wake back into the array.
	DecisionRestore DecisionKind = "restore-member"
	// DecisionMigrate is a PDC chunk move between members.
	DecisionMigrate DecisionKind = "migrate"
)

// Decision is one recorded policy action, carrying enough state (policy
// identity, disk, queue snapshot, idle time) for a ledger entry to be
// audited and counterfactually replayed.
type Decision struct {
	// Seq numbers proposals in simulation order, starting at 0.  Vetoed
	// proposals consume a sequence number too, so a counterfactual
	// rerun lines up seq-for-seq with the recorded run up to the pinned
	// decision.
	Seq int64 `json:"seq"`
	// At is the virtual timestamp of the decision in nanoseconds.
	At int64 `json:"at_ns"`
	// Kind is the action class.
	Kind DecisionKind `json:"kind"`
	// Policy names the deciding policy: tpm, drpm, eraid, pdc or maid.
	Policy string `json:"policy"`
	// Disk is the member index the action targets (-1 when the action
	// is array-wide).
	Disk int `json:"disk"`
	// Level and FromLevel carry DRPM level transitions (indices into
	// the declared level table); zero otherwise.
	Level     int `json:"level,omitempty"`
	FromLevel int `json:"from_level,omitempty"`
	// Chunk, FromDisk and ToDisk carry PDC migrations.
	Chunk    int64 `json:"chunk,omitempty"`
	FromDisk int   `json:"from_disk,omitempty"`
	ToDisk   int   `json:"to_disk,omitempty"`
	// IdleNs is how long the target had been idle when the policy
	// fired (spin-down and rpm-shift decisions).
	IdleNs int64 `json:"idle_ns,omitempty"`
	// QueueDepth and Outstanding snapshot the target's load at the
	// decision point: queued-but-unstarted requests and in-flight ones.
	QueueDepth  int `json:"queue_depth"`
	Outstanding int `json:"outstanding"`
	// Forced marks demand-driven actions (spin-up on arrival) that have
	// no counterfactual alternative.
	Forced bool `json:"forced,omitempty"`
	// Vetoed marks a proposal the run's Arbiter rejected — the policy
	// did not act.  Only counterfactual reruns produce vetoed entries.
	Vetoed bool `json:"vetoed,omitempty"`
}

// DecisionObserver receives every decision (including vetoed proposals)
// as it happens.  Callbacks fire from inside the simulation and must
// not block.
type DecisionObserver interface {
	ObserveDecision(d Decision)
}

// Arbiter approves or vetoes non-forced proposals before the policy
// acts.  The counterfactual replayer pins one recorded decision to its
// alternative by vetoing exactly that sequence number.
type Arbiter interface {
	Approve(d Decision) bool
}

// Control bundles the observer and arbiter for one simulated system and
// owns the shared sequence counter, so decisions from several policies
// (a MAID's data disks, a PDC's members) interleave in one totally
// ordered stream.  All policies of one engine are single-threaded, so
// no locking is needed.
type Control struct {
	// Observer, when non-nil, receives every decision.
	Observer DecisionObserver
	// Arbiter, when non-nil, is consulted on every non-forced proposal.
	Arbiter Arbiter

	seq int64
}

// propose assigns the next sequence number, consults the arbiter (for
// non-forced proposals), records the outcome and reports whether the
// policy should act.  A nil Control approves silently.
func (c *Control) propose(d Decision) bool {
	if c == nil {
		return true
	}
	d.Seq = c.seq
	c.seq++
	approved := true
	if !d.Forced && c.Arbiter != nil {
		approved = c.Arbiter.Approve(d)
	}
	d.Vetoed = !approved
	if c.Observer != nil {
		c.Observer.ObserveDecision(d)
	}
	return approved
}
