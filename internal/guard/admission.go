// Admission control for the serving edge: where guard.Guard decides
// which *peers* a node keeps listening to, Admission decides which
// *clients* a node keeps accepting transactions from. A three-state
// overload controller (healthy → shedding → saturated) driven by
// mempool fill sheds the lowest-priority traffic first. Audit/evidence traffic (ClassCritical)
// is always admitted so Byzantine accountability survives overload —
// an attacker must not be able to flood the edge into dropping the
// evidence that would convict them.
package guard

import (
	"sync"
	"time"
)

// Class is a transaction's admission priority. Shedding drops lower
// classes first; ClassCritical bypasses load shedding entirely
// (capacity eviction in the mempool still bounds it).
type Class int

// Admission classes, lowest priority first.
const (
	// ClassBulk is background traffic: data registrations, anchors.
	ClassBulk Class = iota
	// ClassNormal is interactive traffic: consent changes, analytics
	// requests, trial operations, contract calls.
	ClassNormal
	// ClassCritical is accountability traffic: equivocation evidence and
	// other audit transactions.
	ClassCritical
)

// String names the class for stats and logs.
func (c Class) String() string {
	switch c {
	case ClassBulk:
		return "bulk"
	case ClassNormal:
		return "normal"
	case ClassCritical:
		return "critical"
	}
	return "unknown"
}

// OverloadState is the edge's position in the overload state machine.
type OverloadState string

// Overload states.
const (
	// StateHealthy admits everything.
	StateHealthy OverloadState = "healthy"
	// StateShedding rejects ClassBulk so higher classes keep bounded
	// latency while the pool drains.
	StateShedding OverloadState = "shedding"
	// StateSaturated admits only ClassCritical.
	StateSaturated OverloadState = "saturated"
)

// RejectReason classifies an admission rejection.
type RejectReason string

// Rejection reasons.
const (
	// RejectShedding is a ClassBulk rejection while shedding.
	RejectShedding RejectReason = "shedding"
	// RejectSaturated is a sub-critical rejection while saturated.
	RejectSaturated RejectReason = "saturated"
)

// AdmissionConfig is empty until bench/replay.go stops naming it (ROADMAP item 2).
type AdmissionConfig struct{}

// The overload thresholds, as mempool fill fractions. The controller
// moves healthy → shedding at shedAt and back below shedReleaseAt,
// shedding → saturated at saturateAt and back below saturateReleaseAt;
// the gaps are hysteresis that keeps the edge from flapping at a
// boundary. shedRetryAfter is the backpressure hint attached to every
// rejection.
const (
	shedAt            = 0.75
	shedReleaseAt     = 0.5
	saturateAt        = 0.92
	saturateReleaseAt = shedAt
	shedRetryAfter    = 50 * time.Millisecond
)

// Decision is the outcome of one admission check.
type Decision struct {
	// Admit reports whether the transaction may enter the mempool.
	Admit bool
	// Reason classifies a rejection (empty when admitted).
	Reason RejectReason
	// RetryAfter is the backpressure hint for rejected traffic: how long
	// the client should wait before resubmitting.
	RetryAfter time.Duration
	// State is the overload state the decision was made in.
	State OverloadState
}

// AdmissionStats is a controller-wide snapshot.
type AdmissionStats struct {
	// State is the current overload state.
	State OverloadState
	// Admitted counts admitted transactions; AdmittedCritical the
	// subset that bypassed shedding via ClassCritical.
	Admitted, AdmittedCritical int64
	// Rejected breaks rejections down by reason.
	Rejected map[RejectReason]int64
	// Transitions counts overload-state changes (healthy→shedding,
	// shedding→saturated, and the releases).
	Transitions int64
}

// Admission is a node's client-facing admission controller. Safe for
// concurrent use.
type Admission struct {
	mu    sync.Mutex
	state OverloadState

	admitted    int64
	critical    int64
	rejected    map[RejectReason]int64
	transitions int64
}

// NewAdmission creates an admission controller.
func NewAdmission(AdmissionConfig) *Admission {
	return &Admission{state: StateHealthy, rejected: make(map[RejectReason]int64)}
}

// advanceState runs the overload state machine on the current mempool
// fill fraction. Caller holds a.mu.
func (a *Admission) advanceState(fill float64) {
	prev := a.state
	switch a.state {
	case StateHealthy:
		if fill >= saturateAt {
			a.state = StateSaturated
		} else if fill >= shedAt {
			a.state = StateShedding
		}
	case StateShedding:
		if fill >= saturateAt {
			a.state = StateSaturated
		} else if fill < shedReleaseAt {
			a.state = StateHealthy
		}
	case StateSaturated:
		if fill < saturateReleaseAt {
			a.state = StateShedding
			if fill < shedReleaseAt {
				a.state = StateHealthy
			}
		}
	default:
		a.state = StateHealthy
	}
	if a.state != prev {
		a.transitions++
	}
}

// Decide admits or rejects one transaction of the given class, with
// fill the mempool utilization in [0,1] that drives the overload state
// machine. client and size are unused until bench/replay.go stops
// passing them (ROADMAP item 2).
func (a *Admission) Decide(client string, class Class, size int64, fill float64) Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.advanceState(fill)
	d := Decision{State: a.state}
	// Accountability traffic bypasses shedding: evidence must land even
	// when the edge is drowning.
	if class == ClassCritical {
		d.Admit = true
		a.admitted++
		a.critical++
		return d
	}
	switch {
	case a.state == StateSaturated:
		d.Reason = RejectSaturated
	case a.state == StateShedding && class == ClassBulk:
		d.Reason = RejectShedding
	default:
		d.Admit = true
		a.admitted++
		return d
	}
	d.RetryAfter = shedRetryAfter
	a.rejected[d.Reason]++
	return d
}

// State returns the current overload state without deciding anything,
// re-evaluating the machine against the given fill first.
func (a *Admission) State(fill float64) OverloadState {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.advanceState(fill)
	return a.state
}

// Stats snapshots the controller.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	rej := make(map[RejectReason]int64, len(a.rejected))
	for k, v := range a.rejected {
		rej[k] = v
	}
	return AdmissionStats{
		State:            a.state,
		Admitted:         a.admitted,
		AdmittedCritical: a.critical,
		Rejected:         rej,
		Transitions:      a.transitions,
	}
}
