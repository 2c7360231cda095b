// Admission control for the serving edge: where guard.Guard decides
// which *peers* a node keeps listening to, Admission decides which
// *clients* a node keeps accepting transactions from. Every submitter
// gets a token bucket, the node as a whole gets global transaction and
// byte budgets, and a three-state overload controller
// (healthy → shedding → saturated) driven by mempool fill sheds the
// lowest-priority traffic first. Audit/evidence traffic (ClassCritical)
// is always admitted so Byzantine accountability survives overload —
// an attacker must not be able to flood the edge into dropping the
// evidence that would convict them.
package guard

import (
	"sync"
	"time"
)

// Class is a transaction's admission priority. Shedding drops lower
// classes first; ClassCritical bypasses load shedding and rate limits
// entirely (capacity eviction in the mempool still bounds it).
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
	// StateHealthy admits everything within rate limits.
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
	// RejectClientRate is a per-client token-bucket exhaustion.
	RejectClientRate RejectReason = "client-rate"
	// RejectGlobalTx is the node-wide transaction budget.
	RejectGlobalTx RejectReason = "global-tx-budget"
	// RejectGlobalBytes is the node-wide byte budget.
	RejectGlobalBytes RejectReason = "global-byte-budget"
	// RejectShedding is a ClassBulk rejection while shedding.
	RejectShedding RejectReason = "shedding"
	// RejectSaturated is a sub-critical rejection while saturated.
	RejectSaturated RejectReason = "saturated"
)

// AdmissionConfig tunes the admission controller. The zero value
// disables rate limiting (all buckets unlimited); the overload state
// machine is always active, at fixed thresholds.
type AdmissionConfig struct {
	// ClientRate is each submitter's sustained budget in tx/s
	// (0 = unlimited). ClientBurst is the bucket capacity (default
	// max(1, ClientRate)).
	ClientRate  float64
	ClientBurst float64
	// GlobalTxRate / GlobalTxBurst budget total admitted transactions
	// per second across all clients (0 = unlimited).
	GlobalTxRate  float64
	GlobalTxBurst float64
	// GlobalByteRate / GlobalByteBurst budget total admitted payload
	// bytes per second (0 = unlimited).
	GlobalByteRate  float64
	GlobalByteBurst float64
	// MaxClients bounds the per-client bucket table; beyond it the
	// least-recently-seen bucket is recycled (default 4096). An attacker
	// minting submitter identities must not exhaust the edge's memory.
	MaxClients int
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
}

// The overload thresholds, as mempool fill fractions. The controller
// moves healthy → shedding at shedAt and back below shedReleaseAt,
// shedding → saturated at saturateAt and back below saturateReleaseAt;
// the gaps are hysteresis that keeps the edge from flapping at a
// boundary. shedRetryAfter is the backpressure hint attached to
// shed/saturate rejections (rate-limit rejections hint the time until
// one token refills instead).
const (
	shedAt            = 0.75
	shedReleaseAt     = 0.5
	saturateAt        = 0.92
	saturateReleaseAt = shedAt
	shedRetryAfter    = 50 * time.Millisecond
)

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.ClientRate > 0 && c.ClientBurst <= 0 {
		c.ClientBurst = c.ClientRate
		if c.ClientBurst < 1 {
			c.ClientBurst = 1
		}
	}
	if c.GlobalTxRate > 0 && c.GlobalTxBurst <= 0 {
		c.GlobalTxBurst = c.GlobalTxRate
	}
	if c.GlobalByteRate > 0 && c.GlobalByteBurst <= 0 {
		c.GlobalByteBurst = c.GlobalByteRate
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 4096
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// bucket is one token bucket (tokens refill at rate/s up to burst).
type bucket struct {
	tokens   float64
	filledAt time.Time
	lastSeen time.Time
}

func (b *bucket) refill(now time.Time, rate, burst float64) {
	if dt := now.Sub(b.filledAt); dt > 0 {
		b.tokens += dt.Seconds() * rate
		if b.tokens > burst {
			b.tokens = burst
		}
		b.filledAt = now
	}
}

// take consumes n tokens if available; otherwise it reports the time
// until the deficit refills.
func (b *bucket) take(n, rate float64) (ok bool, wait time.Duration) {
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	if rate <= 0 {
		return false, 0
	}
	return false, time.Duration((n - b.tokens) / rate * float64(time.Second))
}

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
	// Clients is the number of tracked client buckets.
	Clients int
}

// Admission is a node's client-facing admission controller. Safe for
// concurrent use.
type Admission struct {
	mu          sync.Mutex
	cfg         AdmissionConfig
	clients     map[string]*bucket
	globalTx    bucket
	globalBytes bucket
	state       OverloadState

	admitted    int64
	critical    int64
	rejected    map[RejectReason]int64
	transitions int64
}

// NewAdmission creates an admission controller.
func NewAdmission(cfg AdmissionConfig) *Admission {
	cfg = cfg.withDefaults()
	now := cfg.Clock()
	return &Admission{
		cfg:         cfg,
		clients:     make(map[string]*bucket),
		globalTx:    bucket{tokens: cfg.GlobalTxBurst, filledAt: now},
		globalBytes: bucket{tokens: cfg.GlobalByteBurst, filledAt: now},
		state:       StateHealthy,
		rejected:    make(map[RejectReason]int64),
	}
}

// SetConfig replaces the tuning in place; tracked buckets keep their
// levels and are interpreted by the new rates from here on.
func (a *Admission) SetConfig(cfg AdmissionConfig) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cfg = cfg.withDefaults()
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

// client returns the submitter's bucket, recycling the least-recently
// seen one when the table is full.
func (a *Admission) client(id string, now time.Time) *bucket {
	b, ok := a.clients[id]
	if ok {
		return b
	}
	if len(a.clients) >= a.cfg.MaxClients {
		oldest, oldestAt := "", now
		for cid, cb := range a.clients {
			if !cb.lastSeen.After(oldestAt) || oldest == "" {
				oldest, oldestAt = cid, cb.lastSeen
			}
		}
		delete(a.clients, oldest)
	}
	b = &bucket{tokens: a.cfg.ClientBurst, filledAt: now}
	a.clients[id] = b
	return b
}

// Decide admits or rejects one transaction. client identifies the
// submitter (its chain address), class its priority, size its payload
// bytes, and fill the mempool utilization in [0,1] that drives the
// overload state machine.
func (a *Admission) Decide(client string, class Class, size int64, fill float64) Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.cfg.Clock()
	a.advanceState(fill)
	d := Decision{State: a.state}

	reject := func(reason RejectReason, wait time.Duration) Decision {
		if wait <= 0 {
			wait = shedRetryAfter
		}
		d.Reason, d.RetryAfter = reason, wait
		a.rejected[reason]++
		return d
	}

	// Accountability traffic bypasses both shedding and rate limits:
	// evidence must land even when the edge is drowning.
	if class == ClassCritical {
		d.Admit = true
		a.admitted++
		a.critical++
		return d
	}
	switch a.state {
	case StateSaturated:
		return reject(RejectSaturated, shedRetryAfter)
	case StateShedding:
		if class == ClassBulk {
			return reject(RejectShedding, shedRetryAfter)
		}
	}
	if a.cfg.ClientRate > 0 {
		b := a.client(client, now)
		b.lastSeen = now
		b.refill(now, a.cfg.ClientRate, a.cfg.ClientBurst)
		if ok, wait := b.take(1, a.cfg.ClientRate); !ok {
			return reject(RejectClientRate, wait)
		}
	}
	if a.cfg.GlobalTxRate > 0 {
		a.globalTx.refill(now, a.cfg.GlobalTxRate, a.cfg.GlobalTxBurst)
		if ok, wait := a.globalTx.take(1, a.cfg.GlobalTxRate); !ok {
			return reject(RejectGlobalTx, wait)
		}
	}
	if a.cfg.GlobalByteRate > 0 {
		a.globalBytes.refill(now, a.cfg.GlobalByteRate, a.cfg.GlobalByteBurst)
		if ok, wait := a.globalBytes.take(float64(size), a.cfg.GlobalByteRate); !ok {
			return reject(RejectGlobalBytes, wait)
		}
	}
	d.Admit = true
	a.admitted++
	return d
}

// State returns the current overload state without consuming tokens,
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
		Clients:          len(a.clients),
	}
}
