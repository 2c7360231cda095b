// Package guard implements per-peer misbehavior accounting for the
// Byzantine-resilient peer layer: weighted offense scores with
// exponential decay, quarantine above a threshold, and token-bucket
// rate limiting for sync requests. A node consults its guard at message
// ingress — a quarantined peer's messages are dropped wholesale until
// its score decays back under the release threshold, so a single
// compromised hospital site cannot spam, stall, or resource-exhaust the
// honest quorum (the insider-adversary model of the paper's Fig. 2
// network).
//
// The guard is deliberately local state: each node scores peers from
// its own observations only, so a Byzantine peer cannot poison another
// node's view of an honest one. Provable misbehavior (equivocation) is
// additionally reported on-chain as consensus.Evidence; the guard only
// decides who this node keeps talking to.
package guard

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Offense classifies one observed misbehavior.
type Offense string

// Offenses, roughly ordered by severity.
const (
	// OffenseMalformed is an undecodable or structurally invalid payload.
	OffenseMalformed Offense = "malformed"
	// OffenseInvalidVote is a vote that fails signature or membership
	// checks.
	OffenseInvalidVote Offense = "invalid-vote"
	// OffenseBadProposal is a proposal from a non-validator, out of
	// schedule, or with a bad proposer signature.
	OffenseBadProposal Offense = "bad-proposal"
	// OffenseInvalidSeal is a gossiped block whose seal fails engine
	// verification.
	OffenseInvalidSeal Offense = "invalid-seal"
	// OffenseSyncFlood is a sync request beyond the token-bucket rate.
	OffenseSyncFlood Offense = "sync-flood"
	// OffenseEquivocation is provable double-signing (double proposal or
	// double vote). Its weight quarantines instantly.
	OffenseEquivocation Offense = "equivocation"
)

// weights is each offense's score increment.
var weights = map[Offense]float64{
	OffenseMalformed:    10,
	OffenseInvalidVote:  15,
	OffenseBadProposal:  20,
	OffenseInvalidSeal:  20,
	OffenseSyncFlood:    10,
	OffenseEquivocation: quarantineScore,
}

// quarantineScore is the score at or above which a peer is
// quarantined; release happens when decay brings the score under half
// of it.
const quarantineScore = 100

// Each peer's sync-request token bucket holds syncBurst tokens and
// refills one every syncRefillEvery.
const (
	syncBurst       = 8
	syncRefillEvery = 250 * time.Millisecond
)

// Config tunes the guard. The zero value gets usable defaults from
// withDefaults.
type Config struct {
	// DecayHalfLife is the score half-life (default 30s).
	DecayHalfLife time.Duration
	// Clock overrides time.Now for deterministic tests and simulation.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.DecayHalfLife <= 0 {
		c.DecayHalfLife = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// peerState is one peer's ledger of sins.
type peerState struct {
	score       float64
	scoredAt    time.Time // last decay application
	quarantined bool
	offenses    map[Offense]int
	// syncTokens is the sync-request bucket level; syncFilledAt the last
	// refill application.
	syncTokens   float64
	syncFilledAt time.Time
}

// Guard scores peers and decides quarantine. Safe for concurrent use.
type Guard struct {
	mu    sync.Mutex
	cfg   Config
	peers map[string]*peerState

	quarantines int // total quarantine transitions
}

// New creates a guard.
func New(cfg Config) *Guard {
	return &Guard{cfg: cfg.withDefaults(), peers: make(map[string]*peerState)}
}

func (g *Guard) peer(id string) *peerState {
	p, ok := g.peers[id]
	if !ok {
		now := g.cfg.Clock()
		p = &peerState{
			scoredAt: now, offenses: make(map[Offense]int),
			syncTokens: syncBurst, syncFilledAt: now,
		}
		g.peers[id] = p
	}
	return p
}

// decay applies exponential decay to p's score for the time since the
// last application, and releases quarantine once the score falls under
// half the quarantine threshold (hysteresis keeps a peer from flapping
// at the boundary).
func (g *Guard) decay(p *peerState, now time.Time) {
	if dt := now.Sub(p.scoredAt); dt > 0 {
		halves := float64(dt) / float64(g.cfg.DecayHalfLife)
		if halves >= 64 {
			p.score = 0
		} else {
			p.score *= math.Pow(0.5, halves)
		}
		p.scoredAt = now
	}
	if p.quarantined && p.score < quarantineScore/2 {
		p.quarantined = false
	}
}

// Record scores one offense by a peer and reports whether this record
// newly quarantined it.
func (g *Guard) Record(peerID string, off Offense) (quarantinedNow bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.peer(peerID)
	g.decay(p, g.cfg.Clock())
	p.offenses[off]++
	p.score += weights[off]
	if !p.quarantined && p.score >= quarantineScore {
		p.quarantined = true
		g.quarantines++
		return true
	}
	return false
}

// Quarantined reports whether a peer is currently quarantined,
// applying decay first so quarantine ends on its own.
func (g *Guard) Quarantined(peerID string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	p, ok := g.peers[peerID]
	if !ok {
		return false
	}
	g.decay(p, g.cfg.Clock())
	return p.quarantined
}

// AllowSync consumes one sync-request token for the peer and reports
// whether the request is within rate. Callers should Record an
// OffenseSyncFlood when it returns false.
func (g *Guard) AllowSync(peerID string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.peer(peerID)
	now := g.cfg.Clock()
	if dt := now.Sub(p.syncFilledAt); dt > 0 {
		p.syncTokens = min(p.syncTokens+float64(dt)/float64(syncRefillEvery), syncBurst)
		p.syncFilledAt = now
	}
	if p.syncTokens < 1 {
		return false
	}
	p.syncTokens--
	return true
}

// PeerStats is one peer's snapshot.
type PeerStats struct {
	// Peer is the peer ID.
	Peer string
	// Score is the decayed misbehavior score.
	Score float64
	// Quarantined reports the current quarantine state.
	Quarantined bool
	// Offenses counts recorded offenses by kind (undecayed totals).
	Offenses map[Offense]int
}

// Stats is a guard-wide snapshot.
type Stats struct {
	// Peers are per-peer snapshots, sorted by peer ID.
	Peers []PeerStats
	// Quarantines counts quarantine transitions since creation (a peer
	// quarantined, released, and re-quarantined counts twice).
	Quarantines int
}

// Stats snapshots every scored peer.
func (g *Guard) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.cfg.Clock()
	s := Stats{Quarantines: g.quarantines}
	for id, p := range g.peers {
		g.decay(p, now)
		offs := make(map[Offense]int, len(p.offenses))
		for k, v := range p.offenses {
			offs[k] = v
		}
		s.Peers = append(s.Peers, PeerStats{Peer: id, Score: p.score, Quarantined: p.quarantined, Offenses: offs})
	}
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].Peer < s.Peers[j].Peer })
	return s
}

// OffenseTotal sums recorded offenses of one kind across all peers.
func (g *Guard) OffenseTotal(off Offense) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	total := 0
	for _, p := range g.peers {
		total += p.offenses[off]
	}
	return total
}
