// Package p2p provides the message-passing substrate that connects
// medical blockchain nodes (paper Fig. 2). Two transports implement the
// same Endpoint interface:
//
//   - Network: an in-process simulated network with configurable
//     latency, jitter, loss, bandwidth, and partitions. It is seeded
//     and reproducible, and it accounts every byte moved — the E1
//     (scalability) and E4 (data-movement) experiments are built on
//     these counters.
//   - TCPNetwork: a real TCP transport (net package) with the same
//     message framing, used by integration tests to show the stack
//     works over actual sockets.
//
// Messages are fire-and-forget datagrams with a topic; reliability
// above loss is the concern of the protocols built on top (consensus
// retries, oracle retries).
package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// NodeID identifies a network participant.
type NodeID string

// Broadcast is the pseudo-destination meaning "all other nodes".
const Broadcast NodeID = ""

// Message is one datagram on the wire.
type Message struct {
	// From is the sender.
	From NodeID `json:"from"`
	// To is the recipient; Broadcast means all nodes except the sender.
	To NodeID `json:"to"`
	// Topic routes the message to a protocol handler.
	Topic string `json:"topic"`
	// Payload is the opaque protocol body.
	Payload []byte `json:"payload"`
}

// size returns the accounted wire size of the message.
func (m Message) size() int {
	return len(m.Payload) + len(m.Topic) + len(m.From) + len(m.To) + 16
}

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// ID returns the node's identity.
	ID() NodeID
	// Send delivers a message to one peer.
	Send(to NodeID, topic string, payload []byte) error
	// BroadcastMsg delivers a message to every other node.
	BroadcastMsg(topic string, payload []byte) error
	// Inbox is the stream of delivered messages. It is closed when the
	// endpoint closes.
	Inbox() <-chan Message
	// Close detaches the endpoint.
	Close() error
}

// Errors returned by network operations.
var (
	ErrClosed      = errors.New("p2p: network closed")
	ErrUnknownPeer = errors.New("p2p: unknown peer")
)

// Config controls the simulated link model.
type Config struct {
	// BaseLatency is the one-way delivery delay applied to every
	// message. Zero means synchronous delivery.
	BaseLatency time.Duration
	// Jitter is the maximum extra random delay added per message.
	Jitter time.Duration
	// LossRate is the probability in [0,1) that a message is dropped.
	LossRate float64
	// Seed seeds the loss/jitter RNG for reproducibility.
	Seed int64
}

// inboxSize is every endpoint's buffer, simulated and TCP alike: room
// for a burst of gossip while the node applies a block, so a message
// beyond it means a stalled consumer and is dropped rather than
// blocking its sender (the simulated network counts it as overflow).
const inboxSize = 4096

// Stats are cumulative network counters.
type Stats struct {
	// MessagesSent counts send attempts (before loss).
	MessagesSent int64
	// MessagesDelivered counts messages placed in an inbox.
	MessagesDelivered int64
	// MessagesDropped counts losses (random, partition, or overflow).
	MessagesDropped int64
	// MessagesOverflowed counts the subset of MessagesDropped lost to a
	// full inbox — a slow or stalled consumer, not the link. Separating
	// it from loss/partition drops tells a struggling node from a lossy
	// network.
	MessagesOverflowed int64
	// BytesSent is the accounted wire bytes of all send attempts,
	// counting one copy per recipient for broadcasts.
	BytesSent int64
	// BytesByTopic breaks BytesSent down per topic.
	BytesByTopic map[string]int64
	// MessagesQuarantined counts messages receivers discarded at ingress
	// because the sender was quarantined by their peer guard. These are
	// delivered by the link (they count in MessagesDelivered) and then
	// dropped by the application layer.
	MessagesQuarantined int64
	// QuarantinedByNode breaks MessagesQuarantined down per discarding
	// receiver.
	QuarantinedByNode map[NodeID]int64
}

// Network is the in-process simulated network.
type Network struct {
	mu         sync.Mutex
	cfg        Config
	rng        *rand.Rand
	nodes      map[NodeID]*simEndpoint
	order      []NodeID // registration order, for deterministic broadcast fan-out
	partitions map[NodeID]int
	nodeDelay  map[NodeID]time.Duration // extra per-node delivery delay (slow-node injection)
	stats      Stats
	timers     sync.WaitGroup
	closed     bool
}

// NewNetwork creates a simulated network with the given link model.
func NewNetwork(cfg Config) *Network {
	return &Network{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		nodes:      make(map[NodeID]*simEndpoint),
		partitions: make(map[NodeID]int),
		nodeDelay:  make(map[NodeID]time.Duration),
	}
}

// Join attaches a new endpoint with the given ID. Joining an existing
// ID returns an error.
func (n *Network) Join(id NodeID) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("p2p: node %q already joined", id)
	}
	ep := &simEndpoint{
		id:    id,
		net:   n,
		inbox: make(chan Message, inboxSize),
	}
	n.nodes[id] = ep
	n.order = append(n.order, id)
	return ep, nil
}

// SetPartitions assigns nodes to partition groups; messages between
// different groups are dropped. Nodes absent from the map are in group
// 0. Passing nil heals all partitions.
func (n *Network) SetPartitions(groups map[NodeID]int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions = make(map[NodeID]int)
	for id, g := range groups {
		n.partitions[id] = g
	}
}

// SetLossRate changes the random-loss probability at runtime (chaos
// injection of a degraded link); values outside [0,1) are clamped.
func (n *Network) SetLossRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate >= 1 {
		rate = 0.999
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.LossRate = rate
}

// SetLatency changes the base delay and jitter at runtime (chaos
// injection of a latency spike).
func (n *Network) SetLatency(base, jitter time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.BaseLatency = base
	n.cfg.Jitter = jitter
}

// SetNodeDelay adds extra delivery delay to every message sent to or
// from the node (slow-node injection); 0 clears it.
func (n *Network) SetNodeDelay(id NodeID, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d <= 0 {
		delete(n.nodeDelay, id)
		return
	}
	n.nodeDelay[id] = d
}

// Stats returns a snapshot of the cumulative counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.stats
	out.BytesByTopic = make(map[string]int64, len(n.stats.BytesByTopic))
	for k, v := range n.stats.BytesByTopic {
		out.BytesByTopic[k] = v
	}
	out.QuarantinedByNode = make(map[NodeID]int64, len(n.stats.QuarantinedByNode))
	for k, v := range n.stats.QuarantinedByNode {
		out.QuarantinedByNode[k] = v
	}
	return out
}

// NoteQuarantined records that receiver discarded a delivered message
// at ingress because its guard has the sender quarantined. Called by
// the chain layer; the network only aggregates the counter.
func (n *Network) NoteQuarantined(receiver NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.MessagesQuarantined++
	if n.stats.QuarantinedByNode == nil {
		n.stats.QuarantinedByNode = make(map[NodeID]int64)
	}
	n.stats.QuarantinedByNode[receiver]++
}

// ResetStats zeroes the counters (between experiment phases).
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
}

// NumNodes returns the number of attached endpoints.
func (n *Network) NumNodes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.nodes)
}

// Close shuts the network down, waits for in-flight deliveries, and
// closes all inboxes.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*simEndpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.mu.Unlock()

	n.timers.Wait()
	for _, ep := range eps {
		ep.closeInbox()
	}
	return nil
}

// send routes one message. Called with n.mu NOT held.
func (n *Network) send(msg Message) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	var targets []*simEndpoint
	if msg.To == Broadcast {
		for _, id := range n.order {
			if id == msg.From {
				continue
			}
			targets = append(targets, n.nodes[id])
		}
	} else {
		ep, ok := n.nodes[msg.To]
		if !ok {
			n.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrUnknownPeer, msg.To)
		}
		targets = append(targets, ep)
	}

	size := int64(msg.size())
	fromGroup := n.partitions[msg.From]
	type delivery struct {
		ep    *simEndpoint
		delay time.Duration
	}
	var deliveries []delivery
	for _, ep := range targets {
		n.stats.MessagesSent++
		n.stats.BytesSent += size
		if n.stats.BytesByTopic == nil {
			n.stats.BytesByTopic = make(map[string]int64)
		}
		n.stats.BytesByTopic[msg.Topic] += size
		if n.partitions[ep.id] != fromGroup {
			n.stats.MessagesDropped++
			continue
		}
		if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
			n.stats.MessagesDropped++
			continue
		}
		delay := n.cfg.BaseLatency
		if n.cfg.Jitter > 0 {
			delay += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
		}
		delay += n.nodeDelay[msg.From] + n.nodeDelay[ep.id]
		deliveries = append(deliveries, delivery{ep: ep, delay: delay})
	}
	// Register delayed deliveries on the timer group while still holding
	// n.mu: Close sets closed under the same lock before it calls
	// timers.Wait(), so every Add strictly precedes a Wait that could
	// observe it — Add after unlocking would race the Wait (the
	// WaitGroup misuse multi-cluster teardown with traffic in flight
	// hits).
	delayed := 0
	for _, d := range deliveries {
		if d.delay > 0 {
			delayed++
		}
	}
	n.timers.Add(delayed)
	n.mu.Unlock()

	for _, d := range deliveries {
		if d.delay <= 0 {
			n.deliver(d.ep, msg)
			continue
		}
		ep := d.ep
		time.AfterFunc(d.delay, func() {
			defer n.timers.Done()
			n.deliver(ep, msg)
		})
	}
	return nil
}

func (n *Network) deliver(ep *simEndpoint, msg Message) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	select {
	case ep.inbox <- msg:
		n.mu.Lock()
		n.stats.MessagesDelivered++
		n.mu.Unlock()
	default:
		n.mu.Lock()
		n.stats.MessagesDropped++
		n.stats.MessagesOverflowed++
		n.mu.Unlock()
	}
}

// detach removes an endpoint from the routing tables (crash/leave) so
// the same ID may Join again later. Closing the inbox happens outside
// the network lock: deliver locks ep.mu before n.mu, so nesting them
// here in the opposite order would deadlock.
func (n *Network) detach(id NodeID) {
	n.mu.Lock()
	ep, ok := n.nodes[id]
	if ok {
		delete(n.nodes, id)
		for i, o := range n.order {
			if o == id {
				n.order = append(n.order[:i], n.order[i+1:]...)
				break
			}
		}
	}
	n.mu.Unlock()
	if ok {
		ep.closeInbox()
	}
}

// simEndpoint is an attachment to a simulated Network.
type simEndpoint struct {
	id     NodeID
	net    *Network
	mu     sync.Mutex
	inbox  chan Message
	closed bool
}

var _ Endpoint = (*simEndpoint)(nil)

func (e *simEndpoint) ID() NodeID { return e.id }

func (e *simEndpoint) Send(to NodeID, topic string, payload []byte) error {
	if to == Broadcast {
		return errors.New("p2p: Send requires a concrete peer; use BroadcastMsg")
	}
	return e.net.send(Message{From: e.id, To: to, Topic: topic, Payload: payload})
}

func (e *simEndpoint) BroadcastMsg(topic string, payload []byte) error {
	return e.net.send(Message{From: e.id, To: Broadcast, Topic: topic, Payload: payload})
}

func (e *simEndpoint) Inbox() <-chan Message { return e.inbox }

// Close detaches the endpoint from the network: broadcasts stop
// reaching it and its NodeID becomes free to Join again — the crash
// half of a node's crash/recovery lifecycle.
func (e *simEndpoint) Close() error {
	e.net.detach(e.id)
	return nil
}

func (e *simEndpoint) closeInbox() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	close(e.inbox)
}
