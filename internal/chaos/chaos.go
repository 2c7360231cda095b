// Package chaos is a seeded, reproducible fault-injection harness for
// chain clusters. A Schedule scripts faults — node crashes/restarts,
// partitions, message-loss and latency spikes, slow nodes — against
// commit rounds; the Orchestrator applies them as the workload driver
// advances and keeps an event log of every injected fault and every
// observed recovery. The injected-fault portion of the log is a pure
// function of the schedule, so the same seed always yields the same
// fault log; observations (recovery times) are recorded alongside but
// excluded from the determinism signature.
//
// This is the paper's global deployment story (Fig. 2) under test:
// hospital sites will crash, partition, and lag, and the chain must
// commit every submitted transaction and converge anyway. The package
// tests drive each scenario on a 4-node cluster, and internal/sim
// draws its fault schedules from Fuzz.
package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"medchain/internal/chain"
	"medchain/internal/p2p"
)

// Kind labels a fault or observation in the event log.
type Kind string

// Fault and observation kinds.
const (
	KindCrash     Kind = "crash"
	KindRestart   Kind = "restart"
	KindPartition Kind = "partition"
	KindHeal      Kind = "heal"
	KindLoss      Kind = "loss"
	KindLatency   Kind = "latency"
	KindSlowNode  Kind = "slow-node"
	KindObserved  Kind = "observed"
)

// Step is one scripted fault, applied before the commit round it names.
type Step struct {
	// Round is the workload round the fault fires before (0-based).
	Round int
	// Kind selects the fault.
	Kind Kind
	// Node targets a node index for crash/restart/slow-node (-1: none).
	Node int
	// Partitions is the group map for KindPartition.
	Partitions map[p2p.NodeID]int
	// Loss is the drop probability for KindLoss.
	Loss float64
	// Latency/Jitter set the link delay for KindLatency.
	Latency, Jitter time.Duration
	// Delay is the per-node processing delay for KindSlowNode (0 heals).
	Delay time.Duration
}

// String renders the step deterministically for the fault log.
func (s Step) String() string {
	switch s.Kind {
	case KindCrash, KindRestart:
		return fmt.Sprintf("round %d: %s node-%d", s.Round, s.Kind, s.Node)
	case KindPartition:
		ids := make([]string, 0, len(s.Partitions))
		for id, g := range s.Partitions {
			ids = append(ids, fmt.Sprintf("%s=%d", id, g))
		}
		sort.Strings(ids)
		return fmt.Sprintf("round %d: partition %v", s.Round, ids)
	case KindHeal:
		return fmt.Sprintf("round %d: heal partitions", s.Round)
	case KindLoss:
		return fmt.Sprintf("round %d: loss %.2f", s.Round, s.Loss)
	case KindLatency:
		return fmt.Sprintf("round %d: latency %v±%v", s.Round, s.Latency, s.Jitter)
	case KindSlowNode:
		return fmt.Sprintf("round %d: slow node-%d by %v", s.Round, s.Node, s.Delay)
	default:
		return fmt.Sprintf("round %d: %s", s.Round, s.Kind)
	}
}

// Schedule is a named, ordered fault script. Generators in this
// package derive schedules from a seed; identical seeds produce
// identical schedules and therefore identical fault logs.
type Schedule struct {
	// Name identifies the scenario (e.g. "crash-proposer").
	Name string
	// Seed is the seed the schedule was generated from (0 if scripted
	// by hand).
	Seed int64
	// Steps fire in order; Steps[i].Round must be non-decreasing.
	Steps []Step
}

// Event is one entry of the orchestrator's log.
type Event struct {
	// Step is the fault for injected events.
	Step Step
	// Injected is true for scripted faults, false for observations.
	Injected bool
	// Detail describes observations (recovery, overflow, errors).
	Detail string
}

// String renders the event.
func (e Event) String() string {
	if e.Injected {
		return e.Step.String()
	}
	return "observed: " + e.Detail
}

// Orchestrator drives a cluster through a Schedule. The workload owner
// calls Advance(round) before each commit round; Finish heals all
// faults, and AwaitRecovery waits for cluster-wide convergence.
type Orchestrator struct {
	cluster *chain.Cluster
	sched   Schedule

	mu      sync.Mutex
	next    int
	events  []Event
	crashed map[int]bool
}

// New attaches a schedule to a cluster.
func New(c *chain.Cluster, sched Schedule) *Orchestrator {
	return &Orchestrator{cluster: c, sched: sched, crashed: make(map[int]bool)}
}

// Schedule returns the orchestrator's script.
func (o *Orchestrator) Schedule() Schedule { return o.sched }

// Advance applies every not-yet-fired step scheduled at or before
// round. The workload driver calls it once per commit round.
func (o *Orchestrator) Advance(round int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.next < len(o.sched.Steps) && o.sched.Steps[o.next].Round <= round {
		o.apply(o.sched.Steps[o.next])
		o.next++
	}
}

// apply injects one fault. Callers hold o.mu.
func (o *Orchestrator) apply(s Step) {
	net := o.cluster.Network()
	switch s.Kind {
	case KindCrash:
		o.cluster.StopNode(s.Node)
		o.crashed[s.Node] = true
	case KindRestart:
		if err := o.cluster.RestartNode(s.Node); err != nil {
			o.events = append(o.events, Event{Detail: fmt.Sprintf("restart node-%d failed: %v", s.Node, err)})
		} else {
			delete(o.crashed, s.Node)
		}
	case KindPartition:
		net.SetPartitions(s.Partitions)
	case KindHeal:
		net.SetPartitions(nil)
	case KindLoss:
		net.SetLossRate(s.Loss)
	case KindLatency:
		net.SetLatency(s.Latency, s.Jitter)
	case KindSlowNode:
		net.SetNodeDelay(p2p.NodeID(fmt.Sprintf("node-%d", s.Node)), s.Delay)
	}
	o.events = append(o.events, Event{Step: s, Injected: true})
}

// Finish heals every standing fault: partitions lifted, loss and
// latency zeroed, slow nodes cleared, crashed nodes restarted (and
// re-synced via the cluster). Steps not yet fired are dropped — the
// scenario is over.
func (o *Orchestrator) Finish() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.next = len(o.sched.Steps)
	net := o.cluster.Network()
	net.SetPartitions(nil)
	net.SetLossRate(0)
	net.SetLatency(0, 0)
	for i := 0; i < o.cluster.Size(); i++ {
		net.SetNodeDelay(p2p.NodeID(fmt.Sprintf("node-%d", i)), 0)
	}
	for i := range o.crashed {
		if err := o.cluster.RestartNode(i); err != nil {
			o.events = append(o.events, Event{Detail: fmt.Sprintf("restart node-%d failed: %v", i, err)})
		}
	}
	o.crashed = make(map[int]bool)
}

// AwaitRecovery waits until every node is running, heights converge,
// and the cluster passes VerifyConsistency. It checks at once, then
// after sleeps of 1 ms doubling to 20 ms, clipped to the deadline, and
// nudges laggards to re-sync on every check. The observed recovery time
// is appended to the event log. Call after Finish.
func (o *Orchestrator) AwaitRecovery(timeout time.Duration) error {
	start := time.Now()
	deadline := start.Add(timeout)
	converged := o.recovered()
	for delay := time.Millisecond; !converged && time.Now().Before(deadline); delay = min(2*delay, 20*time.Millisecond) {
		time.Sleep(min(delay, time.Until(deadline)))
		converged = o.recovered()
	}
	elapsed := time.Since(start)
	o.mu.Lock()
	defer o.mu.Unlock()
	if !converged {
		o.events = append(o.events, Event{Detail: fmt.Sprintf("recovery timed out after %v", timeout)})
		heights := make([]uint64, o.cluster.Size())
		for i, n := range o.cluster.Nodes() {
			heights[i] = n.Height()
		}
		if err := o.cluster.VerifyConsistency(); err != nil {
			return fmt.Errorf("chaos: cluster did not recover (heights %v): %w", heights, err)
		}
		return fmt.Errorf("chaos: cluster did not converge within %v (heights %v)", timeout, heights)
	}
	o.events = append(o.events, Event{Detail: fmt.Sprintf("recovered: %d nodes consistent at height %d in %v",
		o.cluster.Size(), o.cluster.Node(0).Height(), elapsed.Round(time.Millisecond))})
	return nil
}

// recovered nudges laggards to re-sync and reports whether every node
// is running at node 0's height and the cluster is consistent.
func (o *Orchestrator) recovered() bool {
	o.cluster.SyncLagging()
	head := o.cluster.Node(0).Height()
	for _, n := range o.cluster.Nodes() {
		if !n.Running() || n.Height() != head {
			return false
		}
	}
	return o.cluster.VerifyConsistency() == nil
}

// Events returns the full log: injected faults interleaved with
// observations, in occurrence order.
func (o *Orchestrator) Events() []Event {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Event(nil), o.events...)
}

// FaultLog returns only the injected faults, rendered — the
// deterministic reproducibility signature of a run: same schedule
// (same seed), same fault log, regardless of timing-dependent
// observations.
func (o *Orchestrator) FaultLog() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var log []string
	for _, e := range o.events {
		if e.Injected {
			log = append(log, e.Step.String())
		}
	}
	return log
}
