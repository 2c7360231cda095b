package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"medchain/internal/p2p"
)

// proposerFor returns the scheduled proposer index for workload round
// r on a fresh round-robin cluster: round r commits height r+1, and
// height h is proposed by validator h mod nodes (PoA/Quorum/PoS-equal
// rotation; PoW rotates the same way in Cluster.proposerIndex).
func proposerFor(round, nodes int) int { return (round + 1) % nodes }

// CrashFollower scripts a mid-run crash of a node that is NOT
// scheduled to propose while it is down, restarting it before the run
// ends. Identical (nodes, rounds, seed) yield identical schedules.
func CrashFollower(nodes, rounds int, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	if rounds < 3 {
		rounds = 3
	}
	crashAt := 1 + rng.Intn(rounds/3+1)
	down := 1 + rng.Intn(2) // rounds spent down
	if down >= nodes-1 {
		down = nodes - 2 // a window shorter than the rotation keeps a pure follower available
	}
	restartAt := crashAt + down
	if restartAt >= rounds {
		restartAt = rounds - 1
	}
	busy := make(map[int]bool)
	for r := crashAt; r <= restartAt; r++ {
		busy[proposerFor(r, nodes)] = true
	}
	victim := rng.Intn(nodes)
	for busy[victim] {
		victim = (victim + 1) % nodes
	}
	return Schedule{
		Name: "crash-follower",
		Seed: seed,
		Steps: []Step{
			{Round: crashAt, Kind: KindCrash, Node: victim},
			{Round: restartAt, Kind: KindRestart, Node: victim},
		},
	}
}

// CrashProposer scripts a crash of exactly the node scheduled to
// propose the target round, forcing Commit to fail over, then restarts
// it. Only meaningful on engines whose seal check allows substitute
// proposers (Quorum, PoW).
func CrashProposer(nodes, rounds int, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	if rounds < 3 {
		rounds = 3
	}
	crashAt := 1 + rng.Intn(rounds-2)
	restartAt := crashAt + 1
	victim := proposerFor(crashAt, nodes)
	return Schedule{
		Name: "crash-proposer",
		Seed: seed,
		Steps: []Step{
			{Round: crashAt, Kind: KindCrash, Node: victim},
			{Round: restartAt, Kind: KindRestart, Node: victim},
		},
	}
}

// LossSpike scripts a transient message-loss window: rate applied at a
// seeded round, cleared one to two rounds later.
func LossSpike(rounds int, rate float64, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	if rounds < 3 {
		rounds = 3
	}
	from := 1 + rng.Intn(rounds/2)
	to := from + 1 + rng.Intn(2)
	if to >= rounds {
		to = rounds - 1
	}
	return Schedule{
		Name: fmt.Sprintf("loss-%.0f%%", rate*100),
		Seed: seed,
		Steps: []Step{
			{Round: from, Kind: KindLoss, Loss: rate},
			{Round: to, Kind: KindLoss, Loss: 0},
		},
	}
}

// LatencySpike scripts a transient link-delay window.
func LatencySpike(rounds int, base, jitter time.Duration, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	if rounds < 3 {
		rounds = 3
	}
	from := 1 + rng.Intn(rounds/2)
	to := from + 1 + rng.Intn(2)
	if to >= rounds {
		to = rounds - 1
	}
	return Schedule{
		Name: "latency-spike",
		Seed: seed,
		Steps: []Step{
			{Round: from, Kind: KindLatency, Latency: base, Jitter: jitter},
			{Round: to, Kind: KindLatency},
		},
	}
}

// RollingPartitions scripts a sequence of single-node isolations: one
// seeded node is cut off, healed one or two rounds later, then another,
// keeping the majority side large enough to commit throughout.
func RollingPartitions(nodes, rounds int, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	sched := Schedule{Name: "rolling-partitions", Seed: seed}
	r := 1
	for r < rounds-1 {
		victim := rng.Intn(nodes)
		heal := r + 1 + rng.Intn(2)
		if heal >= rounds {
			heal = rounds - 1
		}
		sched.Steps = append(sched.Steps,
			Step{Round: r, Kind: KindPartition, Node: -1,
				Partitions: map[p2p.NodeID]int{p2p.NodeID(fmt.Sprintf("node-%d", victim)): 1}},
			Step{Round: heal, Kind: KindHeal, Node: -1},
		)
		r = heal + 1 + rng.Intn(2)
	}
	return sched
}

// SlowNode scripts a processing-delay injection on a seeded node for a
// window of rounds — the lagging-hospital-site scenario.
func SlowNode(nodes, rounds int, delay time.Duration, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	if rounds < 3 {
		rounds = 3
	}
	victim := rng.Intn(nodes)
	from := 1 + rng.Intn(rounds/2)
	to := from + 1 + rng.Intn(2)
	if to >= rounds {
		to = rounds - 1
	}
	return Schedule{
		Name: "slow-node",
		Seed: seed,
		Steps: []Step{
			{Round: from, Kind: KindSlowNode, Node: victim, Delay: delay},
			{Round: to, Kind: KindSlowNode, Node: victim, Delay: 0},
		},
	}
}

// PartitionAndHeal scripts one clean split-and-heal cycle: the seeded
// victim is isolated at an early round and the partition heals before
// the final round.
func PartitionAndHeal(nodes, rounds int, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	if rounds < 3 {
		rounds = 3
	}
	victim := rng.Intn(nodes)
	from := 1 + rng.Intn(rounds/3+1)
	to := from + 1 + rng.Intn(rounds-from-1)
	if to >= rounds {
		to = rounds - 1
	}
	return Schedule{
		Name: "partition-heal",
		Seed: seed,
		Steps: []Step{
			{Round: from, Kind: KindPartition, Node: -1,
				Partitions: map[p2p.NodeID]int{p2p.NodeID(fmt.Sprintf("node-%d", victim)): 1}},
			{Round: to, Kind: KindHeal, Node: -1},
		},
	}
}

// OverloadScenario scripts the fault half of an overload run: a
// sequence of slow-drain windows — a seeded node (often the upcoming
// proposer) is given a processing delay, healed one or two rounds
// later — with no crashes or partitions, so block production never
// stalls outright and commit-latency bounds measured in blocks stay
// meaningful while the mempool is under flood. Identical (nodes,
// rounds, seed) yield identical schedules.
func OverloadScenario(nodes, rounds int, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	sched := Schedule{Name: "overload", Seed: seed}
	if nodes < 3 || rounds < 10 {
		return sched
	}
	end := rounds - 3
	r := 2 + rng.Intn(3)
	for r < end {
		heal := r + 1 + rng.Intn(2)
		if heal >= end {
			heal = end - 1
		}
		if heal <= r {
			break
		}
		victim := rng.Intn(nodes)
		if rng.Float64() < 0.5 {
			victim = proposerFor(r, nodes) // slow-drain proposer: the worst case for queued txs
		}
		delay := time.Duration(50+rng.Intn(200)) * time.Microsecond
		sched.Steps = append(sched.Steps,
			Step{Round: r, Kind: KindSlowNode, Node: victim, Delay: delay},
			Step{Round: heal, Kind: KindSlowNode, Node: victim, Delay: 0},
		)
		r = heal + 3 + rng.Intn(4)
	}
	return sched
}
