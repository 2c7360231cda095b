package sim

import (
	"flag"
	"testing"
)

var (
	flagByzShard = flag.Int("sim.byzshard", 0, "Byzantine shard index for the TestSimSharded soak")
	flagCrash    = flag.Int("sim.crash", 0, "crash/recover a whole chain every N rounds in the TestSimSharded soak (0 off)")
	flagReshard  = flag.Bool("sim.reshard", false, "drive an epoch transition mid-soak in TestSimSharded")
)

// TestSimSharded is the sharded soak entry point the nightly sim-soak
// workflow drives: chaos plus the full adversary behavior set confined
// to -sim.byzshard of a 3-shard system, under the shared -sim.seed.
// One sharded round commits every member chain plus the coordination
// chain and a relay pump, so rounds scale as -sim.rounds/8 (minimum
// 12) to keep a soak round-count comparable in cost to the flat
// suites.
func TestSimSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded soak")
	}
	rounds := *flagRounds / 8
	if rounds < 12 {
		rounds = 12
	}
	cfg := ShardedConfig{
		Seed: *flagSeed, Shards: 3, NodesPerShard: 4, Rounds: rounds,
		Adversary: &AdversaryConfig{}, ByzantineShard: *flagByzShard,
		CrashEvery: *flagCrash, Reshard: *flagReshard,
	}
	res, err := RunSharded(cfg)
	if err != nil {
		t.Fatalf("sharded sim seed=%d rounds=%d byz=%d crash=%d reshard=%v failed: %v\nviolations: %v\nfaults: %v\nanomalies: %v",
			*flagSeed, rounds, *flagByzShard, *flagCrash, *flagReshard, err, res.Violations, res.FaultLog, res.Anomalies)
	}
	t.Logf("sharded sim seed=%d rounds=%d byz=%d: transfers=%d committed=%d aborted=%d probes=%d crashes=%d epoch=%d offenses=%v quarantine=%d heights=%v coord=%d faults=%d",
		*flagSeed, rounds, *flagByzShard, res.Transfers, res.Committed, res.Aborted,
		res.ProbesRejected, res.Crashes, res.FinalEpoch, res.AdversaryOffenses, res.QuarantineBlocks, res.ShardHeights, res.CoordHeight, len(res.FaultLog))
}

// TestShardedSimGreen is the no-adversary happy path: a 2-shard system
// under the full cross-shard workload must settle every prepare
// atomically and reject all three proof probes.
func TestShardedSimGreen(t *testing.T) {
	res, err := RunSharded(ShardedConfig{
		Seed: 11, Shards: 2, NodesPerShard: 3, Rounds: 12,
	})
	if err != nil {
		t.Fatalf("RunSharded: %v\nviolations: %v\nanomalies: %v", err, res.Violations, res.Anomalies)
	}
	if res.Transfers == 0 {
		t.Fatal("workload produced no cross-shard prepares")
	}
	if res.Pending != 0 {
		t.Fatalf("%d prepares still pending", res.Pending)
	}
	if res.Aborted == 0 {
		t.Fatalf("short-expiry prepares never aborted (committed=%d)", res.Committed)
	}
	if res.ProbesRejected < 2 {
		t.Fatalf("only %d proof probes rejected, want >= 2", res.ProbesRejected)
	}
	t.Logf("transfers=%d committed=%d aborted=%d probes=%d heights=%v coord=%d",
		res.Transfers, res.Committed, res.Aborted, res.ProbesRejected, res.ShardHeights, res.CoordHeight)
}

// TestShardedSimByzantineContainment confines chaos plus the PR-5
// adversary to shard 0 of a 3-shard system: the other shards and the
// coordination chain must stay live and consistent, every cross-shard
// prepare must still settle atomically, and the adversary must be
// quarantined inside its shard.
func TestShardedSimByzantineContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial sharded soak")
	}
	res, err := RunSharded(ShardedConfig{
		Seed: 23, Shards: 3, NodesPerShard: 4, Rounds: 24,
		Adversary: &AdversaryConfig{}, ByzantineShard: 0,
	})
	if err != nil {
		t.Fatalf("RunSharded: %v\nviolations: %v\nfaults: %v\nanomalies: %v",
			err, res.Violations, res.FaultLog, res.Anomalies)
	}
	if res.Transfers == 0 {
		t.Fatal("workload produced no cross-shard prepares")
	}
	if res.Pending != 0 {
		t.Fatalf("%d prepares still pending after drain", res.Pending)
	}
	offenses := 0
	for _, n := range res.AdversaryOffenses {
		offenses += n
	}
	if offenses == 0 {
		t.Fatal("adversary never acted — containment was not exercised")
	}
	t.Logf("transfers=%d committed=%d aborted=%d offenses=%v quarantine=%d faults=%d",
		res.Transfers, res.Committed, res.Aborted, res.AdversaryOffenses, res.QuarantineBlocks, len(res.FaultLog))
}

// TestShardedSimCrashRecovery runs the disk-backed crash schedule: a
// whole chain (rotating through the member shards and the coordination
// chain) is power-cut mid-2PC every few rounds and recovered from its
// WAL. Every recovery must replay to a bit-identical pre-crash head and
// every in-flight transfer must still settle exactly once.
func TestShardedSimCrashRecovery(t *testing.T) {
	res, err := RunSharded(ShardedConfig{
		Seed: 31, Shards: 3, NodesPerShard: 3, Rounds: 24, CrashEvery: 6,
	})
	if err != nil {
		t.Fatalf("RunSharded: %v\nviolations: %v\nanomalies: %v", err, res.Violations, res.Anomalies)
	}
	if res.Crashes < 2 {
		t.Fatalf("only %d crash/recovery cycles completed, want >= 2", res.Crashes)
	}
	if res.Transfers == 0 || res.Pending != 0 {
		t.Fatalf("transfers=%d pending=%d — crashes must not strand the 2PC", res.Transfers, res.Pending)
	}
	t.Logf("crashes=%d transfers=%d committed=%d aborted=%d heights=%v coord=%d",
		res.Crashes, res.Transfers, res.Committed, res.Aborted, res.ShardHeights, res.CoordHeight)
}

// TestShardedSimResharding grows the deployment mid-run and drives a
// full epoch transition under the live workload: dual-epoch routing
// must keep every dataset findable throughout, and after commit_epoch
// every dataset must live exactly once at its new-epoch home.
func TestShardedSimResharding(t *testing.T) {
	res, err := RunSharded(ShardedConfig{
		Seed: 41, Shards: 2, NodesPerShard: 3, Rounds: 16, Reshard: true,
	})
	if err != nil {
		t.Fatalf("RunSharded: %v\nviolations: %v\nanomalies: %v", err, res.Violations, res.Anomalies)
	}
	if res.FinalEpoch != 2 {
		t.Fatalf("final epoch = %d, want 2 (the mid-run transition committed)", res.FinalEpoch)
	}
	if res.Transfers == 0 || res.Pending != 0 {
		t.Fatalf("transfers=%d pending=%d", res.Transfers, res.Pending)
	}
	t.Logf("epoch=%d transfers=%d committed=%d aborted=%d probes=%d heights=%v",
		res.FinalEpoch, res.Transfers, res.Committed, res.Aborted, res.ProbesRejected, res.ShardHeights)
}

// TestShardedSimReshardingUnderCrashes combines the two tentpole
// schedules: the epoch transition must complete even while whole chains
// crash and recover around it.
func TestShardedSimReshardingUnderCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("combined robustness soak")
	}
	res, err := RunSharded(ShardedConfig{
		Seed: 47, Shards: 2, NodesPerShard: 3, Rounds: 24, Reshard: true, CrashEvery: 8,
	})
	if err != nil {
		t.Fatalf("RunSharded: %v\nviolations: %v\nanomalies: %v", err, res.Violations, res.Anomalies)
	}
	if res.FinalEpoch != 2 || res.Crashes == 0 || res.Pending != 0 {
		t.Fatalf("epoch=%d crashes=%d pending=%d — want a committed transition under crashes",
			res.FinalEpoch, res.Crashes, res.Pending)
	}
}

// TestShardedSimGatewayFailover kills shard 0's active gateway mid-run:
// a standby committee member must take the anchoring lease over within
// the lease bound, and every post-kill transfer out of that shard must
// still settle.
func TestShardedSimGatewayFailover(t *testing.T) {
	res, err := RunSharded(ShardedConfig{
		Seed: 53, Shards: 2, NodesPerShard: 3, Rounds: 24,
		CommitteeSize: 3, GatewayKillRound: 5,
	})
	if err != nil {
		t.Fatalf("RunSharded: %v\nviolations: %v\nanomalies: %v", err, res.Violations, res.Anomalies)
	}
	if res.Transfers == 0 || res.Pending != 0 {
		t.Fatalf("transfers=%d pending=%d — the killed gateway stranded the relay", res.Transfers, res.Pending)
	}
	t.Logf("transfers=%d committed=%d aborted=%d heights=%v coord=%d",
		res.Transfers, res.Committed, res.Aborted, res.ShardHeights, res.CoordHeight)
}
