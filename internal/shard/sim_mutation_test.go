package shard_test

import (
	"strings"
	"testing"

	"medchain/internal/shard"
	"medchain/internal/sim"
)

// The sharded sim runs below flip a mutation seam of this package
// (export_test.go) for the whole run — every System in the process is
// mutated — and the sim's invariants must fail.

// TestShardedSimCatchesSkippedEpochCheck is the resharding mutation
// test: with the router consulting only the pending epoch during the
// transition (skipping the dual-epoch check), unmigrated datasets 404
// and the sim's query-liveness invariant MUST fail the run.
func TestShardedSimCatchesSkippedEpochCheck(t *testing.T) {
	defer shard.SetSkipEpochCheck()()
	res, err := sim.RunSharded(sim.ShardedConfig{
		Seed: 41, Shards: 2, NodesPerShard: 3, Rounds: 16, Reshard: true,
	})
	if err == nil {
		t.Fatal("run with the epoch check skipped passed — the harness is blind to a broken router")
	}
	if !anyContains(res.Violations, "query-liveness") {
		t.Fatalf("no query-liveness violation recorded; got %v", res.Violations)
	}
}

// TestShardedSimCatchesSkippedLeaseExpiry is the failover mutation
// test: with standby takeover suppressed, a killed gateway stalls its
// shard's anchoring forever and the sim MUST fail — either on the lease
// that never moved or on the transfers that never settled.
func TestShardedSimCatchesSkippedLeaseExpiry(t *testing.T) {
	defer shard.SetSkipLeaseExpiry()()
	res, err := sim.RunSharded(sim.ShardedConfig{
		Seed: 53, Shards: 2, NodesPerShard: 3, Rounds: 16,
		CommitteeSize: 3, GatewayKillRound: 5,
	})
	if err == nil {
		t.Fatal("run with lease expiry skipped passed — the harness is blind to a dead gateway")
	}
	if !anyContains(res.Violations, "failover", "pending") {
		t.Fatalf("no failover/pending violation recorded; got %v", res.Violations)
	}
}

// anyContains reports whether some violation names one of the words.
func anyContains(violations []string, words ...string) bool {
	for _, v := range violations {
		for _, w := range words {
			if strings.Contains(v, w) {
				return true
			}
		}
	}
	return false
}
