package contract_test

import (
	"strings"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/sim"
)

// TestShardedSimCatchesSkippedProofVerification is the mutation test
// for the receipt relay's soundness: with on-chain Merkle verification
// disabled on every node (the bug a broken refactor would introduce),
// the sharded sim's forged-proof probe and shadow audit MUST fail the
// run. If this test fails, the sharded sim cannot catch a chain that
// stops verifying cross-shard proofs.
func TestShardedSimCatchesSkippedProofVerification(t *testing.T) {
	defer contract.SetSkipCrossProofVerify()()
	res, err := sim.RunSharded(sim.ShardedConfig{
		Seed: 11, Shards: 2, NodesPerShard: 3, Rounds: 12,
	})
	if err == nil {
		t.Fatal("run with proof verification disabled passed — the harness is blind to unsound applies")
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v, "proof") || strings.Contains(v, "shadow") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no proof/shadow violation recorded; got %v", res.Violations)
	}
}
