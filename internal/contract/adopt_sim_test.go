package contract_test

import (
	"strings"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/sim"
)

// TestSimCatchesDroppedMaterialisedWrite runs the live simulator with
// the proposer's materialise step mutated to skip every dataset write:
// the header root (read off the previewed tree) is still the one every
// follower computes, so consensus itself notices nothing, and the sim's
// Root() == ImportState(Export()).Root() check on live nodes is what
// must fail. At the parent commit no preview was ever materialised, so
// neither the seam nor the live check existed.
func TestSimCatchesDroppedMaterialisedWrite(t *testing.T) {
	dropped := 0
	defer contract.SetDropAdoptedWrite(func(k contract.StateKey) bool {
		if strings.HasPrefix(k.String(), "ds/") {
			dropped++
			return true
		}
		return false
	})()
	res, err := sim.Run(sim.Config{Seed: 11, Rounds: 30, NoFaults: true})
	if dropped == 0 {
		t.Fatal("the seam never fired: no proposer materialised a dataset write")
	}
	if err == nil {
		t.Fatalf("a dropped materialised write went unnoticed over %d blocks", res.Blocks)
	}
	if !strings.Contains(err.Error(), "root rebuilt from its export") {
		t.Fatalf("caught by another invariant, not the rebuild check: %v", err)
	}
}
