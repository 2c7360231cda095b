package contract_test

import (
	"strings"
	"sync/atomic"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/sim"
)

// TestSimCatchesDroppedMaterialisedWrite runs the live simulator with
// every node's materialise step mutated to skip every dataset write:
// the header root (read off the previewed patch) is still the one every
// node computes, so consensus itself notices nothing, and the sim's
// Root() == ImportState(Export()).Root() check on live nodes is what
// must fail.
func TestSimCatchesDroppedMaterialisedWrite(t *testing.T) {
	var dropped atomic.Int64 // every node's message loop materialises
	defer contract.SetDropAdoptedWrite(func(k contract.StateKey) bool {
		if strings.HasPrefix(k.String(), "ds/") {
			dropped.Add(1)
			return true
		}
		return false
	})()
	res, err := sim.Run(sim.Config{Seed: 11, Rounds: 30, NoFaults: true})
	if dropped.Load() == 0 {
		t.Fatal("the seam never fired: no node materialised a dataset write")
	}
	if err == nil {
		t.Fatalf("a dropped materialised write went unnoticed over %d blocks", res.Blocks)
	}
	if !strings.Contains(err.Error(), "root rebuilt from its export") {
		t.Fatalf("caught by another invariant, not the rebuild check: %v", err)
	}
}
