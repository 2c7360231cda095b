package contract_test

import (
	"strings"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/sim"
)

// TestSimCatchesUndeclaredRegistryRead runs the live simulator with
// every invocation's footprint missing its read of the registry: the
// wave scheduler then runs each invocation on a snapshot without the
// datasets its HOST registry.datasets call lists, the committed header
// carries the root that leaves, and the sim's serial shadow replay is
// what must fail.
func TestSimCatchesUndeclaredRegistryRead(t *testing.T) {
	defer contract.SetSkipRegistryRead()()
	res, err := sim.Run(sim.Config{Seed: 11, Rounds: 30, NoFaults: true})
	if err == nil {
		t.Fatalf("an undeclared registry read went unnoticed over %d blocks", res.Blocks)
	}
	if !strings.Contains(err.Error(), "state-root: serial replay") {
		t.Fatalf("caught by another invariant, not the serial replay: %v", err)
	}
}
