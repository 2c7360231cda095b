package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"medchain/internal/p2p"
)

// TestSystemLifecycleRace boots and tears down 4-shard systems in a
// loop, with traffic in flight at Close time. Run under -race it pins
// down the multi-cluster shutdown contract: Close must not deadlock,
// leak timers into closed networks, or race block commits against
// endpoint teardown — the exact hazards a sharded deployment (many
// clusters per process) hits that single-cluster tests never did. Each
// shard's own workload must land whole on that shard while every shard
// commits at once: the parallelism sharding exists for.
func TestSystemLifecycleRace(t *testing.T) {
	if testing.Short() {
		t.Skip("lifecycle soak")
	}
	for iter := 0; iter < 3; iter++ {
		s, err := NewSystem(Config{
			Shards: 4, NodesPerShard: 3, CoordNodes: 3,
			KeySeed:       fmt.Sprintf("lifecycle-%d", iter),
			CommitTimeout: 100 * time.Millisecond,
			// Real latency so delivery timers are pending at Close —
			// the path the timer/WaitGroup shutdown contract protects.
			Network: p2p.Config{BaseLatency: 2 * time.Millisecond, Jitter: 3 * time.Millisecond, Seed: int64(iter)},
		})
		if err != nil {
			t.Fatalf("iter %d: NewSystem: %v", iter, err)
		}
		ids := make([][]string, s.Shards())
		for i := range ids {
			for k := 0; k < 4; k++ {
				id := fmt.Sprintf("ds-life-%d-%d-%d", iter, i, k)
				submitDataset(t, s, i, mustKey(t, "owner/"+id), id)
				ids[i] = append(ids[i], id)
			}
		}
		// Drive commits on every shard concurrently, then Close while
		// the last round's gossip may still be in flight.
		errs := make([]error, s.Shards())
		var wg sync.WaitGroup
		for i := 0; i < s.Shards(); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for r := 0; r < 3 && errs[i] == nil; r++ {
					_, errs[i] = s.Shard(i).CommitAll()
				}
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = s.Coord().CommitAll()
		}()
		wg.Wait()
		for i, shardIDs := range ids {
			if errs[i] != nil {
				t.Fatalf("iter %d shard %d: CommitAll: %v", iter, i, errs[i])
			}
			st := s.Shard(i).Best().State()
			for _, id := range shardIDs {
				if _, ok := st.Dataset(id); !ok {
					t.Fatalf("iter %d: %s never committed on shard %d", iter, id, i)
				}
			}
		}
		s.PumpRound()
		s.Close()
	}
}

// TestSystemCloseIdempotent makes double-Close safe: deferred cleanup
// paths (tests, the facade, error unwinding in NewSystem) may overlap.
func TestSystemCloseIdempotent(t *testing.T) {
	s, err := NewSystem(Config{Shards: 2, NodesPerShard: 3, CoordNodes: 3, KeySeed: "close-twice"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
}
