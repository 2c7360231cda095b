package shard

import (
	"encoding/json"
	"fmt"
	"testing"

	"medchain/internal/contract"
)

// crossTraffic submits one transfer from src to dest and commits the
// prepare — the background load that keeps the coordination chain
// advancing (lease expiry is measured in coord blocks).
func crossTraffic(t *testing.T, s *System, src, dest, n int) {
	t.Helper()
	owner := mustKey(t, fmt.Sprintf("owner/traffic-%s-%d", t.Name(), n))
	id := fmt.Sprintf("ds-traffic-%d", n)
	registerDataset(t, s, src, owner, id)
	payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: id})
	if err := s.SubmitPrepare(src, owner, contract.CrossPrepareArgs{
		ID: "xfer-traffic-" + fmt.Sprint(n), Kind: contract.CrossTransfer,
		DestShard: ShardID(dest), Payload: payload,
	}); err != nil {
		t.Fatalf("SubmitPrepare traffic %d: %v", n, err)
	}
	if _, err := s.Shard(src).CommitAll(); err != nil {
		t.Fatalf("commit traffic %d: %v", n, err)
	}
}

// TestGatewayFailoverCommittee kills shard 0's active gateway with and
// without standbys. Without one (committee of 1, the control) the lease
// stays on the dead member and shard 0's transfer stalls. With one, a
// standby takes the lease over only once it expired — more than
// LeaseBlocks coordination blocks after the dead holder's last sign of
// life — and shard 0's transfers settle again.
func TestGatewayFailoverCommittee(t *testing.T) {
	const leaseBlocks = 3
	for _, size := range []int{1, 3} {
		t.Run(fmt.Sprintf("committee-%d", size), func(t *testing.T) {
			s, err := NewSystem(Config{
				Shards: 2, NodesPerShard: 3, CoordNodes: 3,
				KeySeed: "shardtest/" + t.Name(), CommitteeSize: size, LeaseBlocks: leaseBlocks,
			})
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			t.Cleanup(s.Close)

			if got := len(s.CommitteeAddresses(0)); got != size {
				t.Fatalf("committee size = %d, want %d", got, size)
			}
			initial := s.ActiveGateway(0)
			if initial != s.GatewayAddress(0) {
				t.Fatalf("initial lease holder = %s, want committee member 0", initial.Short())
			}
			lease := func() contract.ShardInfo {
				info, ok := s.Coord().Best().State().ShardInfoOf(ShardID(0))
				if !ok {
					t.Fatal("shard 0 missing from the coordination directory")
				}
				return info
			}
			atKill := lease()

			s.KillGateway(0)
			// Shard 0's transfer cannot settle until a standby takes over —
			// its prepares need shard-0 anchors. Transfers from shard 1 keep
			// coord blocks flowing so the lease clock advances.
			crossTraffic(t, s, 0, 1, 0)
			for round := 0; round < 12 && s.ActiveGateway(0) == initial; round++ {
				crossTraffic(t, s, 1, 0, 100+round)
				s.PumpRound()
			}
			after := s.ActiveGateway(0)
			if size == 1 {
				if after != initial {
					t.Fatalf("lease moved to %s with no standby on the committee", after.Short())
				}
				if s.PendingTransfers() == 0 {
					t.Fatal("shard 0's transfer settled with its only gateway dead")
				}
				return
			}
			if after == initial {
				t.Fatalf("lease holder unchanged (%s) — no committee takeover happened", after.Short())
			}
			found := false
			for _, addr := range s.CommitteeAddresses(0) {
				if addr == after {
					found = true
				}
			}
			if !found {
				t.Fatalf("new lease holder %s is not a committee member", after.Short())
			}
			lastAlive := max(atKill.LastAnchor, atKill.LeaseHeight)
			if took := lease().LeaseHeight; took <= lastAlive+leaseBlocks {
				t.Fatalf("standby took the lease at coord height %d, inside the %d-block lease from %d",
					took, leaseBlocks, lastAlive)
			}
			// With the standby anchoring, the whole backlog (including shard
			// 0's own transfer) drains.
			rounds := s.Pump(30)
			if n := s.PendingTransfers(); n != 0 {
				t.Fatalf("still %d pending after %d rounds post-takeover; anomalies=%v", n, rounds, s.Anomalies())
			}
			if err := s.VerifyConsistency(); err != nil {
				t.Fatalf("consistency: %v", err)
			}
		})
	}
}

// TestSkipLeaseExpiryKnobStallsAnchoring proves the failover mutation
// seam: with standby takeovers suppressed, a dead gateway stalls its
// shard's anchoring indefinitely and the shard's transfers never
// settle — the exact signal the sim's liveness invariant trips on.
func TestSkipLeaseExpiryKnobStallsAnchoring(t *testing.T) {
	s, err := NewSystem(Config{
		Shards: 2, NodesPerShard: 3, CoordNodes: 3,
		KeySeed: "shardtest/" + t.Name(), CommitteeSize: 3, LeaseBlocks: 3,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(s.Close)
	restore := SetSkipLeaseExpiry()
	defer restore()

	s.KillGateway(0)
	crossTraffic(t, s, 0, 1, 0)
	for round := 0; round < 12; round++ {
		crossTraffic(t, s, 1, 0, 100+round)
		s.PumpRound()
	}
	if s.PendingTransfers() == 0 {
		t.Fatal("transfers settled despite the skip-lease-expiry seam — takeover was not suppressed")
	}
	if got := s.ActiveGateway(0); got != s.GatewayAddress(0) {
		t.Fatalf("lease moved to %s with takeovers suppressed", got.Short())
	}

	// Removing the seam (the fix) lets the standby take over and the
	// backlog drain.
	restore()
	rounds := s.Pump(30)
	if n := s.PendingTransfers(); n != 0 {
		t.Fatalf("backlog did not drain after re-enabling takeover; pending=%d after %d rounds, anomalies=%v",
			n, rounds, s.Anomalies())
	}
}
