package shard

import (
	"encoding/json"
	"testing"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/ledger"
	"medchain/internal/parexec"
)

// replayCross re-executes every committed block of c from an empty
// state through ModeSerial and through ModeMVCCWave at each worker
// count, requiring the header's state root from serial and the serial
// root and receipt JSON from every wave run. It returns how many
// TxCross transactions the wave scheduler committed on its parallel
// path.
func replayCross(t *testing.T, name string, c *chain.Cluster) int {
	t.Helper()
	serial, serialSt := parexec.NewEngine(parexec.Config{}), contract.NewState()
	workers := []int{1, 4}
	waves := make([]*parexec.Engine, len(workers))
	waveSts := make([]*contract.State, len(workers))
	for i, w := range workers {
		waves[i] = parexec.NewEngine(parexec.Config{Workers: w, Mode: parexec.ModeMVCCWave})
		waveSts[i] = contract.NewState()
	}
	crossClean := 0
	c.Best().Chain().Walk(func(b *ledger.Block) bool {
		h, ts := b.Header.Height, b.Header.Timestamp
		if len(b.Txs) == 0 {
			return true
		}
		want, _, err := serial.ExecuteBlock(serialSt, b.Txs, h, ts)
		if err != nil {
			t.Fatalf("%s block %d: serial: %v", name, h, err)
		}
		if serialSt.Root() != b.Header.StateRoot {
			t.Fatalf("%s block %d: serial replay root differs from the committed header", name, h)
		}
		wantJSON, _ := json.Marshal(want)
		for i, eng := range waves {
			got, bs, err := eng.ExecuteBlock(waveSts[i], b.Txs, h, ts)
			if err != nil {
				t.Fatalf("%s block %d: mvcc-wave w%d: %v", name, h, workers[i], err)
			}
			if waveSts[i].Root() != serialSt.Root() {
				t.Fatalf("%s block %d: mvcc-wave w%d root diverged from serial", name, h, workers[i])
			}
			if gotJSON, _ := json.Marshal(got); string(gotJSON) != string(wantJSON) {
				t.Fatalf("%s block %d: mvcc-wave w%d receipts diverged:\n got %s\nwant %s", name, h, workers[i], gotJSON, wantJSON)
			}
			if i == 0 {
				for _, tx := range b.Txs[:bs.Clean] {
					if tx.Type == ledger.TxCross {
						crossClean++
					}
				}
			}
		}
		return true
	})
	return crossClean
}

// TestCrossFamilyReplayMatchesSerial is the differential test for the
// cross-shard access sets (contract.AccessSetOf's TxCross arms), which
// neither the sim fuzzer (it emits no TxCross) nor live sharded
// clusters (they execute serially) exercise: one committed transfer,
// one expired transfer, a consent grant and an FL contribution go
// through prepare → anchor → apply/expire → resolve, then both member
// chains and the coordination chain are replayed serial vs mvcc-wave.
func TestCrossFamilyReplayMatchesSerial(t *testing.T) {
	s := newTestSystem(t, 2)
	owner := mustKey(t, "owner/cross-replay")
	grantee := mustKey(t, "grantee/cross-replay")
	registerDataset(t, s, 0, owner, "ds-move")
	registerDataset(t, s, 0, owner, "ds-stale")
	registerDataset(t, s, 1, owner, "ds-consent")

	move, _ := json.Marshal(contract.CrossTransferPayload{Dataset: "ds-move"})
	stale, _ := json.Marshal(contract.CrossTransferPayload{Dataset: "ds-stale"})
	grant, _ := json.Marshal(contract.GrantArgs{
		Resource: "data:ds-consent", Grantee: grantee.Address(),
		Actions: []contract.Action{contract.ActionRead},
	})
	fl, _ := json.Marshal(contract.CrossFLPayload{Round: "round-1", Weights: []float64{1, 3}, Samples: 100})
	for _, args := range []contract.CrossPrepareArgs{
		{ID: "x-move", Kind: contract.CrossTransfer, DestShard: ShardID(1), Payload: move},
		// Bootstrap already put the dest chain past height 1: expires.
		{ID: "x-stale", Kind: contract.CrossTransfer, DestShard: ShardID(1), DestExpiry: 1, Payload: stale},
		{ID: "x-grant", Kind: contract.CrossConsent, DestShard: ShardID(1), Payload: grant},
		{ID: "x-fl", Kind: contract.CrossFLRound, DestShard: ShardID(1), Payload: fl},
	} {
		if err := s.SubmitPrepare(0, owner, args); err != nil {
			t.Fatalf("SubmitPrepare %s: %v", args.ID, err)
		}
	}
	if _, err := s.Shard(0).CommitAll(); err != nil {
		t.Fatalf("commit prepares: %v", err)
	}
	s.Pump(30)
	if n := s.PendingTransfers(); n != 0 {
		t.Fatalf("still %d pending; anomalies=%v", n, s.Anomalies())
	}
	src := s.Shard(0).Best().State()
	for id, want := range map[string]contract.CrossStatus{
		"x-move": contract.CrossCommitted, "x-stale": contract.CrossAborted,
		"x-grant": contract.CrossCommitted, "x-fl": contract.CrossCommitted,
	} {
		if prep, ok := src.CrossOutbound(id); !ok || prep.Status != want {
			t.Fatalf("%s = %+v, ok=%v, want %s", id, prep, ok, want)
		}
	}
	noAnomalies(t, s)

	for name, c := range map[string]*chain.Cluster{
		"shard-0": s.Shard(0), "shard-1": s.Shard(1), "coord": s.Coord(),
	} {
		if n := replayCross(t, name, c); n == 0 {
			t.Fatalf("%s: no TxCross committed on the parallel path — the replay is vacuous", name)
		} else {
			t.Logf("%s: %d TxCross on the parallel path", name, n)
		}
	}
}
