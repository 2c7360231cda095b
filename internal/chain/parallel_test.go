package chain

import (
	"encoding/json"
	"fmt"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/parexec"
)

// signedTx builds a deterministic signed transaction (fixed timestamp,
// unlike datasetTx) so the same batch can be replayed on two clusters.
func signedTx(t testing.TB, kp *cryptoutil.KeyPair, nonce uint64, typ ledger.TxType, method string, args any) *ledger.Transaction {
	t.Helper()
	raw, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	tx := &ledger.Transaction{
		Type: typ, Nonce: nonce, Method: method, Args: raw,
		Timestamp: int64(nonce) + 1,
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

// parallelBatch mixes disjoint registrations (parallel-friendly) with
// same-policy grants and sequence-counter requests (forced conflicts).
func parallelBatch(t testing.TB, user *cryptoutil.KeyPair) []*ledger.Transaction {
	t.Helper()
	var txs []*ledger.Transaction
	nonce := uint64(0)
	add := func(typ ledger.TxType, method string, args any) {
		txs = append(txs, signedTx(t, user, nonce, typ, method, args))
		nonce++
	}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("par/ds-%d", i)
		add(ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{
			ID: id, Digest: cryptoutil.Sum([]byte(id)), Schema: "cdf/v1", Records: 10, SiteID: "site",
		})
	}
	for i := 0; i < 3; i++ {
		add(ledger.TxData, "grant", contract.GrantArgs{
			Resource: "data:par/ds-0",
			Grantee:  cryptoutil.NamedAddress(fmt.Sprintf("par-grantee-%d", i)),
			Actions:  []contract.Action{contract.ActionRead},
		})
	}
	add(ledger.TxData, "request_access", contract.RequestAccessArgs{Resource: "data:par/ds-1", Action: contract.ActionRead})
	add(ledger.TxData, "request_access", contract.RequestAccessArgs{Resource: "data:par/ds-2", Action: contract.ActionRead})
	return txs
}

// TestParallelClusterMatchesSerial commits the same signed batch on a
// serial cluster and on an mvcc-wave cluster, and requires identical
// state roots and receipts on every node.
func TestParallelClusterMatchesSerial(t *testing.T) {
	user := userKey(t, "par-user")

	commit := func(seed string, exec parexec.Config) (*Cluster, *ledger.Block) {
		c, err := NewCluster(ClusterConfig{Nodes: 3, KeySeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		for _, n := range c.Nodes() {
			n.SetExec(exec)
		}
		blk := submitAndCommit(t, c, parallelBatch(t, user)...)
		if err := c.VerifyConsistency(); err != nil {
			t.Fatal(err)
		}
		return c, blk
	}

	serialC, serialBlk := commit("par-eq", parexec.Config{})
	parC, parBlk := commit("par-eq-mvcc-wave", parexec.Config{Workers: 4, Mode: parexec.ModeMVCCWave})

	if sr, pr := serialBlk.Header.StateRoot, parBlk.Header.StateRoot; sr != pr {
		t.Fatalf("state root diverged: serial %s, parallel %s", sr.Short(), pr.Short())
	}
	for _, tx := range serialBlk.Txs {
		sRec, ok := serialC.Node(0).Receipt(tx.ID())
		if !ok {
			t.Fatalf("serial receipt missing for %s", tx.ID().Short())
		}
		pRec, ok := parC.Node(0).Receipt(tx.ID())
		if !ok {
			t.Fatalf("parallel receipt missing for %s", tx.ID().Short())
		}
		if sRec.Err != pRec.Err || sRec.GasUsed != pRec.GasUsed || len(sRec.Events) != len(pRec.Events) {
			t.Fatalf("receipt diverged for %s:\n serial %+v\n parallel %+v", tx.ID().Short(), sRec, pRec)
		}
	}
	if serialC.Node(0).GasUsed() != parC.Node(0).GasUsed() {
		t.Fatalf("gas accounting diverged: %d vs %d", serialC.Node(0).GasUsed(), parC.Node(0).GasUsed())
	}

	// The parallel cluster really ran the wave scheduler: every node
	// saw the batch, committed it on the parallel path, and dispatched
	// dependency waves for the forced conflicts.
	for i, n := range parC.Nodes() {
		st := n.ExecStats()
		if st.Txs == 0 || st.Clean != st.Txs || st.Waves == 0 {
			t.Fatalf("node %d did not commit the batch through waves: %+v", i, st)
		}
	}
	if st := serialC.Node(0).ExecStats(); st.Txs == 0 || st.Serial != st.Txs {
		t.Fatalf("serial cluster did not apply in order: %+v", st)
	}
}

// TestMixedModeClusterAgrees runs one cluster whose nodes mix serial
// and mvcc-wave execution at different pool sizes, so consensus itself
// is a cross-engine differential oracle: every committed block's state
// root must be agreed by all four.
func TestMixedModeClusterAgrees(t *testing.T) {
	user := userKey(t, "mix-user")
	c, err := NewCluster(ClusterConfig{Nodes: 4, KeySeed: "par-mix"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.Node(2).SetExec(parexec.Config{Workers: 2, Mode: parexec.ModeMVCCWave})
	c.Node(3).SetExec(parexec.Config{Workers: 8, Mode: parexec.ModeMVCCWave})

	submitAndCommit(t, c, parallelBatch(t, user)...)
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes() {
		st := n.ExecStats()
		if st.Txs == 0 || st.Clean+st.Serial != st.Txs {
			t.Fatalf("node %d stats: %+v", i, st)
		}
		if wave := i >= 2; wave != (st.Waves > 0) {
			t.Fatalf("node %d ran the wrong mode: %+v", i, st)
		}
	}
}

// TestSetExecToggle flips a node between modes mid-chain.
func TestSetExecToggle(t *testing.T) {
	c := newCluster(t, 1)
	user := userKey(t, "toggle-user")

	n := c.Node(0)
	n.SetExec(parexec.Config{Workers: 2, Mode: parexec.ModeMVCCWave})
	submitAndCommit(t, c, signedTx(t, user, 0, ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{
		ID: "tog/a", Digest: cryptoutil.Sum([]byte("a")), SiteID: "s",
	}))
	// The proposer runs the executor once per block: the proposal
	// preview is what the commit materialises.
	if st := n.ExecStats(); st.Blocks != 1 || st.Clean != 1 || st.Waves != 1 {
		t.Fatalf("wave scheduler not used exactly once for the block: %+v", st)
	}

	n.SetExec(parexec.Config{}) // back to serial
	submitAndCommit(t, c, signedTx(t, user, 1, ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{
		ID: "tog/b", Digest: cryptoutil.Sum([]byte("b")), SiteID: "s",
	}))
	if st := n.ExecStats(); st.Blocks != 1 || st.Serial != 1 || st.Clean != 0 || st.Waves != 0 {
		t.Fatalf("serial executor not used exactly once for the block: %+v", st)
	}
	if _, ok := n.State().Dataset("tog/b"); !ok {
		t.Fatal("dataset missing after toggle back to serial")
	}
}
