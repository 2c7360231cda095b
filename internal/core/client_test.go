package core

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/shard"
)

// TestRefusedSubmitDoesNotStrandAccount: every node's pool is full, so
// the edge refuses a normal call everywhere; once the pools drain the
// same account's next call commits. (With a nonce counted at build time
// the refused call left the counter ahead of the chain, every later
// transaction was gap-held, and CommitAll ran out of retries.)
func TestRefusedSubmitDoesNotStrandAccount(t *testing.T) {
	// A pool of 3 admits bulk traffic until it is full: at 2/3 it is
	// still under the shed threshold, and a full pool is saturated.
	const capacity = 3
	c, err := chain.NewCluster(chain.ClusterConfig{
		Nodes: 3, KeySeed: "test/" + t.Name(),
		Mempool: &chain.MempoolConfig{Capacity: capacity},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	accts := newAccounts("test/" + t.Name())
	filler, err := accts.Acquire("filler")
	if err != nil {
		t.Fatal(err)
	}
	researcher, err := accts.Acquire("researcher")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < capacity; i++ {
		if _, err := submit(c, nil, call{from: filler, typ: ledger.TxData, method: "register_dataset",
			args: contract.RegisterDatasetArgs{ID: fmt.Sprintf("fill-%d", i), SiteID: "site-0"}}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitPooled(capacity, 10*time.Second) {
		t.Fatal("gossip never filled every pool")
	}
	tool := func(id string) call {
		return call{from: researcher, typ: ledger.TxAnalytics, method: "register_tool",
			args: contract.RegisterToolArgs{ID: id, Digest: cryptoutil.Sum([]byte(id))}}
	}
	if _, err := transact(c, nil, tool("refused")); !errors.Is(err, chain.ErrMempoolFull) {
		t.Fatalf("call into full pools: err=%v, want ErrMempoolFull", err)
	}
	if _, err := c.CommitAll(); err != nil {
		t.Fatal(err)
	}
	receipts, err := transact(c, nil, tool("after"))
	if err != nil {
		t.Fatalf("call after the pools drained: %v", err)
	}
	if !receipts[0].OK() {
		t.Fatalf("call after the pools drained failed: %s", receipts[0].Err)
	}
}

// TestPlatformSurvivesNodeZero: with node 0 of a 4-site platform
// stopped the quorum is intact, so a query and an HIE fetch still
// answer — receipts, registry and gas come from the best running node —
// and they answer again once node 0 is back.
func TestPlatformSurvivesNodeZero(t *testing.T) {
	p, researcher := testPlatform(t, 4, 10)
	ask := func(when string) {
		t.Helper()
		res, err := p.Query(researcher, "count patients with diabetes")
		if err != nil {
			t.Fatalf("query %s: %v", when, err)
		}
		if res.SitesSucceeded != 4 || res.GasPerNode == 0 {
			t.Fatalf("query %s: %+v", when, res)
		}
		recs, err := p.FetchRecords(researcher, "site-1/emr", "", false)
		if err != nil {
			t.Fatalf("fetch %s: %v", when, err)
		}
		if len(recs) != 10 {
			t.Fatalf("fetch %s: %d records", when, len(recs))
		}
		if tampered := p.VerifyAllSites(); len(tampered) != 0 {
			t.Fatalf("sites reported tampered %s: %v", when, tampered)
		}
	}
	p.Cluster().StopNode(0)
	ask("with node 0 stopped")
	if err := p.Cluster().RestartNode(0); err != nil {
		t.Fatal(err)
	}
	ask("after node 0 restarted")
	if err := p.Cluster().VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// shardedTestPlatform boots a 3-shard memory-only deployment.
func shardedTestPlatform(t *testing.T) *ShardedPlatform {
	t.Helper()
	sp, err := NewShardedPlatform(shard.Config{
		Shards: 3, NodesPerShard: 3, CoordNodes: 3, KeySeed: "test/" + t.Name(),
	})
	if err != nil {
		t.Fatalf("NewShardedPlatform: %v", err)
	}
	t.Cleanup(sp.Close)
	return sp
}

// liveCopies counts the shards holding a non-tombstoned copy of a
// dataset, reading every shard (not the router).
func liveCopies(sp *ShardedPlatform, id string) (copies, at int) {
	for i := 0; i < sp.System().Shards(); i++ {
		n := sp.System().Shard(i).Best()
		if ds, ok := n.State().Dataset(id); ok && ds.MovedTo == "" {
			copies++
			at = i
		}
	}
	return copies, at
}

// TestShardedRoutesByWhereTheDatasetLives: transfers and consent grants
// follow the dataset, not its hash home. A→B→C settles with exactly one
// live copy (the second hop used to prepare on the tombstoned source),
// a transfer back home is accepted (it used to be refused as "already
// lives on shard"), and a consent granted after a move lands on the
// shard that holds the dataset (it used to join the stale policy beside
// the home shard's tombstone).
func TestShardedRoutesByWhereTheDatasetLives(t *testing.T) {
	const dsID = "cohort/roaming"
	// boot registers the dataset on its hash home a and returns a mover
	// that transfers it, settles, and checks where it ended up.
	boot := func(t *testing.T) (sp *ShardedPlatform, owner *Account, a int, move func(dest int)) {
		sp = shardedTestPlatform(t)
		owner, err := sp.Acquire("hospital-a")
		if err != nil {
			t.Fatal(err)
		}
		a, err = sp.RegisterDataset(owner, contract.RegisterDatasetArgs{
			ID: dsID, Schema: "fhir.r4", Records: 9, SiteID: "site-a",
		})
		if err != nil {
			t.Fatalf("RegisterDataset: %v", err)
		}
		return sp, owner, a, func(dest int) {
			t.Helper()
			id, err := sp.TransferDataset(owner, dsID, dest)
			if err != nil {
				t.Fatalf("TransferDataset → shard %d: %v", dest, err)
			}
			if pending := sp.Settle(20); pending != 0 {
				t.Fatalf("transfer %s → shard %d: %d unsettled; anomalies=%v", id, dest, pending, sp.System().Anomalies())
			}
			if copies, at := liveCopies(sp, dsID); copies != 1 || at != dest {
				t.Fatalf("after transfer %s → shard %d: %d live copies, last on shard %d", id, dest, copies, at)
			}
			if _, at, ok := sp.Dataset(dsID); !ok || at != dest {
				t.Fatalf("Dataset lookup after → shard %d: shard %d ok=%v", dest, at, ok)
			}
		}
	}

	t.Run("A→B→C", func(t *testing.T) {
		_, _, a, move := boot(t)
		move((a + 1) % 3)
		move((a + 2) % 3)
	})
	t.Run("B→A", func(t *testing.T) {
		_, _, a, move := boot(t)
		move((a + 1) % 3)
		move(a)
		move((a + 2) % 3) // and away again, over the overwritten tombstone
	})
	t.Run("consent after a move", func(t *testing.T) {
		sp, owner, a, move := boot(t)
		c := (a + 2) % 3
		move(c)
		grantee, err := sp.Acquire("researcher")
		if err != nil {
			t.Fatal(err)
		}
		// Authored on the hash home, applied where the dataset lives.
		if _, err := sp.GrantConsent(owner, a, contract.GrantArgs{
			Resource: "data:" + dsID, Grantee: grantee.Address(),
			Actions: []contract.Action{contract.ActionRead}, Purpose: "study",
		}); err != nil {
			t.Fatalf("GrantConsent: %v", err)
		}
		if pending := sp.Settle(20); pending != 0 {
			t.Fatalf("%d grants unsettled; anomalies=%v", pending, sp.System().Anomalies())
		}
		for i := 0; i < 3; i++ {
			pol, ok := sp.System().Shard(i).Best().State().PolicyOf("data:" + dsID)
			granted := ok && pol.Check(grantee.Address(), contract.ActionRead, "study", 0, false).Allowed
			if granted != (i == c) {
				t.Fatalf("shard %d: grant present=%v, dataset lives on shard %d", i, granted, c)
			}
		}
	})
}

// txSequence lists every committed transaction of a cluster. With
// exact set the lines are in chain order and carry the transaction ID,
// which covers type, sender, nonce, contract, method, arguments,
// timestamp and expiry: two runs that print the same lines signed the
// same bytes. A sharded deployment's relay stamps its transactions with
// the height it saw and packs blocks as gossip happens to arrive, so
// there the lines are per sender in nonce order and stop at the method.
func txSequence(t *testing.T, name string, c *chain.Cluster, exact bool) string {
	t.Helper()
	var lines []string
	n := c.Best()
	for h := uint64(1); h <= n.Height(); h++ {
		blk, err := n.Chain().BlockAt(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range blk.Txs {
			line := fmt.Sprintf("%s from=%s nonce=%03d %s/%s", name, tx.From.Short(), tx.Nonce, tx.Type, tx.Method)
			if exact {
				line = fmt.Sprintf("%s block=%d %s/%s from=%s nonce=%d ts=%d id=%s",
					name, h, tx.Type, tx.Method, tx.From.Short(), tx.Nonce, tx.Timestamp, tx.ID().Short())
			}
			lines = append(lines, line)
		}
	}
	if !exact {
		sort.Strings(lines)
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestTransactionBytesUnchanged holds the transactions both facades
// sign — every query path of Platform, and ShardedPlatform's register /
// transfer / federated contribution with the relay's and the
// coordinator's traffic behind them — to the sequence recorded at 56c8a1c, before the client
// layer replaced buildTx's counter: same types, nonces, arguments and
// timestamps, so no on-disk or on-wire format moved.
func TestTransactionBytesUnchanged(t *testing.T) {
	p, err := NewPlatform(Config{Sites: 3, PatientsPerSite: 20, Seed: 1, KeySeed: "facade-test", Index: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	researcher, err := p.Acquire("dr-chen")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.GrantAll(researcher, []contract.Action{contract.ActionRead, contract.ActionExecute}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query(researcher, "count patients with diabetes aged 50-70"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.RunSQL(researcher, "SELECT count(*) FROM records WHERE has_diabetes = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.FetchRecords(researcher, "site-1/emr", "", true); err != nil {
		t.Fatal(err)
	}
	if _, err := p.QueryIndexed(researcher, "fetch records of women with diabetes"); err != nil {
		t.Fatal(err)
	}
	if err := p.RefreshDataset("site-2"); err != nil {
		t.Fatal(err)
	}
	got := txSequence(t, "platform", p.Cluster(), true)

	sp, err := NewShardedPlatform(shard.Config{Shards: 2, NodesPerShard: 3, CoordNodes: 3, KeySeed: "facade-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	owner, err := sp.Acquire("hospital-a")
	if err != nil {
		t.Fatal(err)
	}
	const dsID = "cohort/alpha"
	home, err := sp.RegisterDataset(owner, contract.RegisterDatasetArgs{ID: dsID, Schema: "fhir.r4", Records: 42, SiteID: "site-a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.TransferDataset(owner, dsID, 1-home); err != nil {
		t.Fatal(err)
	}
	if pending := sp.Settle(20); pending != 0 {
		t.Fatalf("%d transfers unsettled", pending)
	}
	if _, err := sp.ContributeFL(owner, home, "round-1", []float64{0.5, -1}, 10); err != nil {
		t.Fatal(err)
	}
	if pending := sp.Settle(20); pending != 0 {
		t.Fatalf("%d contributions unsettled", pending)
	}
	got += txSequence(t, "coord", sp.System().Coord(), false)
	for i := 0; i < sp.System().Shards(); i++ {
		got += txSequence(t, shard.ShardID(i), sp.System().Shard(i), false)
	}

	const golden = "testdata/txsequence.golden"
	if *updateTxSequence {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("transaction sequence differs from %s\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

var updateTxSequence = flag.Bool("update-txsequence", false, "re-record testdata/txsequence.golden (a deliberate change of what the facades sign)")

// settleGoroutines waits for the goroutine count to fall back to base
// and fails with a full stack dump if it does not.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if left := runtime.NumGoroutine(); left > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after %s, %d before:\n%s", left, what, base, buf[:runtime.Stack(buf, true)])
	}
}

// checkNonceRun fails unless the transactions all committed OK on c and
// their nonces are exactly first, first+1, … with none used twice or
// skipped.
func checkNonceRun(t *testing.T, c *chain.Cluster, first uint64, txs []*ledger.Transaction) {
	t.Helper()
	n := c.Best()
	seen := make(map[uint64]bool, len(txs))
	for _, tx := range txs {
		if r, ok := n.Receipt(tx.ID()); !ok || !r.OK() {
			t.Fatalf("tx %s nonce %d: committed=%v receipt=%+v", tx.ID().Short(), tx.Nonce, ok, r)
		}
		if seen[tx.Nonce] || tx.Nonce < first || tx.Nonce >= first+uint64(len(txs)) {
			t.Fatalf("nonce %d reused or outside [%d,%d)", tx.Nonce, first, first+uint64(len(txs)))
		}
		seen[tx.Nonce] = true
	}
}

// TestSharedAccountConcurrentSubmit: goroutines sharing one Account push
// transactions through the client layer while another goroutine commits
// blocks under them — every transaction commits, the nonces form one
// gapless run, and Close leaves no goroutine behind.
func TestSharedAccountConcurrentSubmit(t *testing.T) {
	const workers, each = 4, 40
	base := runtime.NumGoroutine()
	p, err := NewPlatform(Config{Sites: 3, PatientsPerSite: 5, Seed: 3, KeySeed: "test/shared-account"})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := p.Acquire("shared")
	if err != nil {
		p.Close()
		t.Fatal(err)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		txs     []*ledger.Transaction
		pushing atomic.Bool
	)
	pushing.Store(true)
	committed := make(chan error, 1)
	go func() {
		for pushing.Load() {
			p.Cluster().WaitPooled(1, 10*time.Millisecond)
			if _, err := p.Cluster().CommitAll(); err != nil {
				committed <- err
				return
			}
		}
		_, err := p.Cluster().CommitAll()
		committed <- err
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx, err := submit(p.Cluster(), p.nextTimestamp, call{from: shared, typ: ledger.TxData, method: "register_dataset",
					args: contract.RegisterDatasetArgs{ID: fmt.Sprintf("shared/%d-%d", w, i), SiteID: "site-0"}})
				if err != nil {
					t.Errorf("worker %d submit %d: %v", w, i, err)
					return
				}
				mu.Lock()
				txs = append(txs, tx)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	pushing.Store(false)
	if err := <-committed; err != nil {
		t.Errorf("committer: %v", err)
	}
	if !t.Failed() {
		checkNonceRun(t, p.Cluster(), 0, txs)
	}
	t.Logf("%d transactions in %d blocks", len(txs), p.Cluster().Best().Height()-1)
	p.Close()
	settleGoroutines(t, base, "Platform.Close")
}

// TestSharedAccountAcrossShards: two goroutines share one account and
// register datasets that route to different shards — each chain sees
// its own gapless nonce run — and Close leaves no goroutine behind.
func TestSharedAccountAcrossShards(t *testing.T) {
	const each = 6
	base := runtime.NumGoroutine()
	sp, err := NewShardedPlatform(shard.Config{Shards: 2, NodesPerShard: 3, CoordNodes: 3, KeySeed: "test/shared-sharded"})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := sp.Acquire("shared")
	if err != nil {
		sp.Close()
		t.Fatal(err)
	}
	// Dataset IDs per home shard, found by routing candidates.
	var ids [2][]string
	for i := 0; len(ids[0]) < each || len(ids[1]) < each; i++ {
		id := fmt.Sprintf("shared/ds-%d", i)
		if h := sp.HomeShard(id); len(ids[h]) < each {
			ids[h] = append(ids[h], id)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range ids[w] {
				if home, err := sp.RegisterDataset(shared, contract.RegisterDatasetArgs{ID: id, SiteID: "site"}); err != nil || home != w {
					t.Errorf("RegisterDataset %s: shard %d, %v", id, home, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := 0; w < 2 && !t.Failed(); w++ {
		c := sp.System().Shard(w)
		if got := c.Best().Chain().NextNonce(shared.Address()); got != each {
			t.Errorf("shard %d: account's committed nonce %d, want %d", w, got, each)
		}
		for _, id := range ids[w] {
			if _, at, ok := sp.Dataset(id); !ok || at != w {
				t.Errorf("dataset %s: shard %d ok=%v, want shard %d", id, at, ok, w)
			}
		}
	}
	sp.Close()
	settleGoroutines(t, base, "ShardedPlatform.Close")
}
