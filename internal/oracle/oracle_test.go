package oracle

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"medchain/internal/chain"
	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/store"
)

// testChain spins up a 2-node cluster and returns it plus a helper that
// commits a dataset registration (which emits DatasetRegistered).
func testChain(t *testing.T) (*chain.Cluster, func(id string)) {
	t.Helper()
	c, err := chain.NewCluster(chain.ClusterConfig{Nodes: 2, KeySeed: t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	kp, err := cryptoutil.DeriveKeyPair(t.Name() + "/user")
	if err != nil {
		t.Fatal(err)
	}
	nonce := uint64(0)
	commit := func(id string) {
		args, err := json.Marshal(contract.RegisterDatasetArgs{ID: id, SiteID: "site-1"})
		if err != nil {
			t.Fatal(err)
		}
		tx := &ledger.Transaction{
			Type: ledger.TxData, Nonce: nonce, Method: "register_dataset",
			Args: args, Timestamp: 1,
		}
		nonce++
		if err := tx.Sign(kp); err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
		// Wait for gossip so the scheduled proposer has the tx.
		deadline := time.Now().Add(3 * time.Second)
		for {
			ready := true
			for _, n := range c.Nodes() {
				if n.MempoolSize() == 0 {
					ready = false
					break
				}
			}
			if ready {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("tx did not gossip")
			}
			time.Sleep(time.Millisecond)
		}
		if _, err := c.CommitAll(); err != nil {
			t.Fatal(err)
		}
	}
	return c, commit
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMonitorDispatches(t *testing.T) {
	c, commit := testChain(t)
	mon := NewMonitor(c.Node(1), MonitorConfig{})
	defer mon.Close()
	var mu sync.Mutex
	var got []string
	mon.On("DatasetRegistered", func(rec chain.EventRecord) error {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, string(rec.Event.Data))
		return nil
	})
	commit("d1")
	commit("d2")
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	s := mon.Stats()
	if s.Dispatched != 2 || s.Failed != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMonitorRetries(t *testing.T) {
	c, commit := testChain(t)
	mon := NewMonitor(c.Node(1), MonitorConfig{Retries: 2})
	defer mon.Close()
	var mu sync.Mutex
	attempts := 0
	mon.On("DatasetRegistered", func(chain.EventRecord) error {
		mu.Lock()
		defer mu.Unlock()
		attempts++
		if attempts < 3 {
			return errors.New("flaky")
		}
		return nil
	})
	commit("d1")
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return attempts == 3
	})
	s := mon.Stats()
	if s.Dispatched != 1 || s.Retried != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMonitorFailsAfterRetriesExhausted(t *testing.T) {
	c, commit := testChain(t)
	mon := NewMonitor(c.Node(1), MonitorConfig{Retries: 1})
	defer mon.Close()
	mon.On("DatasetRegistered", func(chain.EventRecord) error {
		return errors.New("always broken")
	})
	commit("d1")
	waitFor(t, func() bool { return mon.Stats().Failed == 1 })
	if s := mon.Stats(); s.Dispatched != 0 || s.Retried != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMonitorBatching(t *testing.T) {
	c, commit := testChain(t)
	mon := NewMonitor(c.Node(1), MonitorConfig{BatchSize: 3})
	defer mon.Close()
	var mu sync.Mutex
	var batches [][]chain.EventRecord
	mon.OnBatch("DatasetRegistered", func(recs []chain.EventRecord) error {
		mu.Lock()
		defer mu.Unlock()
		batches = append(batches, recs)
		return nil
	})
	for i := 0; i < 3; i++ {
		commit(fmt.Sprintf("d%d", i))
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(batches) == 1
	})
	mu.Lock()
	if len(batches[0]) != 3 {
		t.Fatalf("batch size %d", len(batches[0]))
	}
	mu.Unlock()
	// One more, under the batch size: delivered only via Flush. The
	// event lands in the monitor loop asynchronously, so keep flushing
	// until it drains.
	commit("d3")
	waitFor(t, func() bool {
		mon.Flush()
		mu.Lock()
		defer mu.Unlock()
		return len(batches) == 2 && len(batches[1]) == 1
	})
	if b := mon.Stats().Batches; b != 2 {
		t.Fatalf("batches %d", b)
	}
}

func TestMonitorCloseFlushesAndIsIdempotent(t *testing.T) {
	c, commit := testChain(t)
	mon := NewMonitor(c.Node(1), MonitorConfig{BatchSize: 100})
	var mu sync.Mutex
	total := 0
	mon.OnBatch("DatasetRegistered", func(recs []chain.EventRecord) error {
		mu.Lock()
		defer mu.Unlock()
		total += len(recs)
		return nil
	})
	commit("d1")
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		// The event must be pending (batch not full).
		return true
	})
	// Give the loop a moment to enqueue, then close.
	time.Sleep(20 * time.Millisecond)
	mon.Close()
	mon.Close()
	mu.Lock()
	defer mu.Unlock()
	if total != 1 {
		t.Fatalf("close did not flush pending batch: %d", total)
	}
}

func TestBridgeCallAndCanonical(t *testing.T) {
	b := NewBridge()
	err := b.Register("echo", func(args json.RawMessage) (json.RawMessage, error) {
		return args, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Key order and whitespace normalize away.
	r1, err := b.Call("echo", json.RawMessage(`{"b":1, "a":2}`))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.Call("echo", json.RawMessage(`{ "a": 2,"b": 1 }`))
	if err != nil {
		t.Fatal(err)
	}
	if string(r1) != string(r2) {
		t.Fatalf("canonicalization failed: %s vs %s", r1, r2)
	}
	if string(r1) != `{"a":2,"b":1}` {
		t.Fatalf("canonical form %s", r1)
	}
	if b.Calls() != 2 {
		t.Fatalf("calls %d", b.Calls())
	}
}

func TestBridgeErrors(t *testing.T) {
	b := NewBridge()
	if _, err := b.Call("ghost", nil); err == nil {
		t.Fatal("unknown service accepted")
	}
	if err := b.Register("x", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("x", nil); err == nil {
		t.Fatal("duplicate register accepted")
	}
	if err := b.Register("fail", func(json.RawMessage) (json.RawMessage, error) {
		return nil, errors.New("boom")
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Call("fail", nil); err == nil {
		t.Fatal("service error swallowed")
	}
}

func TestBridgeHostFuncs(t *testing.T) {
	b := NewBridge()
	if err := b.Register("fetch", func(args json.RawMessage) (json.RawMessage, error) {
		return json.RawMessage(`{"ok":true}`), nil
	}); err != nil {
		t.Fatal(err)
	}
	hosts := b.HostFuncs()
	fn, ok := hosts["fetch"]
	if !ok {
		t.Fatal("host func missing")
	}
	res, gas, err := fn([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != `{"ok":true}` {
		t.Fatalf("host result %s", res)
	}
	if gas != int64(len(res)) {
		t.Fatalf("gas %d", gas)
	}
}

func TestCanonicalizeCases(t *testing.T) {
	tests := []struct {
		name, in, want string
	}{
		{"nested objects", `{"z":{"b":1,"a":[3,2,{"y":0,"x":1}]},"a":null}`,
			`{"a":null,"z":{"a":[3,2,{"x":1,"y":0}],"b":1}}`},
		{"numbers preserved", `{"a":1.50,"b":1e3}`, `{"a":1.50,"b":1e3}`},
		{"string", `"hi"`, `"hi"`},
		{"bool", `true`, `true`},
		{"array", `[ 1 , 2 ]`, `[1,2]`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Canonicalize([]byte(tt.in))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tt.want {
				t.Fatalf("got %s, want %s", got, tt.want)
			}
		})
	}
	// Empty → null; non-JSON → quoted string.
	got, err := Canonicalize(nil)
	if err != nil || string(got) != "null" {
		t.Fatalf("empty: %s, %v", got, err)
	}
	got, err = Canonicalize([]byte("not json at all"))
	if err != nil {
		t.Fatal(err)
	}
	var s string
	if err := json.Unmarshal(got, &s); err != nil || s != "not json at all" {
		t.Fatalf("non-json wrapped as %s", got)
	}
}

func TestMonitorReplayCatchesUpMissedEvents(t *testing.T) {
	c, commit := testChain(t)
	// Events commit while NO monitor is attached.
	commit("missed-1")
	commit("missed-2")

	// A monitor attaches later and replays from genesis.
	mon := NewMonitor(c.Node(0), MonitorConfig{})
	defer mon.Close()
	var mu sync.Mutex
	seen := map[string]bool{}
	mon.On("DatasetRegistered", func(rec chain.EventRecord) error {
		var ds struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Event.Data, &ds); err != nil {
			return err
		}
		mu.Lock()
		seen[ds.ID] = true
		mu.Unlock()
		return nil
	})
	mon.Replay(c.Node(0), 0)
	mu.Lock()
	missed := seen["missed-1"] && seen["missed-2"]
	mu.Unlock()
	if !missed {
		t.Fatalf("replay missed events: %v", seen)
	}
	// Live events still flow after the replay.
	commit("live-3")
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seen["live-3"]
	})
	// Replay from a later height skips older events.
	mu.Lock()
	for k := range seen {
		delete(seen, k)
	}
	mu.Unlock()
	mon.Replay(c.Node(0), c.Node(0).Height())
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 0 {
		t.Fatalf("replay from head redelivered: %v", seen)
	}
}

// heightLog is a handler that records the height of every event it is
// handed, in arrival order.
type heightLog struct {
	mu      sync.Mutex
	heights []uint64
}

func (l *heightLog) handle(rec chain.EventRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.heights = append(l.heights, rec.Height)
	return nil
}

func (l *heightLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.heights)
}

// requireOnceInOrder fails unless the log is exactly 1, 2, …, n.
func (l *heightLog) requireOnceInOrder(t *testing.T, n int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, h := range l.heights {
		if h != uint64(i+1) {
			t.Fatalf("event %d came from height %d: %v", i, h, l.heights)
		}
	}
	if len(l.heights) != n {
		t.Fatalf("%d events delivered, %d committed: %v", len(l.heights), n, l.heights)
	}
}

// TestMonitorSeesOnlyCommittedEvents: a peer hands node 1 a block that
// is valid in every ledger rule and carries a quorum certificate, but
// whose state root no execution produces. The node rejects it — and
// the monitor attached to that node must not have acted on its events:
// RunAuthorized from such a block would start off-chain work nobody
// authorised on chain. (At dd72d03 the handler ran.)
func TestMonitorSeesOnlyCommittedEvents(t *testing.T) {
	c, _ := testChain(t)
	node := c.Node(1)
	mon := NewMonitor(node, MonitorConfig{})
	defer mon.Close()
	var log heightLog
	mon.On("DatasetRegistered", log.handle)

	keys := make([]*cryptoutil.KeyPair, c.Size())
	for i := range keys {
		kp, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("%s/node-%d", t.Name(), i))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = kp
	}
	vals, err := consensus.NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	args, err := json.Marshal(contract.RegisterDatasetArgs{ID: "never", SiteID: "site-1"})
	if err != nil {
		t.Fatal(err)
	}
	tx := &ledger.Transaction{Type: ledger.TxData, Method: "register_dataset", Args: args, Timestamp: 1}
	if err := tx.Sign(keys[0]); err != nil {
		t.Fatal(err)
	}
	head := node.Chain().Head()
	blk := &ledger.Block{
		Header: ledger.Header{
			Height: 1, Parent: head.Hash(), Timestamp: head.Header.Timestamp + 1,
			Proposer: keys[0].Address(), StateRoot: cryptoutil.Sum([]byte("not the post-state root")),
		},
		Txs: []*ledger.Transaction{tx},
	}
	if blk.Header.TxRoot, err = ledger.ComputeTxRoot(blk.Txs); err != nil {
		t.Fatal(err)
	}
	qc := &consensus.QuorumCert{Block: blk.Hash()}
	for _, k := range keys {
		v, err := consensus.SignVote(1, blk.Hash(), k)
		if err != nil {
			t.Fatal(err)
		}
		qc.Votes = append(qc.Votes, v)
	}
	if err := consensus.NewQuorum(vals).AttachCert(blk, qc); err != nil {
		t.Fatal(err)
	}
	body, err := blk.Encode()
	if err != nil {
		t.Fatal(err)
	}
	peer, err := c.Network().Join("peer")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	// The node's loop handles one message at a time: once the junk vote
	// behind the block has been scored, the block has been dealt with.
	if err := peer.Send(node.ID(), "chain/block", body); err != nil {
		t.Fatal(err)
	}
	if err := peer.Send(node.ID(), "chain/vote", []byte("{")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(node.GuardStats().Peers) > 0 })

	if h := node.Height(); h != 0 {
		t.Fatalf("the wrong-root block committed: height %d", h)
	}
	if n := log.len(); n != 0 {
		t.Fatalf("monitor dispatched %d events of a block that never committed", n)
	}
	if recs := node.EventsSince(0); len(recs) != 0 {
		t.Fatalf("EventsSince sees %d events of a block that never committed", len(recs))
	}
}

// TestMonitorLosesNothingBehindASlowHandler: a handler stuck on its
// first event while twenty more blocks commit sees all of them, in
// order, once it is released. (At dd72d03 with MonitorConfig{Buffer: 8}
// the subscription dropped what the buffer could not hold.)
func TestMonitorLosesNothingBehindASlowHandler(t *testing.T) {
	c, commit := testChain(t)
	mon := NewMonitor(c.Node(1), MonitorConfig{})
	defer mon.Close()
	var log heightLog
	release := make(chan struct{})
	mon.On("DatasetRegistered", func(rec chain.EventRecord) error {
		<-release
		return log.handle(rec)
	})
	const blocks = 21
	for i := 0; i < blocks; i++ {
		commit(fmt.Sprintf("ds-%d", i))
	}
	close(release)
	waitFor(t, func() bool { return log.len() >= blocks })
	log.requireOnceInOrder(t, blocks)
}

// TestMonitorExactlyOnceAcrossRestartAndResync: the monitored node
// fsyncs every fourth block, loses power, comes back below the height
// the monitor has read to and re-executes the difference while it
// re-syncs. Every event reaches the handler once, in height order. (At
// dd72d03 the re-executed blocks were published a second time.)
func TestMonitorExactlyOnceAcrossRestartAndResync(t *testing.T) {
	const nodes, victim = 4, 1
	disks := make([]*store.MemFS, nodes)
	for i := range disks {
		disks[i] = store.NewMemFS()
	}
	c, err := chain.NewCluster(chain.ClusterConfig{
		Nodes: nodes, KeySeed: t.Name(),
		Persist: &chain.PersistConfig{Dir: "data", FSFor: func(i int) store.FS { return disks[i] }, SyncEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	kp, err := cryptoutil.DeriveKeyPair(t.Name() + "/user")
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	commit := func(rounds int) {
		t.Helper()
		for ; rounds > 0; rounds-- {
			args, err := json.Marshal(contract.RegisterDatasetArgs{ID: fmt.Sprintf("ds-%d", committed), SiteID: "site-1"})
			if err != nil {
				t.Fatal(err)
			}
			tx := &ledger.Transaction{Type: ledger.TxData, Nonce: uint64(committed), Method: "register_dataset", Args: args, Timestamp: 1}
			if err := tx.Sign(kp); err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(tx); err != nil {
				t.Fatal(err)
			}
			if !c.WaitPooled(1, 5*time.Second) {
				t.Fatal("tx did not gossip")
			}
			if blk, err := c.Commit(); err != nil || len(blk.Txs) != 1 {
				t.Fatalf("commit: %v", err)
			}
			committed++
		}
	}
	node := c.Node(victim)
	mon := NewMonitor(node, MonitorConfig{})
	defer mon.Close()
	var log heightLog
	mon.On("DatasetRegistered", log.handle)

	commit(6)
	waitFor(t, func() bool { return log.len() == 6 })
	c.StopNode(victim)
	disks[victim].Crash() // power loss: blocks 5 and 6 were never fsynced
	commit(3)
	if err := c.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	if h := node.LastRecovery().Height; h >= 6 {
		t.Fatalf("victim recovered at height %d, not below the 6 it had", h)
	}
	commit(2)
	waitFor(t, func() bool { return node.Height() == uint64(committed) && log.len() >= committed })
	log.requireOnceInOrder(t, committed)
}

// TestMonitorCloseLeavesNothingBehind: after Close the monitor's
// goroutine is gone and nothing the node holds keeps the monitor alive
// (the push feed kept every subscriber's channel for the node's life).
func TestMonitorCloseLeavesNothingBehind(t *testing.T) {
	c, commit := testChain(t)
	base := runtime.NumGoroutine()
	collected := make(chan struct{})
	func() {
		mon := NewMonitor(c.Node(1), MonitorConfig{BatchSize: 4})
		runtime.SetFinalizer(mon, func(*Monitor) { close(collected) })
		var log heightLog
		mon.On("DatasetRegistered", log.handle)
		mon.OnBatch("DatasetRegistered", func([]chain.EventRecord) error { return nil })
		commit("ds")
		waitFor(t, func() bool { return log.len() == 1 })
		mon.Close()
	}()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base })
	commit("after-close") // the node goes on without the monitor
	waitFor(t, func() bool {
		runtime.GC()
		select {
		case <-collected:
			return true
		default:
			return false
		}
	})
}
