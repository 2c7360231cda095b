package core

import (
	"encoding/base64"
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/emr"
	"medchain/internal/ledger"
	"medchain/internal/offchain"
	"medchain/internal/oracle"
	"medchain/internal/vm"
)

// TestAsyncMonitorControllerPipeline wires the event-driven path of
// Fig. 1 end to end: a request_run transaction commits on chain, the
// monitor node sees the RunAuthorized event, each site's control code
// picks up its own task, executes it locally, and delivers the result —
// no synchronous call from the requester to any site.
func TestAsyncMonitorControllerPipeline(t *testing.T) {
	p, researcher := testPlatform(t, 3, 30)

	// One monitor per site, attached to that site's own chain node —
	// exactly the per-premise deployment of Fig. 1/6.
	var mu sync.Mutex
	results := make(map[string]*offchain.TaskResult)
	var monitors []*oracle.Monitor
	for i, site := range p.Sites() {
		mon := oracle.NewMonitor(p.Cluster().Node(i), oracle.MonitorConfig{})
		monitors = append(monitors, mon)
		offchain.AttachController(mon, site, func(res *offchain.TaskResult) {
			mu.Lock()
			defer mu.Unlock()
			results[res.SiteID] = res
		}, func(err error) {
			t.Errorf("controller error: %v", err)
		})
	}
	defer func() {
		for _, m := range monitors {
			m.Close()
		}
	}()

	// Submit one request_run per dataset, straight to the chain (the
	// requester does NOT talk to sites).
	var calls []call
	for _, ds := range p.Datasets() {
		calls = append(calls, call{from: researcher, typ: ledger.TxAnalytics, method: "request_run", args: contract.RequestRunArgs{
			Tool:    "cohort.count",
			Dataset: ds.ID,
			Params:  json.RawMessage(`{"condition":"diabetes"}`),
		}})
	}
	receipts, err := p.transact(calls...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range receipts {
		if !r.OK() {
			t.Fatalf("request failed: %s", r.Err)
		}
	}

	// All three sites execute their tasks autonomously.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		done := len(results) == 3
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("only %d/3 sites delivered results", len(results))
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for siteID, res := range results {
		if res.Tool != "cohort.count" || res.Records != 30 {
			t.Fatalf("site %s result %+v", siteID, res)
		}
	}
}

// TestAsyncControllerIgnoresOtherSitesTasks confirms task routing: a
// site's controller must skip authorizations addressed elsewhere.
func TestAsyncControllerIgnoresOtherSitesTasks(t *testing.T) {
	p, researcher := testPlatform(t, 2, 10)
	var mu sync.Mutex
	count := 0
	mon := oracle.NewMonitor(p.Cluster().Node(0), oracle.MonitorConfig{})
	defer mon.Close()
	// Only site-0's controller is attached.
	offchain.AttachController(mon, p.Sites()[0], func(res *offchain.TaskResult) {
		mu.Lock()
		defer mu.Unlock()
		count++
		if res.SiteID != "site-0" {
			t.Errorf("site-0 controller executed %s's task", res.SiteID)
		}
	}, nil)

	// Request runs against BOTH datasets.
	var calls []call
	for _, ds := range p.Datasets() {
		calls = append(calls, call{from: researcher, typ: ledger.TxAnalytics, method: "request_run", args: contract.RequestRunArgs{
			Tool: "cohort.count", Dataset: ds.ID,
		}})
	}
	if _, err := p.transact(calls...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("site-0 task never executed")
		}
		time.Sleep(time.Millisecond)
	}
	// Give the monitor a moment to (not) run the foreign task.
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("controller ran %d tasks, want 1", count)
	}
}

// TestVMContractReadsRegistryViaOracle deploys a VM contract that makes
// a HOST call into the on-chain registry and stores the result, on a
// platform with nothing installed for it. Every node executes the call
// against its own replicated state, so the state roots must still
// agree — the determinism requirement of the oracle design.
func TestVMContractReadsRegistryViaOracle(t *testing.T) {
	p, _ := testPlatform(t, 3, 10)

	dev, err := p.Acquire("dapp-dev")
	if err != nil {
		t.Fatal(err)
	}
	code := vm.MustAssemble(`
		PUSHB "registry.datasets"
		PUSHB ""
		HOST
		PUSHB "datasets"
		SWAP
		SSTORE
		PUSHB "registry.tools"
		PUSHB ""
		HOST
		PUSHB "tools"
		SWAP
		SSTORE
		HALT
	`)
	deployNonce := p.Cluster().Best().PendingNonce(dev.Address())
	receipts, err := p.transact(call{from: dev, typ: ledger.TxDeploy, method: "deploy", args: contract.DeployArgs{
		Name: "registry-reader",
		Code: base64.StdEncoding.EncodeToString(code),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !receipts[0].OK() {
		t.Fatalf("deploy failed: %s", receipts[0].Err)
	}
	addr := contract.DeployedAddress(dev.Address(), deployNonce)
	receipts, err = p.transact(call{from: dev, typ: ledger.TxInvoke, method: "read", args: contract.InvokeArgs{}, to: addr})
	if err != nil {
		t.Fatal(err)
	}
	if !receipts[0].OK() {
		t.Fatalf("invoke failed: %s", receipts[0].Err)
	}

	// Every node stored identical registry snapshots; roots agree.
	if err := p.Cluster().VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	for i, n := range p.Cluster().Nodes() {
		raw, ok := n.State().StorageValue(addr, []byte("datasets"))
		if !ok {
			t.Fatalf("node %d missing stored datasets", i)
		}
		var ids []string
		if err := json.Unmarshal(raw, &ids); err != nil {
			t.Fatal(err)
		}
		if len(ids) != 3 || ids[0] != "site-0/emr" {
			t.Fatalf("node %d registry snapshot %v", i, ids)
		}
		rawTools, ok := n.State().StorageValue(addr, []byte("tools"))
		if !ok {
			t.Fatalf("node %d missing stored tools", i)
		}
		var tools []string
		if err := json.Unmarshal(rawTools, &tools); err != nil {
			t.Fatal(err)
		}
		if len(tools) != 4 {
			t.Fatalf("node %d tools %v", i, tools)
		}
	}
}

// TestIndexedPlatformAndMonitorCloseClean: an indexed platform with a
// monitor tailing one of its nodes shuts down to the goroutine count it
// started from, whichever of the two is closed first — the monitor
// sleeps on the node's events, which a closing node fires, and owns the
// only goroutine of the read side (the indexer has none).
func TestIndexedPlatformAndMonitorCloseClean(t *testing.T) {
	for _, order := range []string{"monitor first", "platform first"} {
		base := runtime.NumGoroutine()
		p, err := NewPlatform(Config{Sites: 2, PatientsPerSite: 4, Seed: 42, KeySeed: "test/" + t.Name(), Index: true})
		if err != nil {
			t.Fatal(err)
		}
		mon := oracle.NewMonitor(p.Cluster().Node(1), oracle.MonitorConfig{})
		var anchored atomic.Int64
		mon.On("ManifestsAnchored", func(chain.EventRecord) error {
			anchored.Add(1)
			return nil
		})
		recs := emr.NewGenerator(emr.GenConfig{Seed: 7, Patients: 3, StartID: 10_000}).Generate()
		if err := p.IngestBlobs("site-0", recs); err != nil {
			t.Fatal(err)
		}
		p.SyncIndex()
		for deadline := time.Now().Add(5 * time.Second); anchored.Load() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("monitor never saw the ingest's ManifestsAnchored event")
			}
		}
		if order == "monitor first" {
			mon.Close()
			p.Close()
		} else {
			p.Close()
			mon.Close()
		}
		settleGoroutines(t, base, "Platform.Close and Monitor.Close, "+order)
	}
}
