package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"medchain/internal/chain"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
	"medchain/internal/store"
)

// Sizes of the chain workloads at -seconds 10 -scale 1. Closed-loop
// phases run a fixed operation count, so both sides of a comparison do
// identical work; -seconds and -scale multiply every count.
const (
	chainNodes       = 4
	chainWorkingSet  = 512  // datasets registered in set-up
	chainBigExtra    = 5120 // extra datasets chain-bigstate registers in set-up
	chainUnit        = 640  // phase A = 5 units; a forced snapshot every 2 units; node 3 stops 1 unit after the last
	chainWindow      = 64   // closed-loop window per client
	chainSeqTxs      = 100  // phase B length at -seconds 10
	recoverRepeats   = 3    // every workload recovers this many times; recover_s is the median
	chainPrefillStep = 2048 // set-up submits the prefill in blocks of this many
	injectedDelay    = time.Millisecond
)

// chainRig is one booted chain deployment with its pre-signed streams:
// everything set-up produces.
type chainRig struct {
	cluster *chain.Cluster
	meters  []*store.FaultFS // zero-fault write meters, traced run only
	phaseA  [hospClients][]stx
	phaseB  []stx
}

// chainSetup boots the cluster, commits the prefill and pre-signs the
// measured streams. The measured window therefore holds no client
// signing.
func chainSetup(p params, extra int, dir string, metered bool) (*chainRig, error) {
	rig := &chainRig{}
	persist := &chain.PersistConfig{Dir: dir, SyncEvery: 1}
	if metered {
		for i := 0; i < chainNodes; i++ {
			rig.meters = append(rig.meters, store.NewFaultFS(store.OSFS{}, store.FaultConfig{}))
		}
		persist.FSFor = func(node int) store.FS { return rig.meters[node] }
	}
	cluster, err := chain.NewCluster(chain.ClusterConfig{
		Nodes: chainNodes, KeySeed: p.keySeed(), Persist: persist,
		Network: p2p.Config{BaseLatency: injectedDelay, Seed: p.seed},
	})
	if err != nil {
		return nil, err
	}
	rig.cluster = cluster

	// The working set stays a multiple of the owner count so every
	// owner and researcher has datasets to act on.
	h := newHospital(p.seed, p.sized(chainWorkingSet, hospOwners)/hospOwners*hospOwners)
	pre := h.prefill(p.sized(extra, 0))
	for start := 0; start < len(pre); start += chainPrefillStep {
		chunk := pre[start:min(start+chainPrefillStep, len(pre))]
		if err := commitBatch(cluster, chunk); err != nil {
			cluster.Close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}

	nA := p.count(5 * chainUnit)
	for c := 0; c < hospClients; c++ {
		rig.phaseA[c] = h.stream(c, nA/hospClients)
	}
	nB := p.count(chainSeqTxs)
	rig.phaseB = interleave(h.stream(0, nB/hospClients), h.stream(1, nB/hospClients))
	return rig, nil
}

// commitBatch submits a batch, waits until every node pooled it, commits
// until the pools drain and checks every receipt.
func commitBatch(c *chain.Cluster, batch []stx) error {
	for _, t := range batch {
		if err := c.Submit(t.tx); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for minPool(c) < len(batch) {
		if time.Now().After(deadline) {
			return fmt.Errorf("batch of %d did not gossip to every node", len(batch))
		}
		time.Sleep(200 * time.Microsecond)
	}
	if _, err := c.CommitAll(); err != nil {
		return err
	}
	for _, t := range batch {
		if r, ok := c.Node(0).Receipt(t.id); !ok || !r.OK() {
			return fmt.Errorf("tx %s (%s) not committed OK: %+v", t.id.Short(), t.tx.Method, r)
		}
	}
	return nil
}

// minPool is the smallest mempool among running nodes: once it is
// positive the scheduled proposer, whichever node that is, has work.
func minPool(c *chain.Cluster) int {
	least := -1
	for _, n := range c.Nodes() {
		if !n.Running() {
			continue
		}
		if s := n.MempoolSize(); least < 0 || s < least {
			least = s
		}
	}
	return max(least, 0)
}

// chainRun holds what the driver observed in one run of the measured
// phases.
type chainRun struct {
	*tally

	windowA    time.Duration
	okA        int
	blocksA    int
	commitA    samples // Commit call durations in phase A, ms
	snapshotMS samples
	busy       time.Duration // time clients spent inside Submit in phase A

	recover   time.Duration
	restartMS float64

	latencyB samples // Submit call -> Commit return, ms
	commitB  samples
	blocksB  int
	txsB     int
}

// pending tracks submitted-but-uncommitted transactions so the commit
// driver can time them and release their client's window slot.
type pending struct {
	mu sync.Mutex
	m  map[cryptoutil.Digest]pendingTx
}

type pendingTx struct {
	client    int
	submitted time.Time // phase A: Submit returned; phase B: Submit called
}

func (p *pending) put(id cryptoutil.Digest, t pendingTx) {
	p.mu.Lock()
	p.m[id] = t
	p.mu.Unlock()
}

// submittedAt records when Submit returned, unless the transaction has
// already committed.
func (p *pending) submittedAt(id cryptoutil.Digest, at time.Time) {
	p.mu.Lock()
	if t, ok := p.m[id]; ok {
		t.submitted = at
		p.m[id] = t
	}
	p.mu.Unlock()
}

func (p *pending) take(id cryptoutil.Digest) (pendingTx, bool) {
	p.mu.Lock()
	t, ok := p.m[id]
	delete(p.m, id)
	p.mu.Unlock()
	return t, ok
}

// commitLoop is the deployment's block producer: it calls Commit
// whenever every running node has pooled work, until no transaction
// remains (a client subtracts the ones it failed to submit). onBlock
// sees each block with the time its Commit started and returned.
func commitLoop(c *chain.Cluster, remaining *atomic.Int64, onBlock func(blk *ledger.Block, start, end time.Time)) error {
	idleSince := time.Now()
	for remaining.Load() > 0 {
		if minPool(c) == 0 {
			if time.Since(idleSince) > 20*time.Second {
				return fmt.Errorf("no pooled work for 20s with %d transactions outstanding", remaining.Load())
			}
			time.Sleep(100 * time.Microsecond)
			continue
		}
		start := time.Now()
		blk, err := c.Commit()
		end := time.Now()
		if err != nil {
			return err
		}
		remaining.Add(-int64(len(blk.Txs)))
		onBlock(blk, start, end)
		idleSince = end
	}
	return nil
}

// settle accounts for one committed block: every transaction must carry
// an OK receipt on node 0 (Commit already waited for every running node
// to apply the block).
func (r *chainRun) settle(c *chain.Cluster, blk *ledger.Block, pend *pending, each func(id cryptoutil.Digest, t pendingTx)) {
	for _, tx := range blk.Txs {
		id := tx.ID()
		t, ok := pend.take(id)
		if !ok {
			r.problem("block %d holds unknown tx %s", blk.Header.Height, id.Short())
			continue
		}
		if rc, ok := c.Node(0).Receipt(id); !ok || !rc.OK() {
			r.fail("tx %s (%s) receipt not OK", id.Short(), tx.Method)
			continue
		}
		each(id, t)
	}
}

// runChain drives phase A (saturate), the node-3 recovery and phase B
// (sequential) against a booted rig. A traced run writes phase A's process
// and deployment counters into layers.
func runChain(p params, rig *chainRig, tr *tracer, layers map[string]float64) *chainRun {
	r := &chainRun{tally: &tally{}}
	c := rig.cluster
	pend := &pending{m: make(map[cryptoutil.Digest]pendingTx)}

	// Phase A: closed loop, two clients, fixed window each.
	var slots [hospClients]chan struct{}
	var wg sync.WaitGroup
	var mu sync.Mutex // guards r's samples against the client goroutines
	var remaining atomic.Int64
	stop := make(chan struct{}) // closed when the commit driver gives up
	total := 0
	clusters := []*chain.Cluster{c}
	before := readCounters(clusters, rig.meters)
	pm := startProc(tr.on())
	t0 := time.Now()
	for cl := 0; cl < hospClients; cl++ {
		slots[cl] = make(chan struct{}, chainWindow)
		for i := 0; i < chainWindow; i++ {
			slots[cl] <- struct{}{}
		}
		total += len(rig.phaseA[cl])
		remaining.Add(int64(len(rig.phaseA[cl])))
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			var busy time.Duration
			for _, t := range rig.phaseA[cl] {
				select {
				case <-slots[cl]:
				case <-stop:
					return
				}
				start := time.Now()
				// Registered before Submit: the commit driver may see the
				// transaction in a block before Submit returns.
				pend.put(t.id, pendingTx{client: cl, submitted: start})
				err := c.Submit(t.tx)
				end := time.Now()
				busy += end.Sub(start)
				if err != nil {
					pend.take(t.id)
					remaining.Add(-1)
					r.fail("submit %s: %v", t.id.Short(), err)
					slots[cl] <- struct{}{}
					continue
				}
				pend.submittedAt(t.id, end)
				tr.add("chain.submit", t.id.Short(), "", start, end)
			}
			mu.Lock()
			r.busy += busy
			mu.Unlock()
		}(cl)
	}
	r.attempt(total)
	sinceSnap := 0
	snapEvery := p.count(2 * chainUnit)
	err := commitLoop(c, &remaining, func(blk *ledger.Block, start, end time.Time) {
		r.blocksA++
		r.commitA.add(ms(end.Sub(start)))
		height := fmt.Sprint(blk.Header.Height)
		tr.add("chain.commit", height, "", start, end)
		r.settle(c, blk, pend, func(id cryptoutil.Digest, t pendingTx) {
			r.okA++
			if tr.on() {
				tr.add("chain.queue", id.Short(), height, t.submitted, start)
			}
			slots[t.client] <- struct{}{}
		})
		// Snapshots are forced by committed-transaction count so their
		// cost lands inside the window at points that repeat exactly.
		if sinceSnap += len(blk.Txs); sinceSnap >= snapEvery && r.okA < total {
			sinceSnap = 0
			s := time.Now()
			for i, n := range c.Nodes() {
				if err := n.Snapshot(); err != nil {
					r.problem("snapshot node %d: %v", i, err)
				}
			}
			r.snapshotMS.addSince(s, time.Millisecond)
			tr.add("store.snapshot", height, "", s, time.Now())
		}
	})
	if err != nil {
		close(stop)
	}
	wg.Wait()
	r.windowA = time.Since(t0)
	pm.finish(float64(r.okA), layers)
	if tr.on() {
		readCounters(clusters, rig.meters).layersSince(before, float64(r.okA), float64(r.blocksA), chainNodes, layers)
	}
	if err != nil {
		r.problem("phase A: %v", err)
		return r
	}

	// Recover: node 3 dies one unit of transactions after the last
	// forced snapshot and must come back to the tip with an equal root.
	// Nothing commits in between, so every repeat does the same work.
	tip := c.Node(0)
	n3 := c.Node(chainNodes - 1)
	var recoverS samples
	for k := 0; k < recoverRepeats; k++ {
		s := time.Now()
		c.StopNode(chainNodes - 1)
		rs := time.Now()
		if err := c.RestartNode(chainNodes - 1); err != nil {
			r.problem("restart node 3: %v", err)
			return r
		}
		r.restartMS = ms(time.Since(rs))
		deadline := time.Now().Add(30 * time.Second)
		for n3.Height() < tip.Height() {
			if time.Now().After(deadline) {
				r.problem("node 3 stuck at height %d, tip %d", n3.Height(), tip.Height())
				return r
			}
			time.Sleep(200 * time.Microsecond)
		}
		if n3.State().Root() != tip.State().Root() || n3.Chain().Head().Hash() != tip.Chain().Head().Hash() {
			r.problem("recovered node 3 diverges from the live tip")
		}
		recoverS.addSince(s, time.Second)
		tr.add("chain.recover", "node-3", "", s, time.Now())
	}
	r.recover = time.Duration(recoverS.median() * float64(time.Second))

	// Phase B (sequential): closed loop, one client, one transaction
	// outstanding — submit, commit, next. Every block holds one
	// transaction, so the latency is the chain's per-block fixed cost
	// with no queueing on top. (An open loop at a fixed rate sits on
	// opposite sides of saturation for chain-mix and chain-bigstate and
	// is bistable near it: its latency repeated within 23 %, not 6 %.)
	r.attempt(len(rig.phaseB))
	for _, t := range rig.phaseB {
		start := time.Now()
		pend.put(t.id, pendingTx{submitted: start})
		if err := c.Submit(t.tx); err != nil {
			pend.take(t.id)
			r.fail("sequential submit %s: %v", t.id.Short(), err)
			continue
		}
		remaining.Store(1)
		err := commitLoop(c, &remaining, func(blk *ledger.Block, cs, end time.Time) {
			r.blocksB++
			r.commitB.add(ms(end.Sub(cs)))
			height := fmt.Sprint(blk.Header.Height)
			tr.add("chain.commit", height, "", cs, end)
			r.settle(c, blk, pend, func(id cryptoutil.Digest, t pendingTx) {
				r.txsB++
				r.latencyB.add(ms(end.Sub(t.submitted)))
				tr.add("chain.sequential", id.Short(), height, t.submitted, end)
			})
		})
		if err != nil {
			r.problem("phase B: %v", err)
			return r
		}
	}

	if err := c.VerifyConsistency(); err != nil {
		r.problem("replicas disagree: %v", err)
	}
	return r
}

// freshDir returns an empty directory under the run's scratch root.
func freshDir(p params, name string) (string, error) {
	dir := filepath.Join(p.dataDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
