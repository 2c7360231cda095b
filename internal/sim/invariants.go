package sim

import (
	"encoding/json"
	"fmt"

	"medchain/internal/chain"
	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/emr"
	"medchain/internal/indexer"
	"medchain/internal/ledger"
	"medchain/internal/offchain"
	"medchain/internal/vm"
)

// checker maintains the serial shadow replay of the committed chain
// and evaluates every invariant after each processed block:
//
//   - ledger integrity: parent linkage, height contiguity, tx-root
//     recomputation, and append-only stability of recorded hashes;
//   - certificates: every committed block's seal holds 2f+1 valid
//     votes for it, whichever node assembled it;
//   - differential oracles: every block replayed through each suspect
//     executor must match the serial reference bit-for-bit (state
//     root, receipts, hard errors), with diverging blocks minimized
//     into seed-reproducible counterexamples;
//   - state-root agreement: the serial shadow's root must equal the
//     committed header root every node accepted;
//   - receipt/event-log equality: every live node's recorded receipts
//     and reconstructed event stream must equal the serial reference;
//   - gas conservation: every node that has executed the full chain
//     must have burned exactly the serial sum of receipt gas;
//   - consent monotonicity: after a revocation, no access or run
//     authorization for the revoked grantee until an explicit
//     re-grant (owners excepted — they cannot lose their own data);
//   - offchain determinism: authorized analytics runs fanned out at
//     different worker counts must produce identical results.
type checker struct {
	cfg       Config
	executors []Executor

	shadow *contract.State
	// certs verifies committed seals; its own vote memo, never a node's.
	certs  *consensus.Quorum
	height uint64
	gas    int64
	hashes []cryptoutil.Digest // block hash by height; [0] is genesis

	serialReceipts map[cryptoutil.Digest]string // tx ID -> canonical receipt JSON
	txOrder        []cryptoutil.Digest
	serialEvents   []chain.EventRecord

	consent *consentTracker

	runner       *offchain.Runner
	auths        []contract.RunAuthorization
	offchainRuns int

	// tail is the chain-tailing EMR indexer fed incrementally from the
	// serial event stream; fetch is its view of the fuzzed blob stores.
	// finish() requires a full-replay rebuild to be bit-identical and
	// index query answers to agree with a direct blob scan.
	tail  *indexer.Indexer
	fetch indexer.FetchFunc

	checks     int
	blocks     int
	txs        int
	failedTxs  int
	violations []string
	cex        *Counterexample
}

func newChecker(cfg Config, runner *offchain.Runner, fetch indexer.FetchFunc, genesis *ledger.Block) *checker {
	return &checker{
		cfg:            cfg,
		executors:      cfg.Executors,
		shadow:         contract.NewState(),
		hashes:         []cryptoutil.Digest{genesis.Hash()},
		serialReceipts: make(map[cryptoutil.Digest]string),
		consent:        newConsentTracker(),
		runner:         runner,
		tail:           indexer.New(indexer.NewIndex(), fetch),
		fetch:          fetch,
	}
}

func (ck *checker) violationf(format string, args ...any) {
	ck.violations = append(ck.violations, fmt.Sprintf(format, args...))
}

// failed reports whether any invariant has been violated — the harness
// stops fuzzing and reports as soon as this turns true.
func (ck *checker) failed() bool { return len(ck.violations) > 0 }

// blockCount reports committed blocks processed so far (advSink).
func (ck *checker) blockCount() int { return ck.blocks }

// checkBlock ingests one committed block (heights must arrive in
// order) and runs every per-block invariant.
func (ck *checker) checkBlock(c *chain.Cluster, blk *ledger.Block) {
	h := blk.Header.Height
	ts := blk.Header.Timestamp

	// Ledger integrity: linkage, tx root, append-only history.
	ck.checks++
	if h != ck.height+1 {
		ck.violationf("ledger: height %d arrived after %d", h, ck.height)
		return
	}
	if blk.Header.Parent != ck.hashes[len(ck.hashes)-1] {
		ck.violationf("ledger: block %d parent %s != recorded hash %s",
			h, blk.Header.Parent.Short(), ck.hashes[len(ck.hashes)-1].Short())
		return
	}
	if root, err := ledger.ComputeTxRoot(blk.Txs); err != nil || root != blk.Header.TxRoot {
		ck.violationf("ledger: block %d tx root mismatch (err=%v)", h, err)
		return
	}

	// Certificate: a node commits on the certificate it assembles, so
	// the seal is checked as the node that committed it first left it.
	ck.checks++
	if ck.certs == nil {
		ck.certs = consensus.NewQuorum(c.Validators())
	}
	if err := ck.certs.VerifySeal(blk); err != nil {
		ck.violationf("certificate: block %d committed on a seal that does not certify it: %v", h, err)
		return
	}

	// TTL: no committed transaction may have outlived its deadline.
	// Expiry is consensus-validated (ledger.ErrTxExpired), so a hit
	// here means a proposer packed — and a quorum accepted — a dead
	// transaction. Checked on every run, not just overload ones.
	ck.checks++
	for _, tx := range blk.Txs {
		if tx.ExpiredAt(h) {
			ck.violationf("ttl: block %d committed expired tx %s (expiry height %d)", h, tx.ID().Short(), tx.Expiry)
			return
		}
	}

	// Serial shadow replay; its root must match the header root every
	// node agreed on (state-root agreement: acceptBlock rejects blocks
	// whose locally computed root diverges, so header == every live
	// node's root at this height).
	ck.checks++
	pre := ck.shadow
	serialSt := pre.Clone()
	serialRecs, err := SerialExecutor{}.Execute(serialSt, blk.Txs, h, ts)
	if err != nil {
		ck.violationf("serial replay of block %d errored: %v", h, err)
		return
	}
	if got := serialSt.Root(); got != blk.Header.StateRoot {
		ck.violationf("state-root: serial replay of block %d got %s, committed header has %s",
			h, got.Short(), blk.Header.StateRoot.Short())
		return
	}

	// Root purity: the shadow roots through the tree it keeps between
	// blocks, as every node does, so a write that nothing marked would be
	// agreed on by all of them. A tree rebuilt from the export has no
	// history to be wrong about.
	ck.checks++
	if got, rebuilt := serialSt.Root(), contract.ImportState(serialSt.Export()).Root(); got != rebuilt {
		ck.violationf("state-root: block %d incremental root %s != root rebuilt from the export %s",
			h, got.Short(), rebuilt.Short())
		return
	}

	// Differential oracles: every suspect executor replays the block
	// from the same pre-state and must agree with serial on all
	// observables. A divergence is minimized into a counterexample.
	want := outcome{root: serialSt.Root(), receipts: receiptsJSON(serialRecs)}
	for _, ex := range ck.executors {
		ck.checks++
		got := replay(ex, pre, blk.Txs, h, ts)
		if detail, ok := compare(want, got); !ok {
			min := minimize(pre, blk.Txs, h, ts, SerialExecutor{}, ex)
			minDetail, _ := diverges(pre, min, h, ts, SerialExecutor{}, ex)
			cex := &Counterexample{
				Seed: ck.cfg.Seed, Rounds: ck.cfg.Rounds, Height: h,
				Executor: ex.Name(), Detail: detail, MinimizedDetail: minDetail,
			}
			for _, tx := range blk.Txs {
				cex.BlockTxs = append(cex.BlockTxs, txSummary(tx))
			}
			for _, tx := range min {
				cex.Minimized = append(cex.Minimized, txSummary(tx))
			}
			ck.cex = cex
			ck.violationf("differential: %s", cex.String())
			return
		}
	}

	// Bookkeeping + receipt equality across live nodes that have
	// already applied this block.
	ck.checks++
	for i, tx := range blk.Txs {
		id := tx.ID()
		enc := receiptsJSON([]*contract.Receipt{serialRecs[i]})
		ck.serialReceipts[id] = enc
		ck.txOrder = append(ck.txOrder, id)
		ck.txs++
		if !serialRecs[i].OK() {
			ck.failedTxs++
		}
		ck.gas += serialRecs[i].GasUsed
		for _, ev := range serialRecs[i].Events {
			rec := chain.EventRecord{Height: h, TxID: id, Event: ev}
			ck.serialEvents = append(ck.serialEvents, rec)
			ck.tail.HandleEvent(rec)
		}
	}
	ck.tail.Index().ObserveHeight(h)
	for _, ni := range c.RunningNodes() {
		n := c.Node(ni)
		if n.Height() < h {
			continue
		}
		for _, tx := range blk.Txs {
			got, ok := n.Receipt(tx.ID())
			if !ok {
				ck.violationf("receipts: %s has block %d but no receipt for tx %s", n.ID(), h, tx.ID().Short())
				return
			}
			if enc := receiptsJSON([]*contract.Receipt{got}); enc != ck.serialReceipts[tx.ID()] {
				ck.violationf("receipts: %s receipt for tx %s (block %d) diverges from serial:\n node: %s\n serial: %s",
					n.ID(), tx.ID().Short(), h, enc, ck.serialReceipts[tx.ID()])
				return
			}
		}
	}

	// Consent monotonicity over the serial event stream.
	ck.checks++
	for i, tx := range blk.Txs {
		for _, ev := range serialRecs[i].Events {
			if v := ck.consent.observe(h, tx.ID(), ev); v != "" {
				ck.violationf("consent: %s", v)
				return
			}
		}
		for _, ev := range serialRecs[i].Events {
			if ev.Topic == "RunAuthorized" {
				var auth contract.RunAuthorization
				if json.Unmarshal(ev.Data, &auth) == nil {
					ck.auths = append(ck.auths, auth)
				}
			}
		}
	}

	ck.shadow = serialSt
	ck.height = h
	ck.hashes = append(ck.hashes, blk.Hash())
	ck.blocks++

	if len(ck.auths) >= ck.cfg.OffchainBatch {
		ck.flushOffchain()
	}
}

// checkRound runs the invariants that only make sense against nodes
// that have caught up with the processed prefix: cumulative gas.
func (ck *checker) checkRound(c *chain.Cluster) {
	ck.checks++
	for _, ni := range c.RunningNodes() {
		n := c.Node(ni)
		if n.Height() != ck.height {
			continue
		}
		if got := n.GasUsed(); got != ck.gas {
			ck.violationf("gas: %s at height %d burned %d, serial reference burned %d", n.ID(), ck.height, got, ck.gas)
			return
		}
	}
	// Live root purity: a node installs the tree patch its execution of
	// a block hashed instead of re-hashing what it merged, so header
	// agreement alone would not notice a write that reached the tree and
	// not the tables. One node a round — the head's proposer, which
	// rotates — must root equal to a rebuild from its own export.
	for _, ni := range c.RunningNodes() {
		n := c.Node(ni)
		if n.Chain().Head().Header.Proposer != n.Address() {
			continue
		}
		ck.checks++
		if st := n.State().Clone(); st.Root() != contract.ImportState(st.Export()).Root() {
			ck.violationf("state-root: %s at height %d: live incremental root != root rebuilt from its export", n.ID(), n.Height())
			return
		}
	}
}

// finish runs the end-of-run invariants, after the chaos schedule has
// healed and the chain has drained: full chain re-validation on every
// node, append-only hash stability, whole-run receipt / event-log /
// gas equality on every node at head, and the final offchain batch.
func (ck *checker) finish(c *chain.Cluster) {
	ck.flushOffchain()
	ck.checkIndexer()

	wantEvents, err := json.Marshal(ck.serialEvents)
	if err != nil {
		ck.violationf("marshal serial events: %v", err)
		return
	}
	for _, ni := range c.RunningNodes() {
		n := c.Node(ni)
		ck.checks++
		if err := n.Chain().VerifyIntegrity(); err != nil {
			ck.violationf("ledger: %s failed integrity re-validation: %v", n.ID(), err)
		}
		// Append-only: the node's recorded history must match the hashes
		// observed when each block was first processed.
		n.Chain().Walk(func(blk *ledger.Block) bool {
			h := blk.Header.Height
			if h >= uint64(len(ck.hashes)) {
				return false
			}
			if blk.Hash() != ck.hashes[h] {
				ck.violationf("ledger: %s block %d hash changed after commit (append-only violated)", n.ID(), h)
				return false
			}
			return true
		})
		if n.Height() != ck.height {
			continue // still catching up: its prefix was checked above
		}
		ck.checks++
		for _, id := range ck.txOrder {
			got, ok := n.Receipt(id)
			if !ok {
				ck.violationf("receipts: %s at head missing receipt for tx %s", n.ID(), id.Short())
				return
			}
			if enc := receiptsJSON([]*contract.Receipt{got}); enc != ck.serialReceipts[id] {
				ck.violationf("receipts: %s final receipt for tx %s diverges from serial", n.ID(), id.Short())
				return
			}
		}
		ck.checks++
		gotEvents, err := json.Marshal(n.EventsSince(0))
		if err != nil {
			ck.violationf("marshal %s events: %v", n.ID(), err)
			return
		}
		if string(gotEvents) != string(wantEvents) {
			ck.violationf("events: %s committed event log diverges from serial reference (%d bytes vs %d)",
				n.ID(), len(gotEvents), len(wantEvents))
		}
		ck.checks++
		if got := n.GasUsed(); got != ck.gas {
			ck.violationf("gas: %s finished with %d gas burned, serial reference burned %d", n.ID(), got, ck.gas)
		}
	}
}

// checkIndexer runs the off-chain index invariants over the whole run:
//
//   - rebuild determinism: an index rebuilt from a full replay of the
//     serial event stream must be bit-identical (canonical-export
//     digest) to the incrementally tailed index, whatever interleaving
//     of blocks, faults, and duplicate-free event delivery the run saw;
//   - index/scan agreement: for a panel of cohort queries, the count
//     the index answers must equal a direct scan that fetches every
//     anchored blob, decodes it, and applies the same predicate to the
//     full record — catching extraction infidelity, not just lost docs.
func (ck *checker) checkIndexer() {
	ck.checks++
	rebuilt := indexer.Rebuild(ck.serialEvents, ck.fetch, ck.height)
	tailed := ck.tail.Index()
	if rebuilt.Digest() != tailed.Digest() {
		ck.violationf("indexer: full-replay rebuild digest %s diverges from tailed digest %s (%d vs %d docs)",
			rebuilt.Digest().Short(), tailed.Digest().Short(), rebuilt.Docs(), tailed.Docs())
		return
	}

	// Ground truth: decode every fetchable anchored blob, last anchor
	// wins per (dataset, record) — the same replacement semantics the
	// index applies.
	truth := make(map[string]*emr.Record)
	for _, er := range ck.serialEvents {
		if er.Event.Topic != "ManifestsAnchored" {
			continue
		}
		var ev contract.ManifestsAnchored
		if json.Unmarshal(er.Event.Data, &ev) != nil {
			continue
		}
		for _, ent := range ev.Entries {
			data, format, err := ck.fetch(ev.Dataset, ent.Record, ent.Root)
			if err != nil {
				continue // unfetchable: the index skipped it too
			}
			recs, err := emr.DecodeAs(format, data)
			if err != nil || len(recs) == 0 {
				continue
			}
			truth[ev.Dataset+"\x00"+ent.Record] = recs[0]
		}
	}
	queries := []indexer.Query{
		{Condition: emr.CondDiabetes},
		{Condition: emr.CondStroke, MinAge: 40},
		{Sex: emr.SexFemale},
		{LabCode: emr.LabGlucose, MaxAge: 70},
		{Condition: emr.CondDiabetes, Sex: emr.SexMale, MinAge: 30, MaxAge: 75},
	}
	for _, q := range queries {
		ck.checks++
		want := 0
		for _, r := range truth {
			if q.MatchRecord(r) {
				want++
			}
		}
		if got := tailed.Count(q); got != want {
			ck.violationf("indexer: query %+v answered %d from the index, direct blob scan finds %d (docs=%d skipped=%d)",
				q, got, want, tailed.Docs(), tailed.Skipped())
			return
		}
	}
}

// flushOffchain fans the collected RunAuthorized batch out through the
// offchain runner at two worker counts and requires identical results
// (modulo wall-clock Elapsed, which is observational).
func (ck *checker) flushOffchain() {
	if ck.runner == nil || len(ck.auths) == 0 {
		return
	}
	batch := ck.auths
	ck.auths = nil
	if ck.offchainRuns >= ck.cfg.MaxOffchainRuns {
		return
	}
	ck.checks++
	normalize := func(results []*offchain.TaskResult, errs []error) string {
		type entry struct {
			Result *offchain.TaskResult `json:"result,omitempty"`
			Err    string               `json:"err,omitempty"`
		}
		entries := make([]entry, len(results))
		for i := range results {
			if results[i] != nil {
				r := *results[i]
				r.Elapsed = 0
				entries[i].Result = &r
			}
			if errs[i] != nil {
				entries[i].Err = errs[i].Error()
			}
		}
		b, _ := json.Marshal(entries)
		return string(b)
	}
	ck.runner.SetWorkers(1)
	serial := normalize(ck.runner.RunAll(batch))
	ck.runner.SetWorkers(4)
	parallel := normalize(ck.runner.RunAll(batch))
	if serial != parallel {
		ck.violationf("offchain: RunAll over %d auths diverges between 1 and 4 workers", len(batch))
	}
	ck.offchainRuns += len(batch)
}

// consentTracker enforces consent monotonicity over the committed
// event stream: once AccessRevoked removes a grantee's standing
// consent on a resource, no AccessAuthorized / RunAuthorized event may
// name that (resource, grantee) pair until an AccessGranted re-grant.
// Owners are exempt — policy owners always retain access to their own
// resources.
type consentTracker struct {
	owners  map[string]cryptoutil.Address
	revoked map[string]map[cryptoutil.Address]bool
}

func newConsentTracker() *consentTracker {
	return &consentTracker{
		owners:  make(map[string]cryptoutil.Address),
		revoked: make(map[string]map[cryptoutil.Address]bool),
	}
}

func (t *consentTracker) observe(height uint64, txID cryptoutil.Digest, ev vm.Event) string {
	switch ev.Topic {
	case "DatasetRegistered":
		var ds contract.Dataset
		if json.Unmarshal(ev.Data, &ds) == nil {
			t.owners["data:"+ds.ID] = ds.Owner
		}
	case "ToolRegistered":
		var tool contract.Tool
		if json.Unmarshal(ev.Data, &tool) == nil {
			t.owners["tool:"+tool.ID] = tool.Owner
		}
	case "AccessGranted":
		var g contract.GrantArgs
		if json.Unmarshal(ev.Data, &g) == nil {
			if m := t.revoked[g.Resource]; m != nil {
				delete(m, g.Grantee)
			}
		}
	case "AccessRevoked":
		var rv struct {
			Resource string             `json:"resource"`
			Grantee  cryptoutil.Address `json:"grantee"`
		}
		if json.Unmarshal(ev.Data, &rv) == nil {
			if t.revoked[rv.Resource] == nil {
				t.revoked[rv.Resource] = make(map[cryptoutil.Address]bool)
			}
			t.revoked[rv.Resource][rv.Grantee] = true
		}
	case "AccessAuthorized":
		var a contract.AccessAuthorization
		if json.Unmarshal(ev.Data, &a) == nil {
			return t.check(height, txID, a.Resource, a.Requester)
		}
	case "RunAuthorized":
		var a contract.RunAuthorization
		if json.Unmarshal(ev.Data, &a) == nil {
			if v := t.check(height, txID, "data:"+a.Dataset, a.Requester); v != "" {
				return v
			}
			return t.check(height, txID, "tool:"+a.Tool, a.Requester)
		}
	}
	return ""
}

func (t *consentTracker) check(height uint64, txID cryptoutil.Digest, resource string, requester cryptoutil.Address) string {
	if t.owners[resource] == requester {
		return ""
	}
	if t.revoked[resource][requester] {
		return fmt.Sprintf("block %d tx %s authorized %s on %q after revocation without re-grant",
			height, txID.Short(), requester.Short(), resource)
	}
	return ""
}
