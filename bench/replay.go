package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"medchain/internal/analytics"
	"medchain/internal/blob"
	"medchain/internal/chain"
	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/emr"
	"medchain/internal/guard"
	"medchain/internal/indexer"
	"medchain/internal/ledger"
	"medchain/internal/merkle"
	"medchain/internal/parexec"
	"medchain/internal/query"
	"medchain/internal/store"
)

// replayInput is what a traced run hands to the layer replay: the
// blocks one node committed, and what is needed to check them.
type replayInput struct {
	chainID    string
	keySeed    string // the cluster's validator key seed
	nodes      int
	blocks     []*ledger.Block // heights 1..head of node 0
	windowFrom uint64          // first block of the measured window
	records    []*emr.Record   // platform-query only: the hosted records
	dir        string          // scratch directory on the real disk
}

// nodeBlocks copies a node's committed blocks above genesis.
func nodeBlocks(n *chain.Node) []*ledger.Block {
	var out []*ledger.Block
	n.Chain().Walk(func(b *ledger.Block) bool {
		if b.Header.Height > 0 {
			out = append(out, b)
		}
		return true
	})
	return out
}

const (
	replayRunTxs   = 1024 // transaction-level layers replay the window's first blocks up to this many transactions
	replayRootSamp = 48   // blocks of the window whose root and clone are timed and checked
	replayRecords  = 200  // records the data-plane layers replay
)

// timed returns how long one call of fn takes.
func timed(fn func()) time.Duration {
	s := time.Now()
	fn()
	return time.Since(s)
}

// layerReplay feeds the committed blocks, single-threaded, through each
// layer's exported functions with every check on, and returns the
// per-layer costs. A failed check is returned as a problem: replay that
// disagrees with what the cluster committed is a wrong output.
func layerReplay(in replayInput) (map[string]float64, []string) {
	m := make(map[string]float64)
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, "replay: "+fmt.Sprintf(format, args...)) }
	if len(in.blocks) == 0 {
		bad("no committed blocks")
		return m, problems
	}

	var window []*ledger.Block
	totalTxs := 0
	for _, b := range in.blocks {
		totalTxs += len(b.Txs)
		if b.Header.Height >= in.windowFrom {
			window = append(window, b)
		}
	}
	if len(window) == 0 {
		window = in.blocks
	}
	// run: the window's first blocks, whole, so every sender's nonces
	// in it are contiguous.
	var run []*ledger.Block
	var txs []*ledger.Transaction
	for _, b := range window {
		if len(run) > 0 && len(txs)+len(b.Txs) > replayRunTxs {
			break
		}
		run = append(run, b)
		txs = append(txs, b.Txs...)
	}
	n := float64(len(txs))
	if n == 0 {
		bad("window holds no transactions")
		return m, problems
	}

	// cryptoutil, ledger (transaction level), contract access sets.
	ids := make([]cryptoutil.Digest, len(txs))
	for i, tx := range txs {
		ids[i] = tx.ID()
	}
	kp := mustKey(0, "replay")
	m["cryptoutil.sign_us"] = us(timed(func() {
		for _, id := range ids {
			if _, err := kp.Sign(id); err != nil {
				bad("sign: %v", err)
			}
		}
	})) / n
	var verify, txVerify, enc, dec, access time.Duration
	for i, tx := range txs {
		pub, err := cryptoutil.DecodePublicKey(tx.PubKey)
		if err != nil {
			bad("tx %s public key: %v", ids[i].Short(), err)
			continue
		}
		verify += timed(func() {
			if !cryptoutil.Verify(pub, ids[i], tx.Sig) {
				bad("tx %s signature does not verify", ids[i].Short())
			}
		})
		txVerify += timed(func() {
			if err := tx.Verify(); err != nil {
				bad("tx %s: %v", ids[i].Short(), err)
			}
		})
		var raw []byte
		enc += timed(func() { raw, err = tx.Encode() })
		if err != nil {
			bad("encode tx: %v", err)
			continue
		}
		dec += timed(func() {
			back, err := ledger.DecodeTransaction(raw)
			if err != nil || back.ID() != ids[i] {
				bad("tx %s does not survive encode/decode", ids[i].Short())
			}
		})
		access += timed(func() { _ = contract.AccessSetOf(tx) })
	}
	m["cryptoutil.verify_us"] = us(verify) / n
	m["ledger.tx_verify_us"] = us(txVerify) / n
	m["ledger.tx_encode_us"] = us(enc) / n
	m["ledger.tx_decode_us"] = us(dec) / n
	m["contract.access_set_us_per_tx"] = us(access) / n

	// chain mempool and guard admission.
	first := make(map[cryptoutil.Address]uint64)
	next := make(map[cryptoutil.Address]uint64)
	for _, tx := range txs {
		if _, ok := first[tx.From]; !ok {
			first[tx.From] = tx.Nonce
		}
		next[tx.From] = tx.Nonce + 1
	}
	pool := chain.NewMempool(chain.MempoolConfig{})
	adm := guard.NewAdmission(guard.AdmissionConfig{})
	height := run[0].Header.Height - 1
	var admit time.Duration
	m["chain.mempool_add_us"] = us(timed(func() {
		for _, tx := range txs {
			if err := pool.Add(tx, chain.ClassOf(tx.Type), first[tx.From], height); err != nil {
				bad("mempool add: %v", err)
			}
		}
	})) / n
	for _, tx := range txs {
		size := int64(len(tx.Args) + len(tx.Method) + len(tx.PubKey) + 128)
		admit += timed(func() {
			if d := adm.Decide(tx.From.String(), chain.ClassOf(tx.Type), size, pool.Fill()); !d.Admit {
				bad("admission refused tx: %s", d.Reason)
			}
		})
	}
	m["guard.admit_us"] = us(admit) / n
	m["chain.mempool_take_us_per_tx"] = us(timed(func() {
		if got := pool.Take(0, height, func(a cryptoutil.Address) uint64 { return first[a] }); len(got) != len(txs) {
			bad("mempool take returned %d of %d", len(got), len(txs))
		}
	})) / n
	m["chain.mempool_remove_us_per_tx"] = us(timed(func() {
		for _, b := range run {
			pool.RemoveCommitted(b, func(a cryptoutil.Address) uint64 { return next[a] })
		}
	})) / n
	if pool.Size() != 0 {
		bad("mempool holds %d after removing every committed block", pool.Size())
	}

	// ledger (block level), consensus, merkle.
	keys := make([]*cryptoutil.KeyPair, in.nodes)
	byAddr := make(map[cryptoutil.Address]*cryptoutil.KeyPair)
	for i := range keys {
		k, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("%s/node-%d", in.keySeed, i))
		if err != nil {
			bad("validator key: %v", err)
			return m, problems
		}
		keys[i] = k
		byAddr[k.Address()] = k
	}
	vals, err := consensus.NewValidatorSet(keys)
	if err != nil {
		bad("validator set: %v", err)
		return m, problems
	}
	quorum := consensus.NewQuorum(vals)
	var benc, bdec, troot, seal, signP, signV, verV time.Duration
	biggest := run[0]
	for _, b := range run {
		if len(b.Txs) > len(biggest.Txs) {
			biggest = b
		}
		var raw []byte
		benc += timed(func() { raw, err = b.Encode() })
		if err != nil {
			bad("encode block: %v", err)
			continue
		}
		bdec += timed(func() {
			back, err := ledger.DecodeBlock(raw)
			if err != nil || back.Hash() != b.Hash() {
				bad("block %d does not survive encode/decode", b.Header.Height)
			}
		})
		troot += timed(func() {
			if root, err := ledger.ComputeTxRoot(b.Txs); err != nil || root != b.Header.TxRoot {
				bad("block %d tx root mismatch", b.Header.Height)
			}
		})
		seal += timed(func() {
			if err := quorum.VerifySeal(b); err != nil {
				bad("block %d seal: %v", b.Header.Height, err)
			}
		})
		proposer := byAddr[b.Header.Proposer]
		if proposer == nil {
			bad("block %d proposer is not a validator", b.Header.Height)
			continue
		}
		signP += timed(func() {
			if _, err := consensus.SignProposal(b, proposer); err != nil {
				bad("sign proposal: %v", err)
			}
		})
		var vote consensus.Vote
		signV += timed(func() { vote, err = consensus.SignVote(b.Header.Height, b.Hash(), proposer) })
		verV += timed(func() {
			if err := consensus.VerifyVote(vote, vals); err != nil {
				bad("verify vote: %v", err)
			}
		})
	}
	nb := float64(len(run))
	m["ledger.block_encode_us_per_tx"] = us(benc) / n
	m["ledger.block_decode_us_per_tx"] = us(bdec) / n
	m["ledger.txroot_us_per_tx"] = us(troot) / n
	m["consensus.verify_seal_us_per_block"] = us(seal) / nb
	m["consensus.sign_proposal_us"] = us(signP) / nb
	m["consensus.sign_vote_us"] = us(signV) / nb
	m["consensus.verify_vote_us"] = us(verV) / nb

	leaves := make([][]byte, len(biggest.Txs))
	for i, tx := range biggest.Txs {
		leaves[i], _ = tx.Encode()
	}
	if len(leaves) > 0 {
		var tree *merkle.Tree
		m["merkle.build_us_per_leaf"] = us(timed(func() { tree = merkle.New(leaves) })) / float64(len(leaves))
		var prove, mverify time.Duration
		for i := range leaves {
			var proof *merkle.Proof
			prove += timed(func() { proof, err = tree.Prove(i) })
			if err != nil {
				bad("merkle prove: %v", err)
				continue
			}
			mverify += timed(func() {
				if !merkle.Verify(tree.Root(), leaves[i], proof) {
					bad("merkle proof %d does not verify", i)
				}
			})
		}
		m["merkle.prove_us"] = us(prove) / float64(len(leaves))
		m["merkle.verify_us"] = us(mverify) / float64(len(leaves))
	}

	// ledger validate/append and contract apply/root/clone over the
	// whole chain: roots are checked on the sampled window blocks and on
	// the head.
	lc := ledger.NewChain(in.chainID)
	st := contract.NewState()
	var receipts []*contract.Receipt
	var validate, appendT, apply, rootT, cloneT time.Duration
	var windowStart *contract.State
	applied, rooted := 0, 0
	every := max(1, len(window)/replayRootSamp)
	for i, b := range in.blocks {
		validate += timed(func() { err = lc.Validate(b) })
		if err != nil {
			bad("validate block %d: %v", b.Header.Height, err)
			return m, problems
		}
		appendT += timed(func() { err = lc.Append(b) })
		if err != nil {
			bad("append block %d: %v", b.Header.Height, err)
			return m, problems
		}
		inWindow := b.Header.Height >= window[0].Header.Height
		if inWindow && windowStart == nil {
			windowStart = st.Clone()
		}
		d := timed(func() {
			for _, tx := range b.Txs {
				r, err := st.Apply(tx, b.Header.Height, b.Header.Timestamp)
				if err != nil {
					bad("apply: %v", err)
					continue
				}
				receipts = append(receipts, r)
			}
		})
		if !inWindow {
			continue
		}
		apply += d
		applied += len(b.Txs)
		if (int(b.Header.Height-window[0].Header.Height)%every) != 0 && i != len(in.blocks)-1 {
			continue
		}
		rooted++
		rootT += timed(func() {
			if st.Root() != b.Header.StateRoot {
				bad("block %d state root mismatch on replay", b.Header.Height)
			}
		})
		cloneT += timed(func() { _ = st.Clone() })
	}
	m["ledger.validate_us_per_tx"] = ratio(us(validate), float64(totalTxs))
	m["ledger.append_us_per_block"] = us(appendT) / float64(len(in.blocks))
	m["contract.apply_us_per_tx"] = ratio(us(apply), float64(applied))
	m["contract.root_ms_per_block"] = ratio(ms(rootT), float64(rooted))
	m["contract.clone_ms_per_block"] = ratio(ms(cloneT), float64(rooted))
	var ex *contract.StateExport
	m["contract.export_ms"] = ms(timed(func() { ex = st.Export() }))
	m["contract.import_ms"] = ms(timed(func() {
		if contract.ImportState(ex).Root() != st.Root() {
			bad("imported state root differs")
		}
	}))
	m["contract.state_keys"] = float64(len(ex.Datasets) + len(ex.Tools) + len(ex.Trials) + len(ex.Anchors) + len(ex.Evidence) +
		len(ex.Policies) + len(ex.Deployed) + len(ex.ManifestSets) + len(ex.ShardDir) + len(ex.ShardRoots) +
		len(ex.CrossOut) + len(ex.CrossIn) + len(ex.FLRounds))

	// parexec: the window again through the MVCC wave engine.
	eng := parexec.NewEngine(parexec.Config{Workers: runtime.NumCPU(), Mode: parexec.ModeMVCCWave})
	var ptime time.Duration
	for _, b := range window {
		ptime += timed(func() {
			if _, _, err := eng.ExecuteBlock(windowStart, b.Txs, b.Header.Height, b.Header.Timestamp); err != nil {
				bad("parexec block %d: %v", b.Header.Height, err)
			}
		})
	}
	if windowStart.Root() != st.Root() {
		bad("parallel execution diverges from serial")
	}
	ps := eng.Stats()
	m["parexec.exec_us_per_tx"] = ratio(us(ptime), float64(ps.Txs))
	m["parexec.clean_ratio"] = ratio(float64(ps.Clean), float64(ps.Txs))
	m["parexec.waves_per_block"] = ratio(float64(ps.Waves), float64(ps.Blocks))

	// store: append and fsync on the real disk, full replay without a
	// snapshot, then snapshot and snapshot recovery.
	opts := store.Options{Dir: filepath.Join(in.dir, "replay-store"), ChainID: in.chainID, SyncEvery: 1 << 30}
	sto, _, err := store.Open(opts)
	if err != nil {
		bad("open store: %v", err)
		return m, problems
	}
	var sappend, ssync time.Duration
	synced := 0
	for _, b := range in.blocks {
		sappend += timed(func() { err = sto.AppendBlock(b) })
		if err != nil {
			bad("store append %d: %v", b.Header.Height, err)
		}
		if b.Header.Height >= window[0].Header.Height && synced < replayRootSamp {
			synced++
			ssync += timed(func() { err = sto.Sync() })
			if err != nil {
				bad("store sync: %v", err)
			}
		}
	}
	m["store.append_us_per_block"] = us(sappend) / float64(len(in.blocks))
	m["store.sync_us_per_block"] = ratio(us(ssync), float64(synced))
	if err := sto.Sync(); err != nil {
		bad("store sync: %v", err)
	}
	sto.Close()
	sto, rec, err := store.Open(opts)
	if err != nil {
		bad("recover store by replay: %v", err)
		return m, problems
	}
	if rec.Height != lc.Height() || rec.State.Root() != st.Root() {
		bad("store replay recovered height %d root mismatch", rec.Height)
	}
	m["store.replay_us_per_tx"] = ratio(us(rec.Elapsed), float64(totalTxs))
	m["store.snapshot_ms"] = ms(timed(func() {
		if wrote, err := sto.MaybeSnapshot(lc, st, receipts, true); err != nil || !wrote {
			bad("snapshot: wrote %v: %v", wrote, err)
		}
	}))
	sto.Close()
	sto, rec, err = store.Open(opts)
	if err != nil {
		bad("recover store from snapshot: %v", err)
		return m, problems
	}
	sto.Close()
	if rec.SnapshotHeight != lc.Height() || rec.State.Root() != st.Root() {
		bad("snapshot recovery at height %d (snapshot %d) root mismatch", rec.Height, rec.SnapshotHeight)
	}
	m["store.open_recover_ms"] = ms(rec.Elapsed)

	if len(in.records) > 0 {
		replayDataPlane(in.records[:min(len(in.records), replayRecords)], m, bad)
	}
	return m, problems
}

// replayDataPlane times the off-chain layers platform-query exercises,
// over the hosted records.
func replayDataPlane(records []*emr.Record, m map[string]float64, bad func(string, ...any)) {
	n := float64(len(records))
	bs, err := blob.Open(store.NewMemFS(), "blobs", 0)
	if err != nil {
		bad("open blob store: %v", err)
		return
	}
	ix := indexer.NewIndex()
	var enc, dec, put, get time.Duration
	for i, r := range records {
		format := emr.Formats[i%len(emr.Formats)]
		var data []byte
		enc += timed(func() { data, err = emr.EncodeAs(format, []*emr.Record{r}, "site-0") })
		if err != nil {
			bad("emr encode: %v", err)
			continue
		}
		dec += timed(func() {
			back, err := emr.DecodeAs(format, data)
			if err != nil || len(back) != 1 || back[0].Patient.ID != r.Patient.ID {
				bad("record %s does not survive %s", r.Patient.ID, format)
			}
		})
		var man *blob.Manifest
		put += timed(func() { man, err = bs.Put(r.Patient.ID, format, data) })
		if err != nil {
			bad("blob put: %v", err)
			continue
		}
		get += timed(func() {
			back, _, err := bs.Get(r.Patient.ID)
			if err != nil || len(back) != len(data) {
				bad("blob get %s: %v", r.Patient.ID, err)
			}
		})
		doc, err := indexer.DocFrom("site-0/emr", r.Patient.ID, format, man.Root, 1, data)
		if err != nil {
			bad("index doc: %v", err)
			continue
		}
		ix.Add(doc)
	}
	m["emr.encode_us"] = us(enc) / n
	m["emr.decode_us"] = us(dec) / n
	m["blob.put_us"] = us(put) / n
	m["blob.get_us"] = us(get) / n

	reg := analytics.NewRegistry()
	refs := []query.DatasetRef{{ID: "site-0/emr", SiteID: "site-0", Records: len(records)}, {ID: "site-1/emr", SiteID: "site-1", Records: len(records)}}
	var parse, decompose, compose, count, cands time.Duration
	queries := 0
	for _, cond := range pqConditions {
		for _, sex := range pqSexWords {
			queries++
			q := fmt.Sprintf("count %s with %s aged 40-70", sex, cond)
			var v *query.Vector
			parse += timed(func() { v, err = query.Parse(q) })
			if err != nil {
				bad("parse %q: %v", q, err)
				continue
			}
			var plan *query.Plan
			decompose += timed(func() { plan, err = query.Decompose(v, refs) })
			if err != nil {
				bad("decompose %q: %v", q, err)
				continue
			}
			tool, _ := reg.Get(plan.Tool)
			parts := make([]json.RawMessage, len(plan.Subs))
			for i, sub := range plan.Subs {
				if parts[i], err = tool.Run(records, sub.Params); err != nil {
					bad("run %s: %v", plan.Tool, err)
				}
			}
			var out json.RawMessage
			compose += timed(func() { out, _, err = query.Compose(reg, plan, parts) })
			var got analytics.CohortCountResult
			if err != nil || json.Unmarshal(out, &got) != nil || got.Cases != len(plan.Subs)*truth(v, records) {
				bad("compose %q: cases %d, want %d: %v", q, got.Cases, len(plan.Subs)*truth(v, records), err)
			}
			iq := v.IndexQuery()
			count += timed(func() {
				if ix.Count(iq) != truth(v, records) {
					bad("index count %q disagrees with a scan", q)
				}
			})
			cands += timed(func() {
				if len(ix.Candidates(iq)) != truth(v, records) {
					bad("index candidates %q disagree with a scan", q)
				}
			})
		}
	}
	nq := float64(queries)
	m["query.parse_us"] = us(parse) / nq
	m["query.decompose_us"] = us(decompose) / nq
	m["query.compose_us"] = us(compose) / nq
	m["indexer.count_us"] = us(count) / nq
	m["indexer.candidates_us"] = us(cands) / nq
}
