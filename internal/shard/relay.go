package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/merkle"
)

// This file is the gateway/relay pump — the off-chain half of the
// cross-shard protocol. Each member shard's gateway anchors a Merkle
// root over every block's cross-record leaves on the coordination
// chain; the coordinator validates inclusion proofs against those
// anchored roots and relays them (plus the proof-carrying 2PC
// transactions) to the counterpart shard. The pump is state-driven and
// idempotent: every round re-derives what is missing from the chains
// themselves, so crashes, lost transactions, and chaos interleavings
// are retried for free.

// topics the relay decodes from cross-contract receipts.
const (
	topicCrossPrepared = "CrossPrepared"
	topicCrossResolved = "CrossResolved"
)

// scanShard extends the leaf cache of member shard i with newly
// committed blocks: for every block, the canonical leaves (prepare
// records and resolutions, in transaction order) whose inclusion
// proofs the protocol later needs.
func (s *System) scanShard(i int) {
	id := s.shardIDs[i]
	n := s.shards[i].Best()
	if n == nil {
		return
	}
	s.scanned[id] = n.Committed(s.scanned[id], func(blk *ledger.Block, receipts []*contract.Receipt) {
		var leaves [][]byte
		for j, tx := range blk.Txs {
			if tx.Type != ledger.TxCross || !receipts[j].OK() {
				continue
			}
			for _, ev := range receipts[j].Events {
				switch ev.Topic {
				case topicCrossPrepared:
					var rec contract.CrossRecord
					if json.Unmarshal(ev.Data, &rec) == nil {
						leaves = append(leaves, rec.Leaf())
					}
				case topicCrossResolved:
					var res contract.CrossResolution
					if json.Unmarshal(ev.Data, &res) == nil {
						leaves = append(leaves, res.Leaf())
					}
				}
			}
		}
		if len(leaves) > 0 {
			if s.leaves[id] == nil {
				s.leaves[id] = make(map[uint64][][]byte)
			}
			s.leaves[id][blk.Header.Height] = leaves
		}
	})
}

// proveLeaf builds the inclusion proof of leaf in shard's block at
// height from the leaf cache.
func (s *System) proveLeaf(shardID string, height uint64, leaf []byte) (*merkle.Proof, cryptoutil.Digest, bool) {
	leaves := s.leaves[shardID][height]
	idx := -1
	for i, l := range leaves {
		if bytes.Equal(l, leaf) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, cryptoutil.ZeroDigest, false
	}
	tree := merkle.New(leaves)
	proof, err := tree.Prove(idx)
	if err != nil {
		return nil, cryptoutil.ZeroDigest, false
	}
	return proof, tree.Root(), true
}

// shardIndex maps a shard ID back to its cluster index (-1 if unknown).
func (s *System) shardIndex(id string) int {
	for i, sid := range s.shardIDs {
		if sid == id {
			return i
		}
	}
	return -1
}

// PumpRound advances every in-flight cross-shard transfer by one
// direction of the protocol: scan shard blocks, gateway-anchor new
// roots on the coordination chain and commit it, then relay each
// anchored root to the counterpart shard just ahead of the
// proof-carrying apply / expire (destination) or resolve (source) that
// depends on it — normally in the same block (see relayRoot) — and
// commit the member shards that got a transaction, concurrently. A
// transfer whose prepare has committed therefore settles in two rounds:
// one applies it, the next resolves it. It returns whether any
// transaction was submitted or a transfer waits on a root not anchored
// yet. Errors are soft — a chain that cannot commit this round (faults,
// partitions) is simply retried on the next call.
func (s *System) PumpRound() bool {
	for i := range s.shards {
		s.scanShard(i)
	}
	waiting := false
	submitted := make(map[*chain.Cluster]bool)
	sentAnchor := make(map[string]bool) // chainID+shard/height within this round

	// Stage 1: gateways anchor unanchored block roots on the
	// coordination chain. The anchoring right belongs to whichever
	// committee member holds the shard's lease on the coordination
	// chain; a dead holder leaves its shard silent until the lease
	// expires and a live standby takes it over.
	coordNode := s.coord.Best()
	if coordNode != nil {
		coordState := coordNode.State()
		for i, id := range s.shardIDs {
			gw := s.liveGatewayKey(i, coordState)
			if gw == nil {
				if s.maybeAcquireLease(i, coordNode) {
					submitted[s.coord] = true
				}
				continue
			}
			heights := make([]uint64, 0, len(s.leaves[id]))
			for h := range s.leaves[id] {
				heights = append(heights, h)
			}
			sort.Slice(heights, func(a, b int) bool { return heights[a] < heights[b] })
			for _, h := range heights {
				if _, ok := coordState.ShardRootAt(id, h); ok {
					continue
				}
				root := merkle.RootOf(s.leaves[id][h])
				args := contract.AnchorRootArgs{Shard: id, Height: h, Root: root}
				if err := s.submitCross(s.coord, gw, "anchor_root", args); err == nil {
					submitted[s.coord] = true
				}
			}
		}
		if submitted[s.coord] {
			_, _ = s.coord.CommitAll()
		}
	}

	// Stage 2: drive every pending transfer through relay + apply/expire
	// → relay + resolve, strictly state-driven. relayed relays shardID's
	// root at height to the target chain and returns leaf's proof once
	// the root anchored on the coordination chain verifies it; nil means
	// the transfer waits for the next round, or an anomaly names what of
	// it ("prepare", "resolution") could not be proven.
	relayed := func(id, what, shardID string, height uint64, leaf []byte, target *chain.Cluster, targetNode *chain.Node) *merkle.Proof {
		if !s.relayRoot(shardID, height, target, targetNode, sentAnchor, submitted) {
			waiting = true
			return nil
		}
		proof, root, ok := s.proveLeaf(shardID, height, leaf)
		if !ok {
			s.anomaly("transfer %s: %s proof unavailable", id, what)
			return nil
		}
		verified, decided := s.relayVerify(shardID, height, root)
		if !decided {
			return nil // coordination chain unreachable: retry next round
		}
		if !verified {
			s.anomaly("transfer %s: %s root mismatch", id, what)
			return nil
		}
		return proof
	}
	for i := range s.shards {
		srcCluster := s.shards[i]
		srcNode := srcCluster.Best()
		if srcNode == nil {
			continue
		}
		for _, prep := range srcNode.State().CrossOutboundAll() {
			if prep.Status != contract.CrossPending {
				continue
			}
			rec := prep.Record
			di := s.shardIndex(rec.DestShard)
			if di < 0 {
				s.anomaly("transfer %s: unknown dest shard %q", rec.ID, rec.DestShard)
				continue
			}
			destCluster := s.shards[di]
			destNode := destCluster.Best()
			if destNode == nil {
				continue
			}
			if res, ok := destNode.State().CrossInbound(rec.SourceShard, rec.ID); ok {
				// Destination decided: mirror the resolution back, right
				// behind the relayed destination root.
				proof := relayed(rec.ID, "resolution", rec.DestShard, res.DestHeight, res.Leaf(), srcCluster, srcNode)
				if proof == nil {
					continue
				}
				args := contract.CrossResolveArgs{Resolution: res, Proof: proof}
				if err := s.submitCross(srcCluster, s.coordKey, "resolve", args); err == nil {
					submitted[srcCluster] = true
				}
				continue
			}
			// Destination undecided: relay the source root and, right
			// behind it, apply (or expire past the deadline).
			proof := relayed(rec.ID, "prepare", rec.SourceShard, rec.SourceHeight, rec.Leaf(), destCluster, destNode)
			if proof == nil {
				continue
			}
			method := "apply"
			if destNode.Height()+1 > rec.DestExpiry {
				method = "expire"
			}
			args := contract.CrossApplyArgs{Record: rec, Proof: proof}
			if err := s.submitCross(destCluster, s.coordKey, method, args); err == nil {
				submitted[destCluster] = true
			}
		}
	}

	_ = s.commitShards(func(i int) bool { return submitted[s.shards[i]] })
	return waiting || len(submitted) > 0
}

// commitShards commits every member shard i with want(i), concurrently —
// shards share no state or transport, so this costs the slowest shard's
// CommitAll, not the sum — and returns once all of them have, joining
// their errors, each naming its shard.
func (s *System) commitShards(want func(i int) bool) error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, c := range s.shards {
		if !want(i) {
			continue
		}
		wg.Add(1)
		go func(i int, c *chain.Cluster) {
			defer wg.Done()
			if _, err := c.CommitAll(); err != nil {
				errs[i] = fmt.Errorf("%s: %w", s.shardIDs[i], err)
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// liveGatewayKey returns the committee key currently entitled to
// anchor shard i's roots — the on-chain lease holder — or nil when
// that member's process is dead (see KillGateway).
func (s *System) liveGatewayKey(i int, coordState *contract.State) *cryptoutil.KeyPair {
	holder := s.committees[i][0].Address()
	if info, ok := coordState.ShardInfoOf(s.shardIDs[i]); ok {
		holder = info.Gateway
	}
	if s.deadGW[holder] {
		return nil
	}
	for _, kp := range s.committees[i] {
		if kp.Address() == holder {
			return kp
		}
	}
	return nil
}

// skipLeaseExpiry is a mutation seam (export_test.go sets it): standby
// committee members never bid for an expired lease, so a dead gateway
// stalls its shard's anchoring and the sharded sim's failover checks
// must fail. False outside tests.
var skipLeaseExpiry bool

// maybeAcquireLease lets the first live standby of shard i's committee
// bid for the anchoring lease once the on-chain holder has been silent
// past the lease bound. The contract re-checks expiry at execution
// height, so a racing or premature bid fails harmlessly on-chain.
func (s *System) maybeAcquireLease(i int, coordNode *chain.Node) bool {
	if skipLeaseExpiry {
		return false
	}
	info, ok := coordNode.State().ShardInfoOf(s.shardIDs[i])
	if !ok || !info.LeaseExpired(coordNode.Height()+1) {
		return false
	}
	for _, kp := range s.committees[i] {
		if kp.Address() == info.Gateway || s.deadGW[kp.Address()] {
			continue
		}
		args := contract.AcquireLeaseArgs{Shard: s.shardIDs[i]}
		if err := s.submitCross(s.coord, kp, "acquire_lease", args); err == nil {
			return true
		}
	}
	return false
}

// relayRoot makes shard's root at height available to a transaction
// the coordinator submits to target next, and reports whether it is:
// true when the root is already in the target's state, or when the
// coordinator relayed it this round (now, or for an earlier transfer
// from the same block). A relayed anchor_root and the dependent
// apply / expire / resolve are both signed by the coordinator through
// SubmitSigned, which enters both through the target's proposer, so
// they ride one block with nonce order putting the root first. A block
// can never hold the dependent transaction without the root (that breaks
// the nonce sequence), so at worst the root commits one block ahead.
// The method table's footprints (anchor_root writes the root key, the
// dependent transaction reads it) order the two under mvcc-wave too.
// False means wait for a later round: the root is not anchored on the
// coordination chain yet, the coordination chain is unreachable, or the
// target refused the relay.
func (s *System) relayRoot(shardID string, height uint64, target *chain.Cluster, targetNode *chain.Node, sentAnchor map[string]bool, submitted map[*chain.Cluster]bool) bool {
	if _, ok := targetNode.State().ShardRootAt(shardID, height); ok {
		return true
	}
	key := target.Node(0).Chain().ChainID() + "|" + shardID + "|" + fmt.Sprint(height)
	if sentAnchor[key] {
		return true
	}
	coordNode := s.coord.Best()
	if coordNode == nil {
		return false
	}
	anchored, ok := coordNode.State().ShardRootAt(shardID, height)
	if !ok {
		return false // gateway has not anchored yet
	}
	args := contract.AnchorRootArgs{Shard: shardID, Height: height, Root: anchored.Root}
	if err := s.submitCross(target, s.coordKey, "anchor_root", args); err != nil {
		return false
	}
	sentAnchor[key] = true
	submitted[target] = true
	return true
}

// relayVerify is the coordinator's own proof-path check: the root the
// relay computed from scanned leaves must equal the root anchored on
// the coordination chain. verified=false with decided=true means a
// gateway anchored something the blocks do not support — the relay
// refuses to build proofs on it. decided=false means the coordination
// chain is unreachable (or the root not yet anchored there): not a
// protocol violation, just a round to retry.
func (s *System) relayVerify(shardID string, height uint64, computed cryptoutil.Digest) (verified, decided bool) {
	coordNode := s.coord.Best()
	if coordNode == nil {
		return false, false
	}
	anchored, ok := coordNode.State().ShardRootAt(shardID, height)
	if !ok {
		return false, false
	}
	return anchored.Root == computed, true
}

// PendingTransfers counts transfers still awaiting settlement across
// all member shards (read from the best node of each).
func (s *System) PendingTransfers() int {
	pending := 0
	for _, c := range s.shards {
		n := c.Best()
		if n == nil {
			continue
		}
		for _, prep := range n.State().CrossOutboundAll() {
			if prep.Status == contract.CrossPending {
				pending++
			}
		}
	}
	return pending
}

// Pump runs PumpRound until every transfer settles or a round makes no
// progress, bounded by maxRounds. It returns the number of rounds run.
func (s *System) Pump(maxRounds int) int {
	rounds := 0
	for rounds < maxRounds {
		progress := s.PumpRound()
		rounds++
		if s.PendingTransfers() == 0 {
			break
		}
		if !progress {
			break
		}
	}
	return rounds
}

// SubmitPrepare signs and submits a cross-shard prepare on source shard
// src. A zero DestExpiry is defaulted to the destination chain's
// current height plus the configured deadline window.
func (s *System) SubmitPrepare(src int, key *cryptoutil.KeyPair, args contract.CrossPrepareArgs) error {
	if args.DestExpiry == 0 {
		di := s.shardIndex(args.DestShard)
		if di < 0 {
			return fmt.Errorf("shard: unknown dest shard %q", args.DestShard)
		}
		if n := s.shards[di].Best(); n != nil {
			args.DestExpiry = n.Height() + s.cfg.DestExpiryBlocks
		} else {
			args.DestExpiry = s.cfg.DestExpiryBlocks
		}
	}
	return s.submitCross(s.shards[src], key, "prepare", args)
}

// SubmitSigned is the one place a transaction gets its nonce, its
// timestamp (unless the caller set one) and its signature before it is
// gossiped: the relay, the coordinator and both core facades all come
// through here, so they share one nonce view. The nonce is the highest
// pool-aware pending nonce any running node reports, and the
// transaction enters through the node that reported it: that node holds
// the sender's whole pending run, counts the new transaction at once,
// and so answers the next call correctly while gossip to the others —
// a lagging or just-restarted one included — is still in flight. Among
// nodes reporting the same nonce it enters through c.Proposer(), so the
// next round's proposer holds it without waiting on gossip. Nothing is
// remembered between calls, so a refused submit leaves no gap behind.
// Callers sharing a key across goroutines serialise their calls
// (core.Account does).
func SubmitSigned(c *chain.Cluster, key *cryptoutil.KeyPair, tx *ledger.Transaction) error {
	best := c.Best()
	if best == nil {
		return chain.ErrStopped
	}
	via := c.Proposer()
	if !via.Running() {
		via = best
	}
	tx.Nonce = via.PendingNonce(key.Address())
	for _, i := range c.RunningNodes() {
		if p := c.Node(i).PendingNonce(key.Address()); p > tx.Nonce {
			via, tx.Nonce = c.Node(i), p
		}
	}
	if tx.Timestamp == 0 {
		tx.Timestamp = tsFor(best)
	}
	if err := tx.Sign(key); err != nil {
		return err
	}
	if via.Gossip(tx) == nil {
		return nil
	}
	// The node with the freshest view refused (shedding, a full pool, a
	// stop in between): any running node that admits it will do.
	return c.Submit(tx)
}
