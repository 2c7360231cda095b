package ledger

import (
	"errors"
	"sync"

	"medchain/internal/cryptoutil"
	"medchain/internal/par"
)

// ErrNilTx rejects a nil transaction pointer (a decoded block may carry
// a JSON null in its transaction list).
var ErrNilTx = errors.New("ledger: nil transaction")

// verifiedGenSize bounds one generation of a chain's verified set. It
// is the mempool's default capacity (chain.MempoolConfig.Capacity), so
// every transaction a default-sized pool can hold keeps its mark from
// admission to commit. Two generations of 32-byte keys are at most
// 16 384 map entries, 1.25 MiB per chain when full (measured).
const verifiedGenSize = 8192

// verifiedSet remembers which transactions this chain instance has
// already passed through Transaction.Verify. It holds successes only
// and is bounded by a two-generation swap: inserts go to cur, and when
// cur reaches verifiedGenSize it becomes old and the previous old is
// dropped, so the last verifiedGenSize successes are always present and
// at most 2·verifiedGenSize entries exist. An evicted transaction is
// simply verified again.
type verifiedSet struct {
	mu       sync.Mutex
	cur, old map[cryptoutil.Digest]struct{}
	// verifies counts Transaction.Verify runs, hits counts lookups that
	// made one unnecessary.
	verifies, hits uint64
}

// verifiedKey binds the mark to the signature as well as the signed
// fields: tx.ID() covers type, sender, public key and payload but not
// Sig, so an ID-only key would let a forged signature ride on the ID of
// a transaction verified earlier.
func verifiedKey(id cryptoutil.Digest, sig cryptoutil.Signature) cryptoutil.Digest {
	return cryptoutil.SumAll([]byte("medchain/verified"), id[:], sig[:])
}

func (s *verifiedSet) has(key cryptoutil.Digest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.cur[key]
	if !ok {
		_, ok = s.old[key]
	}
	if ok {
		s.hits++
	}
	return ok
}

// note records one Transaction.Verify run and, if it passed, the mark.
func (s *verifiedSet) note(key cryptoutil.Digest, passed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.verifies++
	if !passed {
		return
	}
	if len(s.cur) >= verifiedGenSize {
		s.old, s.cur = s.cur, nil
	}
	if s.cur == nil {
		s.cur = make(map[cryptoutil.Digest]struct{})
	}
	s.cur[key] = struct{}{}
}

// VerifyTx is the transaction path's one signature check: mempool
// admission, gossip ingress, Validate and Append all come through it.
// It returns tx.Verify()'s verdict, running ECDSA only the first time
// this chain instance sees these exact signed fields and signature
// bytes, and returns tx.ID() so callers hash the payload once.
//
// The set belongs to the chain instance: nodes exchange encoded bytes,
// never marks, so each node still verifies every transaction itself,
// and a chain rebuilt by recovery starts with none of the old marks.
func (c *Chain) VerifyTx(tx *Transaction) (cryptoutil.Digest, error) {
	if tx == nil {
		return cryptoutil.ZeroDigest, ErrNilTx
	}
	id := tx.ID()
	key := verifiedKey(id, tx.Sig)
	if c.verified.has(key) {
		return id, nil
	}
	// ECDSA runs outside the set's lock; two goroutines racing on one
	// new transaction both verify it, which is only wasted work.
	err := tx.Verify()
	c.verified.note(key, err == nil)
	return id, err
}

// VerifyWindow is how many transactions a caller may put through
// VerifyTxs in one batch while the batch before it is still being
// appended. Two batches are then the most marks placed between a
// transaction's own mark and the Append that looks it up, and the set
// keeps the last verifiedGenSize marks, so none is evicted unread and
// each transaction costs one ECDSA. A block holding more than
// VerifyWindow transactions goes in a batch of its own; the bound still
// holds up to verifiedGenSize − VerifyWindow of them, and past that an
// evicted mark is verified again by Append — slower, never wrong.
const VerifyWindow = verifiedGenSize / 16

// VerifyTxs runs VerifyTx on every transaction, on every core
// (GOMAXPROCS goroutines, inline at 1), and returns when all are done.
// It only warms the verified set: verdicts are dropped, because Validate
// and Append reach each transaction again in block order and report the
// first failure there, where a failed or nil transaction is simply
// checked again.
func (c *Chain) VerifyTxs(txs []*Transaction) {
	par.ForEachN(len(txs), 0, func(i int) { c.VerifyTx(txs[i]) })
}

// VerifyCounts reports how many times VerifyTx ran Transaction.Verify
// and how many times the verified set answered instead.
func (c *Chain) VerifyCounts() (verifies, hits uint64) {
	c.verified.mu.Lock()
	defer c.verified.mu.Unlock()
	return c.verified.verifies, c.verified.hits
}
