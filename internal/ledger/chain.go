package ledger

import (
	"errors"
	"fmt"
	"sync"

	"medchain/internal/cryptoutil"
)

// Chain validation errors.
var (
	ErrBadParent    = errors.New("ledger: block parent does not match chain head")
	ErrBadHeight    = errors.New("ledger: block height is not head+1")
	ErrBadTxRoot    = errors.New("ledger: tx root mismatch")
	ErrDuplicateTx  = errors.New("ledger: transaction already on chain")
	ErrBadNonce     = errors.New("ledger: transaction nonce out of order")
	ErrNotFound     = errors.New("ledger: not found")
	ErrNilBlock     = errors.New("ledger: nil block")
	ErrBadTimestamp = errors.New("ledger: block timestamp before parent")
	ErrTxExpired    = errors.New("ledger: transaction expired before commit")
)

// Chain is a validating, append-only block store with a transaction
// index. It is safe for concurrent use.
type Chain struct {
	mu      sync.RWMutex
	blocks  []*Block
	txIndex map[cryptoutil.Digest]uint64 // tx ID -> block height
	nonces  map[cryptoutil.Address]uint64
	chainID string

	// verified has its own lock, not c.mu: VerifyTx is called with c.mu
	// read-held (Validate), write-held (Append) and not held at all
	// (mempool admission).
	verified verifiedSet
}

// NewChain creates a chain holding only the genesis block for chainID.
func NewChain(chainID string) *Chain {
	g := NewGenesis(chainID)
	c := &Chain{
		txIndex: make(map[cryptoutil.Digest]uint64),
		nonces:  make(map[cryptoutil.Address]uint64),
		chainID: chainID,
	}
	c.blocks = append(c.blocks, g)
	return c
}

// ChainID returns the chain identifier.
func (c *Chain) ChainID() string { return c.chainID }

// Head returns the latest block.
func (c *Chain) Head() *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[len(c.blocks)-1]
}

// Height returns the head height.
func (c *Chain) Height() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[len(c.blocks)-1].Header.Height
}

// Genesis returns block 0.
func (c *Chain) Genesis() *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[0]
}

// BlockAt returns the block at the given height.
func (c *Chain) BlockAt(height uint64) (*Block, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if height >= uint64(len(c.blocks)) {
		return nil, fmt.Errorf("%w: height %d > head %d", ErrNotFound, height, len(c.blocks)-1)
	}
	return c.blocks[height], nil
}

// HasTx reports whether a transaction is already on chain.
func (c *Chain) HasTx(id cryptoutil.Digest) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.txIndex[id]
	return ok
}

// FindTx returns the transaction and the height of its block.
func (c *Chain) FindTx(id cryptoutil.Digest) (*Transaction, uint64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h, ok := c.txIndex[id]
	if !ok {
		return nil, 0, fmt.Errorf("%w: tx %s", ErrNotFound, id.Short())
	}
	for _, tx := range c.blocks[h].Txs {
		if tx.ID() == id {
			return tx, h, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: tx %s (index stale)", ErrNotFound, id.Short())
}

// NextNonce returns the nonce the given sender must use next.
func (c *Chain) NextNonce(addr cryptoutil.Address) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nonces[addr]
}

// validate checks b against the current head without mutating chain
// state and returns the transaction IDs it computed, in block order.
// Caller holds c.mu.
func (c *Chain) validate(b *Block) ([]cryptoutil.Digest, error) {
	if b == nil {
		return nil, ErrNilBlock
	}
	head := c.blocks[len(c.blocks)-1]
	if b.Header.Parent != head.Hash() {
		return nil, fmt.Errorf("%w: parent %s, head %s", ErrBadParent, b.Header.Parent.Short(), head.Hash().Short())
	}
	if b.Header.Height != head.Header.Height+1 {
		return nil, fmt.Errorf("%w: height %d, head %d", ErrBadHeight, b.Header.Height, head.Header.Height)
	}
	if b.Header.Timestamp < head.Header.Timestamp {
		return nil, ErrBadTimestamp
	}
	root, err := ComputeTxRoot(b.Txs)
	if err != nil {
		return nil, err
	}
	if root != b.Header.TxRoot {
		return nil, fmt.Errorf("%w: computed %s, header %s", ErrBadTxRoot, root.Short(), b.Header.TxRoot.Short())
	}
	expected := make(map[cryptoutil.Address]uint64, 4)
	seen := make(map[cryptoutil.Digest]bool, len(b.Txs))
	ids := make([]cryptoutil.Digest, len(b.Txs))
	for i, tx := range b.Txs {
		id, err := c.VerifyTx(tx)
		if err != nil {
			return nil, fmt.Errorf("ledger: tx %d: %w", i, err)
		}
		if tx.ExpiredAt(b.Header.Height) {
			return nil, fmt.Errorf("%w: tx %d deadline %d, block height %d",
				ErrTxExpired, i, tx.Expiry, b.Header.Height)
		}
		if seen[id] || c.hasTxLocked(id) {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateTx, id.Short())
		}
		seen[id] = true
		ids[i] = id
		want, ok := expected[tx.From]
		if !ok {
			want = c.nonces[tx.From]
		}
		if tx.Nonce != want {
			return nil, fmt.Errorf("%w: tx %d from %s has nonce %d, want %d",
				ErrBadNonce, i, tx.From.Short(), tx.Nonce, want)
		}
		expected[tx.From] = want + 1
	}
	return ids, nil
}

func (c *Chain) hasTxLocked(id cryptoutil.Digest) bool {
	_, ok := c.txIndex[id]
	return ok
}

// Validate checks whether b could be appended right now.
func (c *Chain) Validate(b *Block) error {
	_, err := c.ValidateForAppend(b)
	return err
}

// Validated is a block that passed validation against the head the
// chain had then. AppendValidated takes it in place of a second
// validation.
type Validated struct {
	block *Block
	ids   []cryptoutil.Digest
	head  *Block
}

// ValidateForAppend is Validate for a caller that goes on to append the
// block: what validation computed comes back, so the append does not
// compute it again. The caller must not modify b in between.
func (c *Chain) ValidateForAppend(b *Block) (*Validated, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids, err := c.validate(b)
	if err != nil {
		return nil, err
	}
	return &Validated{block: b, ids: ids, head: c.blocks[len(c.blocks)-1]}, nil
}

// Append validates and appends a block.
func (c *Chain) Append(b *Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids, err := c.validate(b)
	if err != nil {
		return err
	}
	c.append(b, ids)
	return nil
}

// AppendValidated appends a block ValidateForAppend passed. Every rule
// validate checks depends on the chain only through its head (the
// transaction index and nonces change with it), so the one thing left
// to check is that the head has not moved.
func (c *Chain) AppendValidated(v *Validated) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if head := c.blocks[len(c.blocks)-1]; head != v.head {
		return fmt.Errorf("%w: head moved to %d since block %d was validated",
			ErrBadParent, head.Header.Height, v.block.Header.Height)
	}
	c.append(v.block, v.ids)
	return nil
}

// append installs a validated block. Caller holds c.mu.
func (c *Chain) append(b *Block, ids []cryptoutil.Digest) {
	c.blocks = append(c.blocks, b)
	for i, tx := range b.Txs {
		c.txIndex[ids[i]] = b.Header.Height
		c.nonces[tx.From] = tx.Nonce + 1
	}
}

// Walk calls fn for every block from genesis to head, stopping early if
// fn returns false.
func (c *Chain) Walk(fn func(*Block) bool) {
	c.mu.RLock()
	blocks := make([]*Block, len(c.blocks))
	copy(blocks, c.blocks)
	c.mu.RUnlock()
	for _, b := range blocks {
		if !fn(b) {
			return
		}
	}
}

// VerifyIntegrity re-validates the full chain linkage and roots,
// returning the first inconsistency. It is the audit entry point used
// by the clinical-trial integrity experiment (E7): any post-hoc
// mutation of a stored block breaks either its own hash linkage or its
// transaction root.
func (c *Chain) VerifyIntegrity() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := 1; i < len(c.blocks); i++ {
		b, parent := c.blocks[i], c.blocks[i-1]
		if b.Header.Parent != parent.Hash() {
			return fmt.Errorf("%w: block %d parent link broken", ErrBadParent, i)
		}
		if b.Header.Height != uint64(i) {
			return fmt.Errorf("%w: block %d has height %d", ErrBadHeight, i, b.Header.Height)
		}
		root, err := ComputeTxRoot(b.Txs)
		if err != nil {
			return err
		}
		if root != b.Header.TxRoot {
			return fmt.Errorf("%w: block %d", ErrBadTxRoot, i)
		}
		for j, tx := range b.Txs {
			if err := tx.Verify(); err != nil {
				return fmt.Errorf("ledger: block %d tx %d: %w", i, j, err)
			}
			if tx.ExpiredAt(b.Header.Height) {
				return fmt.Errorf("%w: block %d tx %d", ErrTxExpired, i, j)
			}
		}
	}
	return nil
}

// Len returns the number of blocks including genesis.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.blocks)
}
