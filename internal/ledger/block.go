package ledger

import (
	"fmt"

	"medchain/internal/canonjson"
	"medchain/internal/cryptoutil"
	"medchain/internal/merkle"
)

// Header is the consensus-visible part of a block.
type Header struct {
	// Height is the block's position; genesis is 0.
	Height uint64 `json:"height"`
	// Parent is the hash of the previous block header (zero for
	// genesis).
	Parent cryptoutil.Digest `json:"parent"`
	// TxRoot is the Merkle root over the encoded transactions.
	TxRoot cryptoutil.Digest `json:"tx_root"`
	// StateRoot is the digest of the post-execution contract state, as
	// reported by the executing state machine.
	StateRoot cryptoutil.Digest `json:"state_root"`
	// Timestamp is the proposal time in Unix nanoseconds.
	Timestamp int64 `json:"timestamp"`
	// Proposer is the address of the node that produced the block.
	Proposer cryptoutil.Address `json:"proposer"`
	// Difficulty is the PoW target bit count and PowNonce its solution.
	// Only consensus.PoW, A1's seal-level baseline, sets them; they are
	// zero on every chain block (whose engine is consensus.Quorum) and
	// kept so the header hash and the disk format do not change.
	Difficulty uint8  `json:"difficulty,omitempty"`
	PowNonce   uint64 `json:"pow_nonce,omitempty"`
}

// Hash returns the header hash, the block's identity.
func (h *Header) Hash() cryptoutil.Digest {
	var buf [8 * 4]byte
	put := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (56 - 8*i))
		}
	}
	put(0, h.Height)
	put(8, uint64(h.Timestamp))
	put(16, uint64(h.Difficulty))
	put(24, h.PowNonce)
	return cryptoutil.SumAll(
		[]byte("medchain/block"),
		buf[:],
		h.Parent[:],
		h.TxRoot[:],
		h.StateRoot[:],
		h.Proposer[:],
	)
}

// Block is a header plus its transactions and the consensus seal.
type Block struct {
	Header Header `json:"header"`
	// Txs are the block's transactions in execution order.
	Txs []*Transaction `json:"txs,omitempty"`
	// Seal is the encoded consensus.QuorumCert on every chain block.
	// A1's baselines put the proposer signature here (PoA, PoS) or
	// leave it empty (PoW, whose nonce lives in the header).
	Seal []byte `json:"seal,omitempty"`
}

// ComputeTxRoot returns the Merkle root over the block's encoded
// transactions.
func ComputeTxRoot(txs []*Transaction) (cryptoutil.Digest, error) {
	leaves := make([][]byte, len(txs))
	for i, tx := range txs {
		b, err := tx.Encode()
		if err != nil {
			return cryptoutil.ZeroDigest, err
		}
		leaves[i] = b
	}
	return merkle.RootOf(leaves), nil
}

// Hash returns the block's identity (its header hash).
func (b *Block) Hash() cryptoutil.Digest { return b.Header.Hash() }

// Encode serializes the block to JSON: the bytes json.Marshal writes
// for it.
func (b *Block) Encode() ([]byte, error) {
	return AppendBlockJSON(nil, b), nil
}

// DecodeBlock parses a block in the canonical bytes Encode writes; any
// other spelling, null included, is refused with
// canonjson.ErrNonCanonical.
func DecodeBlock(data []byte) (*Block, error) {
	r := canonjson.NewReader(data)
	b := ReadBlockJSON(&r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ledger: decode block: %w", err)
	}
	return b, nil
}

// NewGenesis builds the genesis block for a chain identified by
// chainID. All nodes of a network must use the same chainID to agree on
// the genesis hash.
func NewGenesis(chainID string) *Block {
	return &Block{
		Header: Header{
			Height:    0,
			Parent:    cryptoutil.ZeroDigest,
			TxRoot:    cryptoutil.ZeroDigest,
			StateRoot: cryptoutil.Sum([]byte("medchain/genesis/" + chainID)),
			Timestamp: 0,
			Proposer:  cryptoutil.ZeroAddress,
		},
	}
}
