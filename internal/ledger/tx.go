// Package ledger implements the append-only distributed ledger under
// the medical blockchain: signed transactions, Merkle-rooted blocks,
// and a validating chain store. Consensus (who may append) lives in
// package consensus; execution (what transactions do) lives in packages
// vm/contract/chain. The ledger enforces structural integrity only:
// hashes link, roots match, signatures verify, nonces advance.
package ledger

import (
	"errors"
	"fmt"
	"unicode/utf8"

	"medchain/internal/canonjson"
	"medchain/internal/cryptoutil"
)

// TxType classifies a transaction by intent. The three contract
// categories mirror the paper's Fig. 4 (data / analytics / clinical
// trial); Deploy installs contract code; Anchor records an off-chain
// data or code digest (Irving & Holden style integrity timestamping).
type TxType string

// Transaction types.
const (
	TxDeploy    TxType = "deploy"
	TxInvoke    TxType = "invoke"
	TxAnchor    TxType = "anchor"
	TxData      TxType = "data"
	TxAnalytics TxType = "analytics"
	TxTrial     TxType = "trial"
	// TxAudit records consensus accountability data (equivocation
	// evidence) on chain, where the trusted FDA/audit node can read it.
	TxAudit TxType = "audit"
	// TxCross carries the cross-shard protocol: shard registration and
	// root anchoring on the coordination chain, and the two-phase
	// prepare / apply / expire / resolve receipt relay on member shards
	// (see internal/contract/xshard.go and internal/shard).
	TxCross TxType = "cross"
)

// ValidTxType reports whether t is a known transaction type.
func ValidTxType(t TxType) bool {
	switch t {
	case TxDeploy, TxInvoke, TxAnchor, TxData, TxAnalytics, TxTrial, TxAudit, TxCross:
		return true
	}
	return false
}

// Transaction is one signed ledger entry.
type Transaction struct {
	// Type classifies the transaction.
	Type TxType `json:"type"`
	// From is the sender address (must match PubKey).
	From cryptoutil.Address `json:"from"`
	// Nonce is the sender's sequence number, starting at 0.
	Nonce uint64 `json:"nonce"`
	// Contract is the target contract address (zero for deploys and
	// anchors).
	Contract cryptoutil.Address `json:"contract"`
	// Method is the invoked contract method (or anchor label).
	Method string `json:"method"`
	// Args is the method argument payload (typically JSON).
	Args []byte `json:"args,omitempty"`
	// Timestamp is the creation time in Unix nanoseconds.
	Timestamp int64 `json:"timestamp"`
	// Expiry is the transaction's deadline: the highest block height at
	// which it may still be committed (0 = no deadline). It is covered
	// by the signature so relays cannot extend a client's deadline, and
	// it is enforced everywhere a transaction moves — mempool admission,
	// gossip relay, proposal assembly, and block validation — so an
	// expired transaction is dropped with a typed reason rather than
	// lingering in pools or committing late.
	Expiry uint64 `json:"expiry,omitempty"`
	// PubKey is the sender's uncompressed public key.
	PubKey []byte `json:"pub_key,omitempty"`
	// Sig is the sender's signature over ID().
	Sig cryptoutil.Signature `json:"sig"`
}

// signingBytes returns the canonical byte encoding covered by the
// transaction signature (everything except the signature itself).
func (tx *Transaction) signingBytes() []byte {
	var nonceBuf, tsBuf, expiryBuf [8]byte
	for i := 0; i < 8; i++ {
		nonceBuf[i] = byte(tx.Nonce >> (56 - 8*i))
		tsBuf[i] = byte(uint64(tx.Timestamp) >> (56 - 8*i))
		expiryBuf[i] = byte(tx.Expiry >> (56 - 8*i))
	}
	d := cryptoutil.SumAll(
		[]byte(tx.Type),
		tx.From[:],
		nonceBuf[:],
		tx.Contract[:],
		[]byte(tx.Method),
		tx.Args,
		tsBuf[:],
		expiryBuf[:],
		tx.PubKey,
	)
	return d.Bytes()
}

// ID returns the transaction hash (over all signed fields).
func (tx *Transaction) ID() cryptoutil.Digest {
	return cryptoutil.SumAll([]byte("medchain/tx"), tx.signingBytes())
}

// Sign fills From, PubKey and Sig from the key pair.
func (tx *Transaction) Sign(kp *cryptoutil.KeyPair) error {
	tx.From = kp.Address()
	tx.PubKey = kp.PublicBytes()
	sig, err := kp.Sign(tx.ID())
	if err != nil {
		return fmt.Errorf("ledger: sign tx: %w", err)
	}
	tx.Sig = sig
	return nil
}

// Validation errors.
var (
	ErrBadSignature = errors.New("ledger: bad transaction signature")
	ErrBadTxType    = errors.New("ledger: unknown transaction type")
	ErrAddrMismatch = errors.New("ledger: sender address does not match public key")
	// ErrInvalidUTF8 refuses a Method that is not valid UTF-8: Encode
	// would write it as another string, which no peer could verify.
	ErrInvalidUTF8 = errors.New("ledger: method is not valid UTF-8")
)

// Verify checks structural validity: known type, a method that is valid
// UTF-8, address matches the public key, and the signature verifies
// over the transaction hash.
func (tx *Transaction) Verify() error {
	if !ValidTxType(tx.Type) {
		return fmt.Errorf("%w: %q", ErrBadTxType, tx.Type)
	}
	if !utf8.ValidString(tx.Method) {
		return fmt.Errorf("%w: %q", ErrInvalidUTF8, tx.Method)
	}
	pub, err := cryptoutil.DecodePublicKey(tx.PubKey)
	if err != nil {
		return fmt.Errorf("ledger: tx public key: %w", err)
	}
	if cryptoutil.PublicKeyAddress(pub) != tx.From {
		return ErrAddrMismatch
	}
	if !cryptoutil.Verify(pub, tx.ID(), tx.Sig) {
		return ErrBadSignature
	}
	return nil
}

// ExpiredAt reports whether committing the transaction at the given
// block height would violate its deadline. A zero Expiry never expires.
func (tx *Transaction) ExpiredAt(height uint64) bool {
	return tx.Expiry != 0 && height > tx.Expiry
}

// Encode serializes the transaction to JSON: the bytes json.Marshal
// writes for it.
func (tx *Transaction) Encode() ([]byte, error) {
	return appendTx(nil, tx), nil
}

// DecodeTransaction parses a transaction in the canonical bytes Encode
// writes; any other spelling, null included, is refused with
// canonjson.ErrNonCanonical.
func DecodeTransaction(b []byte) (*Transaction, error) {
	r := canonjson.NewReader(b)
	tx := readTx(&r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ledger: decode tx: %w", err)
	}
	return tx, nil
}
