package core

import (
	"encoding/json"
	"fmt"
	"sync"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/shard"
)

// This file is the client layer both facades stand on (DESIGN.md
// "Platform facades"): the account registry, the transaction lifecycle
// over one *chain.Cluster, and on-chain authorisation. Platform runs it
// against its one chain, ShardedPlatform against whichever shard a
// request routes to.

// Account is a transacting identity. It keeps no nonce of its own: each
// submission takes the chain's pool-aware pending nonce under mu, so a
// refused submit leaves nothing to resynchronise and one identity may
// transact on several chains.
type Account struct {
	key *cryptoutil.KeyPair
	// mu makes "read the pending nonce, sign, gossip" one step per
	// account; goroutines sharing an account queue here.
	mu sync.Mutex
}

// Address returns the account address.
func (a *Account) Address() cryptoutil.Address { return a.key.Address() }

// PublicBytes returns the account's public key encoding.
func (a *Account) PublicBytes() []byte { return a.key.PublicBytes() }

// Key exposes the key pair (for decrypting received envelopes).
func (a *Account) Key() *cryptoutil.KeyPair { return a.key }

// accounts is the registry of named identities, each derived
// deterministically from the deployment's key seed. Both facades embed
// it, which is where their Acquire comes from.
type accounts struct {
	keySeed string
	mu      sync.Mutex
	byName  map[string]*Account
}

func newAccounts(keySeed string) accounts {
	return accounts{keySeed: keySeed, byName: make(map[string]*Account)}
}

// Acquire returns (creating on first use) the named account.
func (r *accounts) Acquire(name string) (*Account, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a, ok := r.byName[name]; ok {
		return a, nil
	}
	key, err := cryptoutil.DeriveKeyPair(r.keySeed + "/acct/" + name)
	if err != nil {
		return nil, err
	}
	a := &Account{key: key}
	r.byName[name] = a
	return a, nil
}

// keyOf returns the key of the acquired account with the given address,
// nil if none was acquired.
func (r *accounts) keyOf(addr cryptoutil.Address) *cryptoutil.KeyPair {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range r.byName {
		if a.Address() == addr {
			return a.key
		}
	}
	return nil
}

// call is one contract method invocation before it has a nonce: who
// asks, which contract family and method, with what arguments.
type call struct {
	from   *Account
	typ    ledger.TxType
	method string
	args   any
	// to is the deployed contract an invoke targets (zero otherwise).
	to cryptoutil.Address
}

// submit turns a call into a signed transaction in c's mempools:
// arguments marshalled, then nonce, timestamp (the chain's own unless
// the facade keeps a clock), signature and gossip through
// shard.SubmitSigned under the account's mutex.
func submit(c *chain.Cluster, clock func() int64, cl call) (*ledger.Transaction, error) {
	raw, err := json.Marshal(cl.args)
	if err != nil {
		return nil, fmt.Errorf("core: marshal args: %w", err)
	}
	tx := &ledger.Transaction{Type: cl.typ, Contract: cl.to, Method: cl.method, Args: raw}
	if clock != nil {
		tx.Timestamp = clock()
	}
	cl.from.mu.Lock()
	defer cl.from.mu.Unlock()
	return tx, shard.SubmitSigned(c, cl.from.key, tx)
}

// commit drives submitted transactions onto the chain and returns their
// receipts in input order, read from the best running node. CommitAll
// starts each round once the proposer holds the work, so there is no
// gossip to wait for here; transactions another committer already took
// simply have their receipts.
func commit(c *chain.Cluster, txs []*ledger.Transaction) ([]*contract.Receipt, error) {
	if _, err := c.CommitAll(); err != nil {
		return nil, err
	}
	n := c.Best()
	if n == nil {
		return nil, chain.ErrStopped
	}
	out := make([]*contract.Receipt, len(txs))
	for i, tx := range txs {
		r, ok := n.Receipt(tx.ID())
		if !ok {
			return nil, fmt.Errorf("core: tx %s has no receipt", tx.ID().Short())
		}
		out[i] = r
	}
	return out, nil
}

// transact is the whole lifecycle for a batch: submit each call in
// order, commit, return the receipts in call order.
func transact(c *chain.Cluster, clock func() int64, calls ...call) ([]*contract.Receipt, error) {
	if len(calls) == 0 {
		return nil, nil
	}
	txs := make([]*ledger.Transaction, len(calls))
	for i, cl := range calls {
		tx, err := submit(c, clock, cl)
		if err != nil {
			return nil, err
		}
		txs[i] = tx
	}
	return commit(c, txs)
}

// mustTransact is transact for calls that have no business being
// refused: the first failed receipt is an ErrTxFailed naming what was
// being done.
func mustTransact(c *chain.Cluster, clock func() int64, what string, calls ...call) error {
	receipts, err := transact(c, clock, calls...)
	if err != nil {
		return err
	}
	for _, r := range receipts {
		if !r.OK() {
			return fmt.Errorf("%w: %s: %s", ErrTxFailed, what, r.Err)
		}
	}
	return nil
}

// authKind is one of the two questions the policy contracts answer: the
// request method that asks it and the event that carries the grant.
type authKind[Req, Grant any] struct {
	typ    ledger.TxType
	method string
	topic  string
}

var (
	// runAuth: may this requester run this tool over this dataset?
	runAuth = authKind[contract.RequestRunArgs, contract.RunAuthorization]{ledger.TxAnalytics, "request_run", "RunAuthorized"}
	// accessAuth: may this requester read / execute over this dataset?
	accessAuth = authKind[contract.RequestAccessArgs, contract.AccessAuthorization]{ledger.TxData, "request_access", "AccessAuthorized"}
)

// authorize is the paper's on-chain step, once: it puts a batch of
// requests to the policy contracts in one block and returns, in request
// order, the grant each earned (nil where the chain refused, the reason
// in denials at the same index — the refusal itself stays on the audit
// trail) and the gas one node spent deciding. Every query path starts
// here and keeps only what differs: what runs at the site and how the
// partials compose.
func authorize[Req, Grant any](p *Platform, kind authKind[Req, Grant], requester *Account, reqs []Req) (grants []*Grant, denials []string, gas int64, err error) {
	calls := make([]call, len(reqs))
	for i, req := range reqs {
		calls[i] = call{from: requester, typ: kind.typ, method: kind.method, args: req}
	}
	receipts, err := p.transact(calls...)
	if err != nil {
		return nil, nil, 0, err
	}
	grants, denials = make([]*Grant, len(reqs)), make([]string, len(reqs))
	for i, r := range receipts {
		gas += r.GasUsed
		if !r.OK() {
			denials[i] = r.Err
			continue
		}
		for _, ev := range r.Events {
			if ev.Topic != kind.topic {
				continue
			}
			grants[i] = new(Grant)
			if err := json.Unmarshal(ev.Data, grants[i]); err != nil {
				return nil, nil, 0, fmt.Errorf("core: decode authorization: %w", err)
			}
		}
		if grants[i] == nil {
			denials[i] = "no authorization event"
		}
	}
	return grants, denials, gas, nil
}
