package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/shard"
)

// ShardedPlatform is the core-level facade over the sharded multi-chain
// deployment: it routes medical records and consent operations to the
// shard that holds them, mediates cross-shard operations through the
// coordination chain's receipt relay, and settles them with 2PC
// semantics. Accounts and single-shard transactions go through the same
// client layer as Platform (client.go), against the routed shard's
// chain and with the chain's own timestamps.
type ShardedPlatform struct {
	sys *shard.System
	accounts
	xferSeq atomic.Int64 // mints cross-shard operation IDs
}

// NewShardedPlatform boots a sharded deployment behind the facade.
func NewShardedPlatform(cfg shard.Config) (*ShardedPlatform, error) {
	if cfg.KeySeed == "" {
		cfg.KeySeed = "sharded"
	}
	sys, err := shard.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &ShardedPlatform{sys: sys, accounts: newAccounts(cfg.KeySeed)}, nil
}

// System exposes the underlying sharded deployment.
func (sp *ShardedPlatform) System() *shard.System { return sp.sys }

// HomeShard routes a key (patient ID, dataset ID, site name) to its
// home shard.
func (sp *ShardedPlatform) HomeShard(key string) int { return sp.sys.ShardOf(key) }

// RegisterDataset registers a dataset on its home shard (routed by
// dataset ID) and returns the shard index it landed on.
func (sp *ShardedPlatform) RegisterDataset(owner *Account, args contract.RegisterDatasetArgs) (int, error) {
	home := sp.HomeShard(args.ID)
	return home, mustTransact(sp.sys.Shard(home), nil, "register dataset",
		call{from: owner, typ: ledger.TxData, method: "register_dataset", args: args})
}

// prepare opens a cross-shard operation: it mints a deployment-unique
// ID, submits the prepare on the source shard and commits it there. The
// operation settles when Settle (or the relay pump) runs.
func (sp *ShardedPlatform) prepare(from *Account, src, dest int, prefix string, kind contract.CrossKind, payload any) (string, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return "", err
	}
	id := fmt.Sprintf("%s-%04d", prefix, sp.xferSeq.Add(1))
	from.mu.Lock()
	err = sp.sys.SubmitPrepare(src, from.key, contract.CrossPrepareArgs{
		ID: id, Kind: kind, DestShard: shard.ShardID(dest), Payload: raw,
	})
	from.mu.Unlock()
	if err != nil {
		return "", err
	}
	_, err = sp.sys.Shard(src).CommitAll()
	return id, err
}

// TransferDataset prepares an HIE record transfer of a dataset from the
// shard it lives on to destShard and returns the transfer ID.
func (sp *ShardedPlatform) TransferDataset(owner *Account, datasetID string, destShard int) (string, error) {
	src, _, ok := sp.sys.FindDataset(datasetID)
	if !ok {
		return "", fmt.Errorf("core: dataset %q not found on any shard", datasetID)
	}
	if destShard == src {
		return "", fmt.Errorf("core: dataset %q already lives on shard %d", datasetID, src)
	}
	return sp.prepare(owner, src, destShard, "xfer", contract.CrossTransfer, contract.CrossTransferPayload{Dataset: datasetID})
}

// GrantConsent grants consent on a resource from srcShard, where the
// consenting authority transacts. The grant applies on the shard that
// holds the dataset it names (the resource's hash home when it names
// none): a plain on-chain grant when that is srcShard — the returned ID
// is then empty — and a cross-shard consent otherwise.
func (sp *ShardedPlatform) GrantConsent(admin *Account, srcShard int, grant contract.GrantArgs) (string, error) {
	resource := strings.TrimPrefix(grant.Resource, "data:")
	dest := sp.HomeShard(resource)
	if at, _, ok := sp.sys.FindDataset(resource); ok {
		dest = at
	}
	if dest == srcShard {
		return "", mustTransact(sp.sys.Shard(srcShard), nil, "grant",
			call{from: admin, typ: ledger.TxData, method: "grant", args: grant})
	}
	return sp.prepare(admin, srcShard, dest, "grant", contract.CrossConsent, grant)
}

// ContributeFL prepares one shard's model update for a federated round
// aggregated on the round's home shard.
func (sp *ShardedPlatform) ContributeFL(site *Account, srcShard int, round string, weights []float64, samples int) (string, error) {
	dest := sp.HomeShard("fl/" + round)
	if dest == srcShard {
		// The aggregator's own contribution stays local; model it as a
		// zero-hop prepare to a sibling shard only when one exists.
		dest = (srcShard + 1) % sp.sys.Shards()
		if dest == srcShard {
			return "", errors.New("core: federated rounds need at least two shards")
		}
	}
	return sp.prepare(site, srcShard, dest, "fl", contract.CrossFLRound,
		contract.CrossFLPayload{Round: round, Weights: weights, Samples: samples})
}

// Settle runs the relay pump until every in-flight cross-shard
// operation reaches exactly one terminal state (committed or aborted),
// bounded by maxRounds. It returns the number of still-pending
// operations (0 on full settlement).
func (sp *ShardedPlatform) Settle(maxRounds int) int {
	sp.sys.Pump(maxRounds)
	return sp.sys.PendingTransfers()
}

// TransferStatus reports a transfer's source-side 2PC status.
func (sp *ShardedPlatform) TransferStatus(srcShard int, id string) (contract.CrossPrepare, bool) {
	n := sp.sys.Shard(srcShard).Best()
	if n == nil {
		return contract.CrossPrepare{}, false
	}
	return n.State().CrossOutbound(id)
}

// Dataset finds a dataset's live copy and the shard it currently lives
// on (System.FindDataset: routing homes, then forwarding tombstones).
func (sp *ShardedPlatform) Dataset(id string) (*contract.Dataset, int, bool) {
	at, ds, ok := sp.sys.FindDataset(id)
	return ds, at, ok
}

// StopShard crash-stops every node of one member shard (disk-backed
// deployments only make this useful — recovery replays from the WAL).
func (sp *ShardedPlatform) StopShard(i int) { sp.sys.StopShard(i) }

// RecoverShard restarts a crash-stopped shard from its on-disk state
// and resyncs it.
func (sp *ShardedPlatform) RecoverShard(i int) error { return sp.sys.RecoverShard(i) }

// Reshard grows the deployment by one member shard and drives the full
// epoch transition: begin_epoch over the grown shard list, migration of
// every reassigned dataset (signed with this platform's accounts),
// commit_epoch. Returns the new shard's index and how many datasets
// migrated. Datasets owned by keys the platform never acquired cannot
// be signed for and will stall the drain — an error.
func (sp *ShardedPlatform) Reshard(maxRounds int) (newShard, migrated int, err error) {
	ni, err := sp.sys.AddShard()
	if err != nil {
		return -1, 0, err
	}
	if _, err := sp.sys.BeginEpoch(sp.sys.ShardIDs()); err != nil {
		return ni, 0, err
	}
	moved, err := sp.sys.DrainMigrations(func(m shard.Migration) *cryptoutil.KeyPair {
		return sp.keyOf(m.Owner)
	}, maxRounds)
	if err != nil {
		return ni, moved, err
	}
	if err := sp.sys.CommitEpoch(); err != nil {
		return ni, moved, err
	}
	return ni, moved, nil
}

// Close shuts the sharded platform down.
func (sp *ShardedPlatform) Close() { sp.sys.Close() }
