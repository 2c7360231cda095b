// Package shard implements the sharded multi-chain scale-out of the
// paper's Fig. 2/5 architecture: N independent member shards — each a
// full chain.Cluster with its own consensus, execution engine, mempool
// and durability — stitched together by a coordination chain that
// holds the routing table, anchors per-shard block roots, and mediates
// cross-shard transactions through the receipt relay implemented by
// internal/contract's cross-shard contract (xshard.go).
//
// The System is the deployment: it bootstraps every chain's shard
// identity, registers the shards on the coordination chain, and runs
// the gateway/relay pump (relay.go) that moves anchored roots and
// proof-carrying 2PC transactions between chains. The pump is
// explicitly driven (PumpRound/Pump) rather than a background
// goroutine, so deterministic simulation can interleave it with faults.
package shard

import (
	"encoding/json"
	"fmt"
	"time"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/guard"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
	"medchain/internal/store"
)

// Config sizes a sharded deployment.
type Config struct {
	// Shards is the member shard count (≥ 1).
	Shards int
	// NodesPerShard sizes each member shard's cluster (default 4).
	NodesPerShard int
	// CoordNodes sizes the coordination chain's cluster (default 4).
	CoordNodes int
	// KeySeed namespaces all deterministic keys (default "shardsys").
	KeySeed string
	// Network is the link model applied to every chain's own network
	// (each chain runs a fully separate p2p.Network — shards share no
	// transport, which is what makes Byzantine containment structural).
	Network p2p.Config
	// CommitTimeout bounds one commit round on every chain.
	CommitTimeout time.Duration
	// DestExpiryBlocks is the destination-height deadline granted to a
	// transfer at prepare time: dest height at submission + this
	// (default 50). Small values force aborts — experiments use that.
	DestExpiryBlocks uint64
	// Guard overrides every chain's peer-guard tuning (nil = defaults);
	// adversarial simulations shorten quarantine decay with it.
	Guard *guard.Config

	// DataDir makes every chain disk-backed: each chain stores under
	// DataDir/<chainID>/node-<i> (per-node WAL + snapshots via
	// internal/store), and a killed shard recovers from disk. Setting
	// FSFor also enables persistence (DataDir then defaults to "data"
	// inside the injected filesystem).
	DataDir string
	// FSFor, when set, supplies a per-chain per-node filesystem (nil =
	// the real disk). Tests return one shared store.MemFS; the
	// simulation harness injects fault-wrapped MemFS instances so each
	// node's disk fails independently.
	FSFor func(chainID string, node int) store.FS
	// SyncEvery batches WAL fsyncs (<=1 = every block). Sharded
	// deployments default to 1: whole-shard crash recovery needs every
	// committed block on disk, and group commit would trade that
	// durability window for throughput.
	SyncEvery int
	// SnapshotEvery is the state snapshot cadence in blocks (0 = none).
	SnapshotEvery int

	// CommitteeSize is the gateway failover committee per shard: member
	// 0 is the initial anchoring gateway, the rest are standbys that
	// take the lease over when the holder misses its anchor cadence
	// (default 1 = no failover).
	CommitteeSize int
	// LeaseBlocks is the gateway lease bound in coordination-chain
	// blocks: a standby may acquire the lease once the holder has
	// neither anchored nor renewed within this many blocks (default 8).
	LeaseBlocks uint64
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.NodesPerShard <= 0 {
		c.NodesPerShard = 4
	}
	if c.CoordNodes <= 0 {
		c.CoordNodes = 4
	}
	if c.KeySeed == "" {
		c.KeySeed = "shardsys"
	}
	if c.DestExpiryBlocks == 0 {
		c.DestExpiryBlocks = 50
	}
	if c.CommitteeSize <= 0 {
		c.CommitteeSize = 1
	}
	if c.LeaseBlocks == 0 {
		c.LeaseBlocks = 8
	}
	if c.persistent() {
		if c.DataDir == "" {
			c.DataDir = "data"
		}
		if c.SyncEvery <= 0 {
			c.SyncEvery = 1
		}
	}
	return c
}

// persistent reports whether the deployment is disk-backed.
func (c Config) persistent() bool {
	return c.DataDir != "" || c.FSFor != nil
}

// persistFor builds chain i's durable-storage config, nil when the
// deployment is memory-only.
func (c Config) persistFor(chainID string) *chain.PersistConfig {
	if !c.persistent() {
		return nil
	}
	p := &chain.PersistConfig{
		Dir:       store.Join(c.DataDir, chainID),
		SyncEvery: c.SyncEvery, SnapshotEvery: c.SnapshotEvery,
	}
	if c.FSFor != nil {
		p.FSFor = func(node int) store.FS { return c.FSFor(chainID, node) }
	}
	return p
}

// System is a running sharded deployment: the coordination chain, the
// member shards, and the gateway/relay machinery between them.
type System struct {
	cfg      Config
	coord    *chain.Cluster
	shards   []*chain.Cluster
	shardIDs []string

	// coordKey is the coordinator identity: it registers shards on the
	// coordination chain and relays anchored roots (and 2PC
	// transactions) onto member shards.
	coordKey *cryptoutil.KeyPair
	// committees[i] holds shard i's gateway failover committee keys:
	// member 0 is the initial anchoring gateway, the rest are standbys.
	// Which member currently holds the anchoring right is on-chain
	// state (ShardInfo.Gateway on the coordination chain), not a field
	// here — the relay re-reads it every round.
	committees [][]*cryptoutil.KeyPair
	// deadGW marks committee members whose process is "down": the relay
	// never signs with a dead member's key, which is how simulations
	// starve a lease. Keyed by address so on-chain lookups map back.
	deadGW map[cryptoutil.Address]bool

	// leaves caches each member shard's per-block cross-record leaves
	// (in block order), rebuilt by scanning committed blocks; proofs are
	// generated from it. scanned tracks the highest scanned height.
	leaves  map[string]map[uint64][][]byte
	scanned map[string]uint64

	// anomalies records relay-side protocol surprises (a proof that
	// failed pre-verification, an anchored root the relay disagrees
	// with) — the sharded sim checker treats them as invariant input.
	anomalies []string
}

// NewSystem boots a sharded deployment: one coordination cluster, N
// member shard clusters, shard identities initialized on every chain,
// and the routing table committed on the coordination chain.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	s := &System{
		cfg:     cfg,
		leaves:  make(map[string]map[uint64][][]byte),
		scanned: make(map[string]uint64),
		deadGW:  make(map[cryptoutil.Address]bool),
	}
	var err error
	if s.coordKey, err = cryptoutil.DeriveKeyPair(cfg.KeySeed + "/coordinator"); err != nil {
		return nil, err
	}
	s.coord, err = chain.NewCluster(chain.ClusterConfig{
		Nodes: cfg.CoordNodes, ChainID: "coord",
		Network: cfg.Network, CommitTimeout: cfg.CommitTimeout, KeySeed: cfg.KeySeed + "/coord",
		Guard: cfg.Guard, Persist: cfg.persistFor("coord"),
	})
	if err != nil {
		return nil, fmt.Errorf("shard: coordination chain: %w", err)
	}
	for i := 0; i < cfg.Shards; i++ {
		if err := s.addShardCluster(i); err != nil {
			s.Close()
			return nil, err
		}
	}
	if err := s.bootstrap(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// committeeKeys derives shard i's gateway committee: member 0 keeps
// the legacy single-gateway seed, standbys extend it with a member
// suffix.
func committeeKeys(keySeed string, shard, size int) ([]*cryptoutil.KeyPair, error) {
	keys := make([]*cryptoutil.KeyPair, 0, size)
	for j := 0; j < size; j++ {
		seed := fmt.Sprintf("%s/gateway-%d", keySeed, shard)
		if j > 0 {
			seed = fmt.Sprintf("%s.%d", seed, j)
		}
		kp, err := cryptoutil.DeriveKeyPair(seed)
		if err != nil {
			return nil, err
		}
		keys = append(keys, kp)
	}
	return keys, nil
}

// addShardCluster creates member shard i's cluster and committee keys
// (no on-chain registration — bootstrap and AddShard do that).
func (s *System) addShardCluster(i int) error {
	id := ShardID(i)
	committee, err := committeeKeys(s.cfg.KeySeed, i, s.cfg.CommitteeSize)
	if err != nil {
		return err
	}
	c, err := chain.NewCluster(chain.ClusterConfig{
		Nodes: s.cfg.NodesPerShard, ChainID: id,
		Network: s.cfg.Network, CommitTimeout: s.cfg.CommitTimeout, KeySeed: fmt.Sprintf("%s/%s", s.cfg.KeySeed, id),
		Guard: s.cfg.Guard, Persist: s.cfg.persistFor(id),
	})
	if err != nil {
		return fmt.Errorf("shard: %s: %w", id, err)
	}
	s.shards = append(s.shards, c)
	s.shardIDs = append(s.shardIDs, id)
	s.committees = append(s.committees, committee)
	return nil
}

// bootstrap runs the genesis ceremony: cross/init on every chain (the
// coordination chain as CoordShardID, each shard under its own ID) and
// the routing table (register_shard per shard) on the coordination
// chain.
func (s *System) bootstrap() error {
	coordAddr := s.coordKey.Address()
	init := contract.InitCrossArgs{
		ShardID: contract.CoordShardID, Shards: s.cfg.Shards, Coordinator: coordAddr,
	}
	if err := s.submitCross(s.coord, s.coordKey, "init", init); err != nil {
		return fmt.Errorf("shard: init coord: %w", err)
	}
	for i, c := range s.shards {
		init.ShardID = s.shardIDs[i]
		if err := s.submitCross(c, s.coordKey, "init", init); err != nil {
			return fmt.Errorf("shard: init %s: %w", s.shardIDs[i], err)
		}
	}
	for i := range s.shards {
		if err := s.registerShard(i); err != nil {
			return err
		}
	}
	// Commit routing epoch 1 over the full bootstrap shard set; later
	// epochs (AddShard + BeginEpoch/CommitEpoch) reshard against it.
	begin := contract.BeginEpochArgs{Epoch: 1, Shards: s.shardIDs}
	if err := s.submitCross(s.coord, s.coordKey, "begin_epoch", begin); err != nil {
		return fmt.Errorf("shard: begin epoch 1: %w", err)
	}
	if err := s.submitCross(s.coord, s.coordKey, "commit_epoch", contract.CommitEpochArgs{Epoch: 1}); err != nil {
		return fmt.Errorf("shard: commit epoch 1: %w", err)
	}
	if _, err := s.coord.CommitAll(); err != nil {
		return fmt.Errorf("shard: commit coord bootstrap: %w", err)
	}
	if err := s.commitShards(func(int) bool { return true }); err != nil {
		return fmt.Errorf("shard: commit bootstrap: %w", err)
	}
	return nil
}

// registerShard submits shard i's routing-table entry (gateway,
// failover committee, lease bound) to the coordination chain.
func (s *System) registerShard(i int) error {
	committee := make([]cryptoutil.Address, len(s.committees[i]))
	for j, kp := range s.committees[i] {
		committee[j] = kp.Address()
	}
	reg := contract.RegisterShardArgs{
		ID: s.shardIDs[i], Gateway: s.committees[i][0].Address(),
		Committee: committee, LeaseBlocks: s.cfg.LeaseBlocks,
	}
	if err := s.submitCross(s.coord, s.coordKey, "register_shard", reg); err != nil {
		return fmt.Errorf("shard: register %s: %w", s.shardIDs[i], err)
	}
	return nil
}

// ShardID names member shard i.
func ShardID(i int) string { return fmt.Sprintf("shard-%d", i) }

// Coord returns the coordination chain's cluster.
func (s *System) Coord() *chain.Cluster { return s.coord }

// Shard returns member shard i's cluster.
func (s *System) Shard(i int) *chain.Cluster { return s.shards[i] }

// Shards returns the member shard count.
func (s *System) Shards() int { return len(s.shards) }

// ShardIDs returns the member shard IDs in index order.
func (s *System) ShardIDs() []string { return append([]string(nil), s.shardIDs...) }

// Config returns the deployment configuration (with defaults applied).
func (s *System) Config() Config { return s.cfg }

// GatewayAddress returns shard i's initial gateway address (committee
// member 0). The current lease holder may differ — see ActiveGateway.
func (s *System) GatewayAddress(i int) cryptoutil.Address { return s.committees[i][0].Address() }

// CommitteeAddresses returns shard i's gateway committee addresses in
// member order.
func (s *System) CommitteeAddresses(i int) []cryptoutil.Address {
	out := make([]cryptoutil.Address, len(s.committees[i]))
	for j, kp := range s.committees[i] {
		out[j] = kp.Address()
	}
	return out
}

// ActiveGateway returns shard i's current anchoring-lease holder as
// recorded on the coordination chain (falls back to committee member 0
// when the coordination chain is unreadable).
func (s *System) ActiveGateway(i int) cryptoutil.Address {
	if n := s.coord.Best(); n != nil {
		if info, ok := n.State().ShardInfoOf(s.shardIDs[i]); ok {
			return info.Gateway
		}
	}
	return s.committees[i][0].Address()
}

// KillGateway marks shard i's current lease holder dead: the relay
// stops signing anchors with its key, and a standby committee member
// acquires the lease once it expires.
func (s *System) KillGateway(i int) {
	s.deadGW[s.ActiveGateway(i)] = true
}

// CoordinatorSubmit signs one cross-contract transaction as the
// coordinator and gossips it into the coordination chain, returning
// the signed transaction so callers can look up its receipt — the
// simulation's epoch probes use this to prove stale transitions are
// refused on-chain.
func (s *System) CoordinatorSubmit(method string, args any) (*ledger.Transaction, error) {
	return crossTx(s.coord, s.coordKey, method, args)
}

// Cluster returns the cluster a routing key lives on under the current
// routing epoch.
func (s *System) Cluster(key string) *chain.Cluster { return s.shards[s.ShardOf(key)] }

// StopShard crash-stops every node of member shard i (no final sync —
// the recovery path must replay from whatever the WAL holds).
func (s *System) StopShard(i int) {
	for n := range s.shards[i].Nodes() {
		s.shards[i].StopNode(n)
	}
}

// RecoverShard restarts every node of member shard i from disk and
// resets the relay's leaf cache for it, so proofs are rebuilt from the
// recovered chain rather than trusted from pre-crash memory. In-flight
// 2PC transfers resume from on-chain CrossRecord state on the next
// pump round.
func (s *System) RecoverShard(i int) error {
	c := s.shards[i]
	for n := range c.Nodes() {
		if err := c.RestartNode(n); err != nil {
			return fmt.Errorf("shard: recover %s node %d: %w", s.shardIDs[i], n, err)
		}
	}
	c.SyncLagging()
	id := s.shardIDs[i]
	s.scanned[id] = 0
	delete(s.leaves, id)
	return nil
}

// StopCoord crash-stops every coordination-chain node.
func (s *System) StopCoord() {
	for n := range s.coord.Nodes() {
		s.coord.StopNode(n)
	}
}

// RecoverCoord restarts every coordination-chain node from disk.
// Anchored roots, the routing table, and gateway leases are all
// on-chain state, so the relay resumes with no cache to reset.
func (s *System) RecoverCoord() error {
	for n := range s.coord.Nodes() {
		if err := s.coord.RestartNode(n); err != nil {
			return fmt.Errorf("shard: recover coord node %d: %w", n, err)
		}
	}
	s.coord.SyncLagging()
	return nil
}

// Anomalies returns relay-side protocol surprises recorded so far.
func (s *System) Anomalies() []string { return append([]string(nil), s.anomalies...) }

func (s *System) anomaly(format string, args ...any) {
	s.anomalies = append(s.anomalies, fmt.Sprintf(format, args...))
}

// BestNode is c.Best(); bench/ names it.
func BestNode(c *chain.Cluster) *chain.Node { return c.Best() }

// crossTx signs and gossips one cross-shard protocol transaction into a
// cluster through SubmitSigned and returns it.
func crossTx(c *chain.Cluster, key *cryptoutil.KeyPair, method string, args any) (*ledger.Transaction, error) {
	payload, err := json.Marshal(args)
	if err != nil {
		return nil, fmt.Errorf("shard: encode args: %w", err)
	}
	tx := &ledger.Transaction{
		Type: ledger.TxCross, Contract: contract.CrossContractAddr, Method: method, Args: payload,
	}
	return tx, SubmitSigned(c, key, tx)
}

func (s *System) submitCross(c *chain.Cluster, key *cryptoutil.KeyPair, method string, args any) error {
	_, err := crossTx(c, key, method, args)
	return err
}

// tsFor derives a deterministic per-chain timestamp from chain height,
// so relay transactions are byte-identical across runs with the same
// schedule (the same trick node.go's evidence reporting uses).
func tsFor(n *chain.Node) int64 { return int64(n.Height()) + 1 }

// Close shuts every chain down: all member shards, then the
// coordination chain.
func (s *System) Close() {
	for _, c := range s.shards {
		c.Close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
}

// VerifyConsistency checks every chain's replicas agree (head hash +
// state root).
func (s *System) VerifyConsistency() error {
	if err := s.coord.VerifyConsistency(); err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	for i, c := range s.shards {
		if err := c.VerifyConsistency(); err != nil {
			return fmt.Errorf("%s: %w", s.shardIDs[i], err)
		}
	}
	return nil
}
