package shard

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

func newTestSystem(t *testing.T, shards int) *System {
	t.Helper()
	s, err := NewSystem(Config{
		Shards: shards, NodesPerShard: 3, CoordNodes: 3,
		KeySeed: "shardtest/" + t.Name(),
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func mustKey(t *testing.T, seed string) *cryptoutil.KeyPair {
	t.Helper()
	k, err := cryptoutil.DeriveKeyPair(seed)
	if err != nil {
		t.Fatalf("DeriveKeyPair: %v", err)
	}
	return k
}

// submitDataset signs and gossips one register_dataset onto a shard.
func submitDataset(t *testing.T, s *System, shard int, key *cryptoutil.KeyPair, id string) {
	t.Helper()
	args, _ := json.Marshal(contract.RegisterDatasetArgs{
		ID: id, Schema: "fhir.r4", Records: 10, SiteID: "site-a",
	})
	tx := &ledger.Transaction{Type: ledger.TxData, Method: "register_dataset", Args: args}
	if err := SubmitSigned(s.Shard(shard), key, tx); err != nil {
		t.Fatalf("submit register_dataset: %v", err)
	}
}

func registerDataset(t *testing.T, s *System, shard int, key *cryptoutil.KeyPair, id string) {
	t.Helper()
	submitDataset(t, s, shard, key, id)
	if _, err := s.Shard(shard).CommitAll(); err != nil {
		t.Fatalf("commit register_dataset: %v", err)
	}
}

func noAnomalies(t *testing.T, s *System) {
	t.Helper()
	if a := s.Anomalies(); len(a) != 0 {
		t.Fatalf("relay anomalies: %v", a)
	}
}

func TestRouteStable(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		hit := make(map[int]bool)
		for i := 0; i < 64; i++ {
			key := "patient-" + strings.Repeat("x", i)
			got := ShardOf(key, n)
			if got != ShardOf(key, n) {
				t.Fatalf("ShardOf not stable for %q", key)
			}
			if got < 0 || got >= n {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", key, n, got)
			}
			hit[got] = true
		}
		if n > 1 && len(hit) < 2 {
			t.Fatalf("ShardOf over %d shards hit only %d", n, len(hit))
		}
	}
}

func TestBootstrapRoutingTable(t *testing.T) {
	s := newTestSystem(t, 2)
	st := s.Coord().Best().State()
	cfg, ok := st.CrossConfig()
	if !ok || cfg.ShardID != contract.CoordShardID || cfg.Shards != 2 {
		t.Fatalf("coord cross config = %+v, ok=%v", cfg, ok)
	}
	dir := st.ShardDirectory()
	if len(dir) != 2 {
		t.Fatalf("shard directory has %d entries, want 2", len(dir))
	}
	for i, info := range dir {
		if info.ID != ShardID(i) || info.Gateway != s.GatewayAddress(i) {
			t.Fatalf("directory[%d] = %+v", i, info)
		}
	}
	for i := 0; i < 2; i++ {
		cfg, ok := s.Shard(i).Best().State().CrossConfig()
		if !ok || cfg.ShardID != ShardID(i) {
			t.Fatalf("shard %d config = %+v, ok=%v", i, cfg, ok)
		}
	}
}

// TestTransferCommit walks one HIE record transfer through the full
// 2PC relay: prepare on the source, gateway anchor, coordinator relay,
// proof-carrying apply on the destination, proof-carrying resolve back
// — in two pump rounds, each relayed root riding in the block of the
// transaction that needs it.
func TestTransferCommit(t *testing.T) {
	s := newTestSystem(t, 2)
	owner := mustKey(t, "owner/transfer-commit")
	registerDataset(t, s, 0, owner, "ds-ehr")

	payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: "ds-ehr"})
	err := s.SubmitPrepare(0, owner, contract.CrossPrepareArgs{
		ID: "xfer-1", Kind: contract.CrossTransfer, DestShard: ShardID(1), Payload: payload,
	})
	if err != nil {
		t.Fatalf("SubmitPrepare: %v", err)
	}
	if _, err := s.Shard(0).CommitAll(); err != nil {
		t.Fatalf("commit prepare: %v", err)
	}

	rounds := s.Pump(20)
	if n := s.PendingTransfers(); n != 0 {
		t.Fatalf("still %d pending after %d rounds; anomalies=%v", n, rounds, s.Anomalies())
	}
	if rounds != 2 {
		t.Fatalf("settled in %d pump rounds, want 2 (apply, then resolve)", rounds)
	}

	src := s.Shard(0).Best().State()
	prep, ok := src.CrossOutbound("xfer-1")
	if !ok || prep.Status != contract.CrossCommitted {
		t.Fatalf("source prepare = %+v, ok=%v", prep, ok)
	}
	ds, ok := src.Dataset("ds-ehr")
	if !ok || ds.Frozen || ds.MovedTo != ShardID(1) {
		t.Fatalf("source dataset after commit = %+v", ds)
	}

	dst := s.Shard(1).Best().State()
	res, ok := dst.CrossInbound(ShardID(0), "xfer-1")
	if !ok || !res.Applied || res.Resource != "ds-ehr" {
		t.Fatalf("dest resolution = %+v, ok=%v", res, ok)
	}
	moved, ok := dst.Dataset("ds-ehr")
	if !ok || moved.Owner != owner.Address() || moved.Schema != "fhir.r4" || moved.Records != 10 {
		t.Fatalf("dest dataset = %+v, ok=%v", moved, ok)
	}

	noAnomalies(t, s)
	if err := s.VerifyConsistency(); err != nil {
		t.Fatalf("consistency: %v", err)
	}
}

// heights reads the height of every node of the coordination chain and
// of each member shard, in that order.
func heights(s *System) []uint64 {
	clusters := []*chain.Cluster{s.Coord()}
	for i := 0; i < s.Shards(); i++ {
		clusters = append(clusters, s.Shard(i))
	}
	var hs []uint64
	for _, c := range clusters {
		for _, n := range c.Nodes() {
			hs = append(hs, n.Height())
		}
	}
	return hs
}

// TestTransferPumpRoundsCommitOneBlockPerChain: each of a transfer's two
// pump rounds commits exactly one block on the coordination chain (the
// gateway's anchor) and one on the member shard that got relay work
// (root and apply, then root and resolve), and none anywhere else. The
// relay's transactions enter through each chain's proposer, so no round
// starts before that proposer holds them and none pays an empty block.
func TestTransferPumpRoundsCommitOneBlockPerChain(t *testing.T) {
	s := newTestSystem(t, 3)
	owner := mustKey(t, "owner/transfer-blocks")
	registerDataset(t, s, 0, owner, "ds-blocks")
	payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: "ds-blocks"})
	if err := s.SubmitPrepare(0, owner, contract.CrossPrepareArgs{
		ID: "xfer-blocks", Kind: contract.CrossTransfer, DestShard: ShardID(1), Payload: payload,
	}); err != nil {
		t.Fatalf("SubmitPrepare: %v", err)
	}
	if _, err := s.Shard(0).CommitAll(); err != nil {
		t.Fatalf("commit prepare: %v", err)
	}

	// Blocks per round on the coordination chain, the source (shard 0),
	// the destination (shard 1) and a bystander (shard 2).
	for round, grow := range [][]uint64{{1, 0, 1, 0}, {1, 1, 0, 0}} {
		before := heights(s)
		s.PumpRound()
		after := heights(s)
		nodes := len(after) / len(grow)
		for i := range after {
			if got, want := after[i]-before[i], grow[i/nodes]; got != want {
				t.Fatalf("pump round %d: chain %d node %d grew by %d blocks, want %d",
					round+1, i/nodes, i%nodes, got, want)
			}
		}
	}
	if n := s.PendingTransfers(); n != 0 {
		t.Fatalf("still %d pending after two rounds; anomalies=%v", n, s.Anomalies())
	}
	noAnomalies(t, s)
}

// TestQuietPumpRoundCommitsNothing: with no transfer in flight and every
// root anchored, a pump round submits nothing and appends no block to
// any chain — before any transfer and after one settled.
func TestQuietPumpRoundCommitsNothing(t *testing.T) {
	s := newTestSystem(t, 2)
	quiet := func(when string) {
		t.Helper()
		before := heights(s)
		if s.PumpRound() {
			t.Fatalf("%s: quiet pump round reported progress", when)
		}
		if after := heights(s); !slices.Equal(after, before) {
			t.Fatalf("%s: quiet pump round moved heights %v -> %v", when, before, after)
		}
	}
	quiet("fresh system")

	owner := mustKey(t, "owner/quiet-pump")
	registerDataset(t, s, 0, owner, "ds-quiet")
	payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: "ds-quiet"})
	if err := s.SubmitPrepare(0, owner, contract.CrossPrepareArgs{
		ID: "xfer-quiet", Kind: contract.CrossTransfer, DestShard: ShardID(1), Payload: payload,
	}); err != nil {
		t.Fatalf("SubmitPrepare: %v", err)
	}
	if _, err := s.Shard(0).CommitAll(); err != nil {
		t.Fatalf("commit prepare: %v", err)
	}
	for rounds := 0; s.PumpRound(); rounds++ {
		if rounds == 10 {
			t.Fatalf("relay still busy after %d rounds; anomalies=%v", rounds, s.Anomalies())
		}
	}
	quiet("after a settled transfer")
}

// TestSubmitSignedEntersThroughTheProposer: when every node reports the
// same pending nonce, SubmitSigned hands the transaction to the node the
// next Commit asks first, so that node holds it the moment SubmitSigned
// returns — whichever node the schedule names at this height.
func TestSubmitSignedEntersThroughTheProposer(t *testing.T) {
	s := newTestSystem(t, 2)
	c := s.Shard(0)
	owner := mustKey(t, "owner/enter-via-proposer")
	named := make(map[*chain.Node]bool)
	for i := 0; i < c.Size(); i++ {
		p := c.Proposer()
		named[p] = true
		submitDataset(t, s, 0, owner, fmt.Sprintf("ds-entry-%d", i))
		if n := p.MempoolSize(); n != 1 {
			t.Fatalf("proposer %s holds %d txs as SubmitSigned returns, want 1", p.ID(), n)
		}
		if _, err := c.CommitAll(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	if len(named) != c.Size() {
		t.Fatalf("%d heights named %d distinct proposers, want %d", c.Size(), len(named), c.Size())
	}
}

// TestTransferExpiryAborts sets an already-passed destination deadline:
// the relay must submit expire, the destination must record a negative
// resolution, and the resolve must thaw the source dataset — exactly
// one abort, no partial application, in the same two rounds a commit
// takes.
func TestTransferExpiryAborts(t *testing.T) {
	s := newTestSystem(t, 2)
	owner := mustKey(t, "owner/transfer-expire")
	registerDataset(t, s, 0, owner, "ds-stale")

	payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: "ds-stale"})
	err := s.SubmitPrepare(0, owner, contract.CrossPrepareArgs{
		ID: "xfer-exp", Kind: contract.CrossTransfer, DestShard: ShardID(1),
		DestExpiry: 1, // bootstrap already put the dest chain past height 1
		Payload:    payload,
	})
	if err != nil {
		t.Fatalf("SubmitPrepare: %v", err)
	}
	if _, err := s.Shard(0).CommitAll(); err != nil {
		t.Fatalf("commit prepare: %v", err)
	}

	rounds := s.Pump(20)
	if n := s.PendingTransfers(); n != 0 {
		t.Fatalf("still %d pending; anomalies=%v", n, s.Anomalies())
	}
	if rounds != 2 {
		t.Fatalf("aborted in %d pump rounds, want 2 (expire, then resolve)", rounds)
	}

	src := s.Shard(0).Best().State()
	prep, _ := src.CrossOutbound("xfer-exp")
	if prep.Status != contract.CrossAborted {
		t.Fatalf("source prepare = %+v, want aborted", prep)
	}
	ds, ok := src.Dataset("ds-stale")
	if !ok || ds.Frozen || ds.MovedTo != "" {
		t.Fatalf("source dataset not thawed: %+v", ds)
	}
	dst := s.Shard(1).Best().State()
	res, ok := dst.CrossInbound(ShardID(0), "xfer-exp")
	if !ok || res.Applied {
		t.Fatalf("dest resolution = %+v, ok=%v, want refused", res, ok)
	}
	if _, leaked := dst.Dataset("ds-stale"); leaked {
		t.Fatal("aborted transfer leaked the dataset onto the destination")
	}
	noAnomalies(t, s)
}

// TestConsentGrantCrossShard relays a consent grant: a dataset on the
// destination shard gets a grant prepared on the source shard by the
// same admin identity.
func TestConsentGrantCrossShard(t *testing.T) {
	s := newTestSystem(t, 2)
	admin := mustKey(t, "owner/consent-admin")
	grantee := mustKey(t, "grantee/consent")
	registerDataset(t, s, 1, admin, "ds-consent")

	payload, _ := json.Marshal(contract.GrantArgs{
		Resource: "data:ds-consent", Grantee: grantee.Address(),
		Actions: []contract.Action{contract.ActionRead},
	})
	err := s.SubmitPrepare(0, admin, contract.CrossPrepareArgs{
		ID: "grant-1", Kind: contract.CrossConsent, DestShard: ShardID(1), Payload: payload,
	})
	if err != nil {
		t.Fatalf("SubmitPrepare: %v", err)
	}
	if _, err := s.Shard(0).CommitAll(); err != nil {
		t.Fatalf("commit prepare: %v", err)
	}

	s.Pump(20)
	if n := s.PendingTransfers(); n != 0 {
		t.Fatalf("still %d pending; anomalies=%v", n, s.Anomalies())
	}

	dst := s.Shard(1).Best().State()
	pol, ok := dst.PolicyOf("data:ds-consent")
	if !ok {
		t.Fatal("destination policy missing")
	}
	found := false
	for _, g := range pol.Grants {
		if g.Grantee == grantee.Address() {
			found = true
		}
	}
	if !found {
		t.Fatalf("grant not applied on destination: %+v", pol.Grants)
	}
	prep, _ := s.Shard(0).Best().State().CrossOutbound("grant-1")
	if prep.Status != contract.CrossCommitted {
		t.Fatalf("source prepare = %+v, want committed", prep)
	}
	noAnomalies(t, s)
}

// TestFLRoundAggregation has two shards contribute model updates to the
// same federated round on a third aggregator shard; the aggregate must
// be the sample-weighted mean.
func TestFLRoundAggregation(t *testing.T) {
	s := newTestSystem(t, 3)
	siteA := mustKey(t, "site/fl-a")
	siteB := mustKey(t, "site/fl-b")

	submit := func(src int, key *cryptoutil.KeyPair, id string, weights []float64, samples int) {
		t.Helper()
		payload, _ := json.Marshal(contract.CrossFLPayload{
			Round: "round-1", Weights: weights, Samples: samples,
		})
		err := s.SubmitPrepare(src, key, contract.CrossPrepareArgs{
			ID: id, Kind: contract.CrossFLRound, DestShard: ShardID(2), Payload: payload,
		})
		if err != nil {
			t.Fatalf("SubmitPrepare %s: %v", id, err)
		}
		if _, err := s.Shard(src).CommitAll(); err != nil {
			t.Fatalf("commit %s: %v", id, err)
		}
	}
	submit(0, siteA, "fl-a", []float64{1, 3}, 100)
	submit(1, siteB, "fl-b", []float64{3, 5}, 300)

	s.Pump(30)
	if n := s.PendingTransfers(); n != 0 {
		t.Fatalf("still %d pending; anomalies=%v", n, s.Anomalies())
	}

	round, ok := s.Shard(2).Best().State().FLRoundOf("round-1")
	if !ok || len(round.Contributions) != 2 {
		t.Fatalf("round = %+v, ok=%v", round, ok)
	}
	if round.TotalSamples != 400 {
		t.Fatalf("TotalSamples = %d, want 400", round.TotalSamples)
	}
	// (1*100 + 3*300)/400 = 2.5 ; (3*100 + 5*300)/400 = 4.5
	if len(round.Aggregate) != 2 || round.Aggregate[0] != 2.5 || round.Aggregate[1] != 4.5 {
		t.Fatalf("Aggregate = %v, want [2.5 4.5]", round.Aggregate)
	}
	noAnomalies(t, s)
}

// TestFrozenDatasetRejectsWrites: between prepare and settlement the
// source dataset is frozen — updates must be refused so no write can
// race the in-flight transfer.
func TestFrozenDatasetRejectsWrites(t *testing.T) {
	s := newTestSystem(t, 2)
	owner := mustKey(t, "owner/frozen")
	registerDataset(t, s, 0, owner, "ds-frozen")

	payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: "ds-frozen"})
	if err := s.SubmitPrepare(0, owner, contract.CrossPrepareArgs{
		ID: "xfer-frozen", Kind: contract.CrossTransfer, DestShard: ShardID(1), Payload: payload,
	}); err != nil {
		t.Fatalf("SubmitPrepare: %v", err)
	}
	if _, err := s.Shard(0).CommitAll(); err != nil {
		t.Fatalf("commit prepare: %v", err)
	}

	args, _ := json.Marshal(contract.RegisterDatasetArgs{ID: "ds-frozen", Records: 99})
	tx := &ledger.Transaction{Type: ledger.TxData, Method: "update_dataset", Args: args}
	if err := SubmitSigned(s.Shard(0), owner, tx); err != nil {
		t.Fatalf("submit update: %v", err)
	}
	if _, err := s.Shard(0).CommitAll(); err != nil {
		t.Fatalf("commit update: %v", err)
	}
	n := s.Shard(0).Best()
	r, ok := n.Receipt(tx.ID())
	if !ok {
		t.Fatal("update receipt missing")
	}
	if r.OK() {
		t.Fatal("update of a frozen dataset succeeded, want refusal")
	}
	ds, _ := n.State().Dataset("ds-frozen")
	if ds.Records != 10 {
		t.Fatalf("frozen dataset mutated: %+v", ds)
	}
}
