package experiments

import (
	"fmt"
	"sync"
	"time"

	"medchain/internal/chain"
	"medchain/internal/consensus"
	"medchain/internal/cryptoutil"
	"medchain/internal/fl"
	"medchain/internal/ledger"
	"medchain/internal/linalg"
	"medchain/internal/oracle"
)

// --- A1: consensus-engine ablation ---

// a1Row is one engine's seal cost over the same block sequence.
type a1Row struct {
	// Engine is the engine's Name().
	Engine string
	// SealUs and VerifyUs are the mean µs per block to seal and to
	// verify the seal.
	SealUs, VerifyUs float64
	// PoWHashes is mining work over the whole sequence (PoW only).
	PoWHashes int64
}

// The consensus ablation has one size.
const (
	// a1Validators is the validator set's size.
	a1Validators = 4
	// a1Blocks is the length of the block sequence.
	a1Blocks = 16
	// a1PowDifficulty is the PoW target.
	a1PowDifficulty = 10
)

// a1Consensus seals one fixed block sequence over one validator set
// through PoW, PoA, PoS and Quorum, then verifies every seal, and
// reports the cost of each. No cluster runs: the claim is about what
// the seal costs, and every engine seals the same blocks.
func a1Consensus(seed int64) ([]a1Row, error) {
	keys := make([]*cryptoutil.KeyPair, a1Validators)
	stakes := make([]uint64, a1Validators)
	for i := range keys {
		kp, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("a1/%d/val-%d", seed, i))
		if err != nil {
			return nil, err
		}
		keys[i], stakes[i] = kp, 100
	}
	vals, err := consensus.NewValidatorSet(keys)
	if err != nil {
		return nil, err
	}
	pos, err := consensus.NewPoS(vals, stakes, "a1")
	if err != nil {
		return nil, err
	}
	blocks := a1Sequence(seed)
	var rows []a1Row
	for _, eng := range []consensus.Engine{
		&consensus.PoW{Difficulty: a1PowDifficulty}, consensus.NewPoA(vals), pos, consensus.NewQuorum(vals),
	} {
		sealed := make([]*ledger.Block, len(blocks))
		start := time.Now()
		for i, b := range blocks {
			blk := *b
			if err := a1Seal(eng, &blk, keys); err != nil {
				return nil, fmt.Errorf("a1: %s seals block %d: %w", eng.Name(), b.Header.Height, err)
			}
			sealed[i] = &blk
		}
		sealTime := time.Since(start)
		// A follower verifies votes it never saw: a Quorum that has not
		// memoised the certificate's votes while attaching it.
		verifier := eng
		if _, ok := eng.(*consensus.Quorum); ok {
			verifier = consensus.NewQuorum(vals)
		}
		start = time.Now()
		for _, b := range sealed {
			if err := verifier.VerifySeal(b); err != nil {
				return nil, fmt.Errorf("a1: %s verifies block %d: %w", eng.Name(), b.Header.Height, err)
			}
		}
		verifyTime := time.Since(start)
		row := a1Row{
			Engine:   eng.Name(),
			SealUs:   float64(sealTime.Microseconds()) / float64(len(blocks)),
			VerifyUs: float64(verifyTime.Microseconds()) / float64(len(blocks)),
		}
		if pow, ok := eng.(*consensus.PoW); ok {
			row.PoWHashes = pow.HashAttempts()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// a1Sequence builds the unsealed chain of a1Blocks headers every engine
// seals. A seal covers the header alone, so the blocks carry no body:
// the roots stand in for one, and the sequence, PoW's work included, is
// a function of the seed.
func a1Sequence(seed int64) []*ledger.Block {
	var parent cryptoutil.Digest
	blocks := make([]*ledger.Block, a1Blocks)
	for i := range blocks {
		h := uint64(i + 1)
		blk := &ledger.Block{Header: ledger.Header{
			Height: h, Parent: parent, Timestamp: int64(h),
			TxRoot:    cryptoutil.Sum([]byte(fmt.Sprintf("a1/%d/txs-%d", seed, h))),
			StateRoot: cryptoutil.Sum([]byte(fmt.Sprintf("a1/%d/state-%d", seed, h))),
		}}
		parent = blk.Hash()
		blocks[i] = blk
	}
	return blocks
}

// a1Seal seals b the way its engine's proposer does: PoA and PoS sign
// with the key the schedule names, PoW mines (any key may), and Quorum
// attaches a certificate of 2f+1 signed votes.
func a1Seal(eng consensus.Engine, b *ledger.Block, keys []*cryptoutil.KeyPair) error {
	key := keys[0]
	if addr, scheduled := eng.ProposerAt(b.Header.Height); scheduled {
		for _, k := range keys {
			if k.Address() == addr {
				key = k
			}
		}
	}
	q, ok := eng.(*consensus.Quorum)
	if !ok {
		return eng.Seal(b, key)
	}
	b.Header.Proposer = key.Address()
	qc := &consensus.QuorumCert{Block: b.Hash()}
	for _, k := range keys[:q.Validators().QuorumThreshold()] {
		v, err := consensus.SignVote(b.Header.Height, qc.Block, k)
		if err != nil {
			return err
		}
		qc.Votes = append(qc.Votes, v)
	}
	return q.AttachCert(b, qc)
}

// verifyA1 holds the ablation's point: only PoW pays hash work, and
// every engine — PoS included — is in the comparison.
func verifyA1(rows []a1Row) error {
	hashes := map[string]int64{}
	for _, r := range rows {
		hashes[r.Engine] = r.PoWHashes
	}
	if hashes["pow"] == 0 {
		return fmt.Errorf("experiments: a1: PoW did no work")
	}
	for _, engine := range []string{"poa", "pos", "quorum"} {
		if n, ok := hashes[engine]; !ok {
			return fmt.Errorf("experiments: a1: %s engine missing", engine)
		} else if n != 0 {
			return fmt.Errorf("experiments: a1: %s reports %d hashes of work", engine, n)
		}
	}
	return nil
}

var a1Columns = []column[a1Row]{
	{"engine", func(r a1Row) string { return r.Engine }},
	{"seal µs/block", func(r a1Row) string { return fmt.Sprintf("%.1f", r.SealUs) }},
	{"verify µs/block", func(r a1Row) string { return fmt.Sprintf("%.1f", r.VerifyUs) }},
	{"pow hashes", func(r a1Row) string { return fmt.Sprint(r.PoWHashes) }},
}

func runA1(_ Size, seed int64) ([]Table, error) {
	rows, err := a1Consensus(seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate(
		"A1  Consensus ablation (same blocks, same 4-key validator set): PoW burns hash work for nothing the medical chain needs",
		rows, a1Columns)}, verifyA1(rows)
}

// --- A2: oracle dispatch batching ---

// a2Row is one dispatch mode's overhead.
type a2Row struct {
	// Mode is "per-event" or "batched".
	Mode string
	// Events is the workload.
	Events int
	// Elapsed is the end-to-end dispatch time.
	Elapsed time.Duration
	// PerEvent is Elapsed/Events.
	PerEvent time.Duration
	// Calls is how many handler invocations were made.
	Calls int64
}

// a2Events is the workload size.
var a2Events = [...]int{Full: 200, Quick: 80}

const (
	// a2BatchSize is the batched mode's batch.
	a2BatchSize = 20
	// a2HandlerCost simulates per-call RPC overhead.
	a2HandlerCost = 200 * time.Microsecond
)

// a2OracleBatch measures monitor-node dispatch with per-event handlers
// versus batched handlers when each handler call carries fixed RPC
// overhead — the "standard format via remote procedure calls" path of
// Fig. 3 at volume.
func a2OracleBatch(events int, seed int64) ([]a2Row, error) {
	run := func(batch bool) (a2Row, error) {
		c, err := chain.NewCluster(chain.ClusterConfig{
			Nodes:   1,
			KeySeed: fmt.Sprintf("a2/%v/%d", batch, seed),
		})
		if err != nil {
			return a2Row{}, err
		}
		defer c.Close()
		mcfg := oracle.MonitorConfig{}
		if batch {
			mcfg.BatchSize = a2BatchSize
		}
		mon := oracle.NewMonitor(c.Node(0), mcfg)
		defer mon.Close()

		var mu sync.Mutex
		var calls int64
		handled := 0
		done := make(chan struct{})
		mark := func(n int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			handled += n
			if handled >= events {
				select {
				case <-done:
				default:
					close(done)
				}
			}
		}
		if batch {
			mon.OnBatch("DatasetRegistered", func(recs []chain.EventRecord) error {
				time.Sleep(a2HandlerCost) // one RPC for the whole batch
				mark(len(recs))
				return nil
			})
		} else {
			mon.On("DatasetRegistered", func(chain.EventRecord) error {
				time.Sleep(a2HandlerCost) // one RPC per event
				mark(1)
				return nil
			})
		}

		user, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("a2-user-%v", batch))
		if err != nil {
			return a2Row{}, err
		}
		for i := 0; i < events; i++ {
			tx, err := registerTx(user, uint64(i), fmt.Sprintf("a2/%v/d-%d", batch, i))
			if err != nil {
				return a2Row{}, err
			}
			if err := c.Node(0).SubmitLocal(tx); err != nil {
				return a2Row{}, err
			}
		}
		start := time.Now()
		if _, err := c.CommitAll(); err != nil {
			return a2Row{}, err
		}
		// Drain pending partial batches until all events are handled.
		for {
			select {
			case <-done:
				elapsed := time.Since(start)
				mu.Lock()
				defer mu.Unlock()
				mode := "per-event"
				if batch {
					mode = fmt.Sprintf("batched (%d)", a2BatchSize)
				}
				return a2Row{
					Mode:     mode,
					Events:   events,
					Elapsed:  elapsed,
					PerEvent: elapsed / time.Duration(events),
					Calls:    calls,
				}, nil
			case <-time.After(5 * time.Millisecond):
				mon.Flush()
			}
		}
	}

	perEvent, err := run(false)
	if err != nil {
		return nil, err
	}
	batched, err := run(true)
	if err != nil {
		return nil, err
	}
	return []a2Row{perEvent, batched}, nil
}

// verifyA2 holds the ablation's point: batching makes fewer handler
// calls and, each call carrying fixed RPC overhead, finishes sooner.
func verifyA2(rows []a2Row) error {
	perEvent, batched := rows[0], rows[1]
	if batched.Calls >= perEvent.Calls {
		return fmt.Errorf("experiments: a2: batching made more calls: %d vs %d", batched.Calls, perEvent.Calls)
	}
	if batched.Elapsed >= perEvent.Elapsed {
		return fmt.Errorf("experiments: a2: batching slower: %v vs %v", batched.Elapsed, perEvent.Elapsed)
	}
	return nil
}

var a2Columns = []column[a2Row]{
	{"mode", func(r a2Row) string { return r.Mode }},
	{"events", func(r a2Row) string { return fmt.Sprint(r.Events) }},
	{"elapsed", func(r a2Row) string { return fmtDur(r.Elapsed) }},
	{"per event", func(r a2Row) string { return fmtDur(r.PerEvent) }},
	{"handler calls", func(r a2Row) string { return fmt.Sprint(r.Calls) }},
}

func runA2(size Size, seed int64) ([]Table, error) {
	rows, err := a2OracleBatch(a2Events[size], seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate("A2  Monitor-node dispatch: batching amortizes per-call RPC overhead", rows, a2Columns)}, verifyA2(rows)
}

// --- A3: secure-aggregation overhead ---

// a3Row is one aggregation mode's cost.
type a3Row struct {
	// Mode is "plain" or "masked".
	Mode string
	// Clients and Dim size the aggregation.
	Clients int
	Dim     int
	// Elapsed is the total aggregation time over Rounds rounds.
	Elapsed time.Duration
	// PerRound is Elapsed/Rounds.
	PerRound time.Duration
	// ExactMatch reports whether the two modes produced identical
	// results (set on the masked row).
	ExactMatch bool
}

// The aggregation ablation has one size.
const (
	// a3Clients and a3Dim size each round's update set.
	a3Clients = 16
	a3Dim     = 64
	// a3Rounds repeats the aggregation for stable timing.
	a3Rounds = 50
)

// a3SecureAgg measures the cost of pairwise additive masking relative
// to plain weighted averaging, and verifies exactness.
func a3SecureAgg(seed int64) ([]a3Row, error) {
	ids := make([]string, a3Clients)
	updates := make([]linalg.Vector, a3Clients)
	weights := make([]float64, a3Clients)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed%1000) / 100
	}
	for i := range ids {
		ids[i] = fmt.Sprintf("site-%02d", i)
		v := make(linalg.Vector, a3Dim)
		for j := range v {
			v[j] = next()
		}
		updates[i] = v
		weights[i] = 10 + float64(i)
	}

	plainStart := time.Now()
	var plain linalg.Vector
	for r := 0; r < a3Rounds; r++ {
		var err error
		plain, err = linalg.WeightedMean(updates, weights)
		if err != nil {
			return nil, err
		}
	}
	plainElapsed := time.Since(plainStart)

	maskedStart := time.Now()
	var masked linalg.Vector
	for r := 0; r < a3Rounds; r++ {
		ms, err := fl.MaskUpdates(ids, updates, weights, r)
		if err != nil {
			return nil, err
		}
		masked, err = fl.AggregateMasked(ms)
		if err != nil {
			return nil, err
		}
	}
	maskedElapsed := time.Since(maskedStart)

	exact := true
	for i := range plain {
		d := plain[i] - masked[i]
		if d > 1e-6 || d < -1e-6 {
			exact = false
		}
	}
	return []a3Row{
		{
			Mode: "plain weighted mean", Clients: a3Clients, Dim: a3Dim,
			Elapsed: plainElapsed, PerRound: plainElapsed / time.Duration(a3Rounds),
			ExactMatch: true, // the reference result
		},
		{
			Mode: "pairwise masked", Clients: a3Clients, Dim: a3Dim,
			Elapsed: maskedElapsed, PerRound: maskedElapsed / time.Duration(a3Rounds),
			ExactMatch: exact,
		},
	}, nil
}

// verifyA3 holds exactness: the masks cancel, so the masked aggregate
// equals the plain weighted mean.
func verifyA3(rows []a3Row) error {
	if !rows[1].ExactMatch {
		return fmt.Errorf("experiments: a3: masked aggregation diverged from plain")
	}
	return nil
}

var a3Columns = []column[a3Row]{
	{"mode", func(r a3Row) string { return r.Mode }},
	{"clients", func(r a3Row) string { return fmt.Sprint(r.Clients) }},
	{"dim", func(r a3Row) string { return fmt.Sprint(r.Dim) }},
	{"per round", func(r a3Row) string { return fmtDur(r.PerRound) }},
	{"exact", func(r a3Row) string { return fmt.Sprint(r.ExactMatch) }},
}

func runA3(_ Size, seed int64) ([]Table, error) {
	rows, err := a3SecureAgg(seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate(
		"A3  Secure aggregation: masking overhead per FedAvg round (result identical to plain averaging)",
		rows, a3Columns)}, verifyA3(rows)
}
