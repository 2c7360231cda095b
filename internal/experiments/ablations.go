package experiments

import (
	"fmt"
	"sync"
	"time"

	"medchain/internal/chain"
	"medchain/internal/cryptoutil"
	"medchain/internal/fl"
	"medchain/internal/linalg"
	"medchain/internal/oracle"
)

// --- A1: consensus-engine ablation ---

// a1Row is one engine's measurement on the same workload.
type a1Row struct {
	// Engine names the consensus engine.
	Engine chain.EngineKind
	// Elapsed is the time to commit the workload.
	Elapsed time.Duration
	// Throughput is tx/s.
	Throughput float64
	// PoWHashes is mining work (PoW only).
	PoWHashes int64
}

// The consensus ablation has one size.
const (
	// a1Nodes is the fixed cluster size.
	a1Nodes = 4
	// a1Txs is the workload size.
	a1Txs = 8
	// a1PowDifficulty is the PoW target.
	a1PowDifficulty = 10
)

// a1Consensus commits the same workload under PoW, PoA, PoS and quorum
// consensus on equally-sized clusters.
func a1Consensus(seed int64) ([]a1Row, error) {
	var rows []a1Row
	for _, engine := range []chain.EngineKind{chain.EnginePoW, chain.EnginePoA, chain.EnginePoS, chain.EngineQuorum} {
		c, err := chain.NewCluster(chain.ClusterConfig{
			Nodes:         a1Nodes,
			Engine:        engine,
			PowDifficulty: a1PowDifficulty,
			KeySeed:       fmt.Sprintf("a1/%s/%d", engine, seed),
		})
		if err != nil {
			return nil, err
		}
		if err := submitRegistrations(c, fmt.Sprintf("a1-user-%s", engine), fmt.Sprintf("a1/%s", engine), a1Txs); err != nil {
			c.Close()
			return nil, err
		}
		start := time.Now()
		if _, err := c.CommitAll(); err != nil {
			c.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		rows = append(rows, a1Row{
			Engine:     engine,
			Elapsed:    elapsed,
			Throughput: float64(a1Txs) / elapsed.Seconds(),
			PoWHashes:  c.PoWWork(),
		})
		c.Close()
	}
	return rows, nil
}

// verifyA1 holds the ablation's point: only PoW pays hash work, and
// every engine — PoS included — is in the comparison.
func verifyA1(rows []a1Row) error {
	hashes := map[chain.EngineKind]int64{}
	for _, r := range rows {
		hashes[r.Engine] = r.PoWHashes
	}
	if hashes[chain.EnginePoW] == 0 {
		return fmt.Errorf("experiments: a1: PoW did no work")
	}
	for _, engine := range []chain.EngineKind{chain.EnginePoA, chain.EnginePoS, chain.EngineQuorum} {
		if n, ok := hashes[engine]; !ok {
			return fmt.Errorf("experiments: a1: %s engine missing", engine)
		} else if n != 0 {
			return fmt.Errorf("experiments: a1: %s reports %d hashes of work", engine, n)
		}
	}
	return nil
}

var a1Columns = []column[a1Row]{
	{"engine", func(r a1Row) string { return string(r.Engine) }},
	{"elapsed", func(r a1Row) string { return fmtDur(r.Elapsed) }},
	{"tx/s", func(r a1Row) string { return fmt.Sprintf("%.1f", r.Throughput) }},
	{"pow hashes", func(r a1Row) string { return fmt.Sprint(r.PoWHashes) }},
}

func runA1(_ Size, seed int64) ([]Table, error) {
	rows, err := a1Consensus(seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate(
		"A1  Consensus ablation (same workload, same cluster size): PoW burns hash work for nothing the medical chain needs",
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
			Nodes: 1, Engine: chain.EngineQuorum,
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
