// Package parexec is the deterministic parallel execution engine — the
// subsystem that makes the repro's two execution layers use all
// available cores, per the paper's claim that a blockchain can be
// transformed into a distributed *parallel* computing architecture.
//
// The engine has two block-execution modes, selected by Config.Mode,
// bit-identical to each other at every worker count:
//
//   - ModeSerial (the zero value): apply the block's transactions in
//     order with State.Apply — the reference loop.
//   - ModeMVCCWave: build a dependency DAG from the declared access
//     sets (contract.Prepare, which decodes each transaction once for
//     its footprint and its handler), group transactions into waves by
//     DAG depth, and execute each wave in parallel against a
//     multi-version state cache (contract.Versions) — a conflicting
//     transaction reads the committed version written by its
//     predecessor instead of being re-executed serially. Every
//     transaction executes exactly once.
//
// Determinism argument: the wave schedule depends only on the
// statically declared access sets and the canonical transaction order,
// never on timing. Version chains are appended only at wave barriers in
// ascending transaction index, and every transaction reads "the newest
// version older than my index" — a pure function of the block, so the
// values it observes are identical on every run and worker count. See
// mvcc.go for the scheduler.
//
// Off chain, the same bounded pool (par.ForEachN) fans analytics tasks out
// across sites (offchain.Runner.Dispatch) — the paper's "move the
// computing to the data" layer.
package parexec

import (
	"runtime"
	"sync"

	"medchain/internal/contract"
	"medchain/internal/ledger"
)

// Mode selects the block-execution strategy.
type Mode int

const (
	// ModeSerial applies the block's transactions in order on the
	// calling goroutine.
	ModeSerial Mode = iota
	// ModeMVCCWave executes the dependency DAG wave by wave against a
	// multi-version state cache; every transaction runs exactly once.
	ModeMVCCWave
)

// String names the mode for logs, experiment tables, and oracles.
func (m Mode) String() string {
	if m == ModeMVCCWave {
		return "mvcc-wave"
	}
	return "serial"
}

// Config configures an Engine. The zero value is serial execution.
type Config struct {
	// Workers is the bounded pool size (<= 0 means GOMAXPROCS); unused
	// by ModeSerial.
	Workers int
	// Mode selects the execution strategy (default ModeSerial).
	Mode Mode
}

// Stats counts engine activity. Invariant (asserted in tests):
//
//	Clean + Serial == Txs
//
// On ModeSerial's mid-block hard-error path (nil transaction), Txs is
// the applied prefix so the invariant holds for the stats actually
// recorded.
type Stats struct {
	// Blocks is the number of blocks applied (ExecuteBlock, or Commit).
	Blocks int64
	// Txs is the total transactions applied (the applied prefix when
	// ModeSerial aborts a block on a hard error).
	Txs int64
	// Clean is how many transactions the wave scheduler executed on the
	// parallel path: every transaction in ModeMVCCWave.
	Clean int64
	// Serial is how many transactions ran in order, one at a time:
	// every transaction in ModeSerial.
	Serial int64
	// Waves is the total dependency waves dispatched (0 in ModeSerial;
	// at most Txs).
	Waves int64
}

// Add folds another stats value into the running totals.
func (s *Stats) Add(o Stats) {
	s.Blocks += o.Blocks
	s.Txs += o.Txs
	s.Clean += o.Clean
	s.Serial += o.Serial
	s.Waves += o.Waves
}

// Engine executes transaction batches in the configured mode with
// deterministic serial-equivalent results. It is stateless between
// blocks apart from accumulated Stats and safe for concurrent use by
// independent blocks on independent states.
type Engine struct {
	cfg Config

	mu    sync.Mutex
	stats Stats
}

// NewEngine creates an engine from a config.
func NewEngine(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{cfg: cfg}
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Mode returns the engine's execution mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// Stats returns the accumulated execution counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// ExecuteBlock applies txs to st in canonical order using the
// configured mode and returns the receipts (index-aligned with txs)
// plus this block's stats. The final state and receipts are
// bit-identical to serially applying txs in order. The error return
// mirrors State.Apply: non-nil only for programming errors (nil
// transaction). ModeMVCCWave is Speculate then Commit, so an error
// leaves st untouched and nothing counted; ModeSerial is the reference
// loop on live state, so st then holds a prefix of the block and the
// returned receipts and stats cover exactly that applied prefix.
func (e *Engine) ExecuteBlock(st *contract.State, txs []*ledger.Transaction, height uint64, now int64) ([]*contract.Receipt, Stats, error) {
	if e.cfg.Mode == ModeMVCCWave {
		sp, err := e.Speculate(st, txs, height, now)
		if err != nil {
			return nil, Stats{}, err
		}
		return e.Commit(sp), sp.stats, nil
	}
	receipts, err := applyInOrder(st, txs, height, now)
	bs := Stats{Blocks: 1, Txs: int64(len(receipts)), Serial: int64(len(receipts))}
	e.record(bs)
	return receipts, bs, err
}

// applyInOrder applies txs to live state one after another and returns
// their receipts; on a hard error, the receipts of the applied prefix.
func applyInOrder(st *contract.State, txs []*ledger.Transaction, height uint64, now int64) ([]*contract.Receipt, error) {
	receipts := make([]*contract.Receipt, 0, len(txs))
	for _, tx := range txs {
		r, err := st.Apply(tx, height, now)
		if err != nil {
			return receipts, err
		}
		receipts = append(receipts, r)
	}
	return receipts, nil
}

func (e *Engine) record(bs Stats) {
	e.mu.Lock()
	e.stats.Add(bs)
	e.mu.Unlock()
}
