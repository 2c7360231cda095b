package sim

import (
	"encoding/json"
	"fmt"
	"strings"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/parexec"
)

// Executor replays a block body against a state — the unit the
// differential oracle compares. Implementations must be deterministic
// functions of (state, txs, height, now); the harness replays every
// committed block through each configured executor and fails on any
// divergence from the serial reference.
type Executor interface {
	// Name labels the executor in violation reports.
	Name() string
	// Execute applies txs to st in canonical order.
	Execute(st *contract.State, txs []*ledger.Transaction, height uint64, now int64) ([]*contract.Receipt, error)
}

// SerialExecutor is the reference semantics: one transaction at a
// time, in block order.
type SerialExecutor struct{}

// Name implements Executor.
func (SerialExecutor) Name() string { return "serial" }

// Execute implements Executor.
func (SerialExecutor) Execute(st *contract.State, txs []*ledger.Transaction, height uint64, now int64) ([]*contract.Receipt, error) {
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

// MVCCExecutor replays blocks through the MVCC dependency-wave
// scheduler (internal/parexec): Speculate then Commit, the code a node
// applies a block with.
type MVCCExecutor struct {
	// Workers is the engine pool size (<= 0 means GOMAXPROCS).
	Workers int
}

// Name implements Executor.
func (e MVCCExecutor) Name() string {
	return fmt.Sprintf("%s-w%d", parexec.ModeMVCCWave, e.Workers)
}

// Execute implements Executor.
func (e MVCCExecutor) Execute(st *contract.State, txs []*ledger.Transaction, height uint64, now int64) ([]*contract.Receipt, error) {
	eng := parexec.NewEngine(parexec.Config{Workers: e.Workers, Mode: parexec.ModeMVCCWave})
	receipts, _, err := eng.ExecuteBlock(st, txs, height, now)
	return receipts, err
}

// DefaultExecutors returns the suspects the harness checks against the
// serial reference by default: the MVCC wave scheduler at two and eight
// workers.
func DefaultExecutors() []Executor {
	return []Executor{
		MVCCExecutor{Workers: 2},
		MVCCExecutor{Workers: 8},
	}
}

// outcome captures everything observable about one executor's replay
// of a block: the post-state root, the canonical receipt encoding, and
// whether a hard error aborted the block.
type outcome struct {
	root     cryptoutil.Digest
	receipts string
	errored  bool
}

// receiptsJSON renders receipts canonically for byte comparison. A nil
// slice and an empty one are the same observable (an empty block's
// receipts), so both render as "[]".
func receiptsJSON(recs []*contract.Receipt) string {
	if len(recs) == 0 {
		return "[]"
	}
	b, err := json.Marshal(recs)
	if err != nil {
		return fmt.Sprintf("marshal error: %v", err)
	}
	return string(b)
}

// replay runs one executor over a clone of pre.
func replay(ex Executor, pre *contract.State, txs []*ledger.Transaction, height uint64, now int64) outcome {
	st := pre.Clone()
	recs, err := ex.Execute(st, txs, height, now)
	return outcome{root: st.Root(), receipts: receiptsJSON(recs), errored: err != nil}
}

// compare returns a human-readable description of how got diverges
// from want, or ok=true when they agree on every observable.
func compare(want, got outcome) (detail string, ok bool) {
	switch {
	case want.errored != got.errored:
		return fmt.Sprintf("hard-error mismatch: serial errored=%v, suspect errored=%v", want.errored, got.errored), false
	case want.root != got.root:
		return fmt.Sprintf("state root %s != serial %s", got.root.Short(), want.root.Short()), false
	case want.receipts != got.receipts:
		return "receipts diverged from serial", false
	}
	return "", true
}

// diverges replays txs from pre under both executors and reports any
// divergence.
func diverges(pre *contract.State, txs []*ledger.Transaction, height uint64, now int64, serial, suspect Executor) (string, bool) {
	want := replay(serial, pre, txs, height, now)
	got := replay(suspect, pre, txs, height, now)
	detail, ok := compare(want, got)
	return detail, !ok
}

// minimize shrinks a diverging block body by greedy single-transaction
// removal (ddmin for the small block sizes the fuzzer produces): drop
// any transaction whose removal preserves the divergence, repeating
// until a fixed point. The result is a (usually much smaller) body
// that still makes the suspect disagree with serial when replayed from
// pre.
func minimize(pre *contract.State, txs []*ledger.Transaction, height uint64, now int64, serial, suspect Executor) []*ledger.Transaction {
	cur := append([]*ledger.Transaction(nil), txs...)
	for changed := true; changed && len(cur) > 1; {
		changed = false
		for i := range cur {
			cand := make([]*ledger.Transaction, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if _, bad := diverges(pre, cand, height, now, serial, suspect); bad {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur
}

// Counterexample is a minimized, seed-reproducible record of a
// differential-oracle failure.
type Counterexample struct {
	// Seed and Rounds reproduce the run that found the divergence.
	Seed   int64 `json:"seed"`
	Rounds int   `json:"rounds"`
	// Height is the committed block the suspect diverged on.
	Height uint64 `json:"height"`
	// Executor names the diverging executor.
	Executor string `json:"executor"`
	// Detail describes the first observed divergence on the full block.
	Detail string `json:"detail"`
	// BlockTxs are the full block body's transaction summaries.
	BlockTxs []string `json:"block_txs"`
	// Minimized is the shrunken body that still diverges when replayed
	// from the pre-block state.
	Minimized []string `json:"minimized"`
	// MinimizedDetail describes the divergence of the minimized body.
	MinimizedDetail string `json:"minimized_detail"`
}

// Repro renders the exact command that replays the finding run.
func (c *Counterexample) Repro() string {
	return fmt.Sprintf("go test ./internal/sim -run 'TestSim$' -sim.seed=%d -sim.rounds=%d", c.Seed, c.Rounds)
}

// String renders the counterexample for failure messages.
func (c *Counterexample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "executor %s diverged at height %d: %s\n", c.Executor, c.Height, c.Detail)
	fmt.Fprintf(&b, "minimized to %d of %d txs (%s):\n", len(c.Minimized), len(c.BlockTxs), c.MinimizedDetail)
	for _, tx := range c.Minimized {
		fmt.Fprintf(&b, "  %s\n", tx)
	}
	fmt.Fprintf(&b, "reproduce: %s", c.Repro())
	return b.String()
}

// AdversaryCounterexample is a shrunken, seed-reproducible adversary
// schedule that still violates an invariant: the smallest behavior set
// and round count (found greedily) under which the run keeps failing.
type AdversaryCounterexample struct {
	// Seed and Rounds reproduce the shrunken run.
	Seed   int64 `json:"seed"`
	Rounds int   `json:"rounds"`
	// Behaviors is the minimized behavior set.
	Behaviors []Behavior `json:"behaviors"`
	// Violation is the first invariant violation of the shrunken run.
	Violation string `json:"violation"`
}

// Repro renders the exact command that replays the shrunken run.
func (c *AdversaryCounterexample) Repro() string {
	names := make([]string, len(c.Behaviors))
	for i, b := range c.Behaviors {
		names[i] = string(b)
	}
	return fmt.Sprintf("go test ./internal/sim -run 'TestSimAdversary$' -sim.seed=%d -sim.rounds=%d -sim.adversary=%s",
		c.Seed, c.Rounds, strings.Join(names, ","))
}

// String renders the counterexample for failure messages.
func (c *AdversaryCounterexample) String() string {
	return fmt.Sprintf("adversary schedule minimized to behaviors=%v rounds=%d: %s\nreproduce: %s",
		c.Behaviors, c.Rounds, c.Violation, c.Repro())
}

// MinimizeAdversary shrinks a failing adversarial run: it greedily
// drops behaviors, then halves the round count, keeping each reduction
// only if the re-run still violates an invariant. Every probe is a
// full simulation, so callers opt in via AdversaryConfig.Minimize.
func MinimizeAdversary(cfg Config, violation string) *AdversaryCounterexample {
	if cfg.Adversary == nil {
		return nil
	}
	probe := func(behaviors []Behavior, rounds int) (string, bool) {
		pc := cfg
		pc.Rounds = rounds
		ac := cfg.Adversary.withDefaults()
		ac.Behaviors = behaviors
		ac.Minimize = false // no recursive shrinking inside probes
		pc.Adversary = ac
		res, err := Run(pc)
		if err != nil && len(res.Violations) > 0 {
			return res.Violations[0], true
		}
		return "", false
	}

	cur := append([]Behavior(nil), cfg.Adversary.withDefaults().Behaviors...)
	rounds := cfg.Rounds

	// Pass 1: drop behaviors one at a time while the failure persists.
	for changed := true; changed && len(cur) > 1; {
		changed = false
		for i := range cur {
			cand := make([]Behavior, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if v, bad := probe(cand, rounds); bad {
				cur, violation, changed = cand, v, true
				break
			}
		}
	}
	// Pass 2: halve rounds while the failure persists.
	for rounds > 8 {
		if v, bad := probe(cur, rounds/2); bad {
			rounds, violation = rounds/2, v
			continue
		}
		break
	}
	return &AdversaryCounterexample{
		Seed:      cfg.Seed,
		Rounds:    rounds,
		Behaviors: cur,
		Violation: violation,
	}
}

// txSummary renders one transaction for counterexample listings.
func txSummary(tx *ledger.Transaction) string {
	if tx == nil {
		return "<nil>"
	}
	args := string(tx.Args)
	if len(args) > 96 {
		args = args[:96] + "…"
	}
	return fmt.Sprintf("%s/%s from=%s nonce=%d args=%s", tx.Type, tx.Method, tx.From.Short(), tx.Nonce, args)
}
