// Package experiments implements the reproduction harness: one function
// per experiment in DESIGN.md's index (E1–E8 core experiments, A1–A3
// ablations). Each returns structured rows plus a formatted table so
// both cmd/benchmed and the root bench suite print identical output.
//
// The paper (ICDCS 2018) is a vision paper without measurement tables;
// these experiments quantify each of its testable claims on the
// simulated substrate — see DESIGN.md §4 for the claim-to-experiment
// mapping and EXPERIMENTS.md for recorded results.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
)

// Table renders rows of cells with a header, padded columns, and a
// title — the paper-shaped output format.
func Table(title string, header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteByte('\n')
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < width[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	line(header)
	for i, w := range width {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		line(row)
	}
	return sb.String()
}

// --- E1: broadcast-consensus scalability ---

// E1Row is one cluster size's measurement.
type E1Row struct {
	// Nodes is the cluster size.
	Nodes int
	// TxCommitted is the number of committed transactions.
	TxCommitted int
	// Elapsed is the total commit wall time.
	Elapsed time.Duration
	// Throughput is transactions per second.
	Throughput float64
	// LatencyPerBlock is the mean commit latency.
	LatencyPerBlock time.Duration
	// MsgsPerTx is broadcast messages per committed transaction.
	MsgsPerTx float64
}

// E1Config tunes the scalability sweep.
type E1Config struct {
	// NodeCounts are the cluster sizes to sweep.
	NodeCounts []int
	// TxPerRun is how many transactions each run commits.
	TxPerRun int
	// Latency is the simulated one-way link latency.
	Latency time.Duration
	// Seed namespaces keys.
	Seed int64
}

func (c E1Config) withDefaults() E1Config {
	if len(c.NodeCounts) == 0 {
		c.NodeCounts = []int{1, 2, 4, 8, 16}
	}
	if c.TxPerRun <= 0 {
		c.TxPerRun = 8
	}
	if c.Latency <= 0 {
		c.Latency = 2 * time.Millisecond
	}
	return c
}

// E1Scalability measures tx throughput and commit latency versus node
// count under broadcast quorum consensus — the paper's §I claim that
// "the performance of a single node is better than multiple nodes".
func E1Scalability(cfg E1Config) ([]E1Row, error) {
	cfg = cfg.withDefaults()
	var rows []E1Row
	for _, n := range cfg.NodeCounts {
		c, err := chain.NewCluster(chain.ClusterConfig{
			Nodes:   n,
			Engine:  chain.EngineQuorum,
			Network: p2p.Config{BaseLatency: cfg.Latency, Seed: cfg.Seed},
			KeySeed: fmt.Sprintf("e1/%d/%d", cfg.Seed, n),
		})
		if err != nil {
			return nil, err
		}
		user, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("e1-user-%d", n))
		if err != nil {
			c.Close()
			return nil, err
		}
		for i := 0; i < cfg.TxPerRun; i++ {
			tx, err := registerTx(user, uint64(i), fmt.Sprintf("e1/d-%d", i))
			if err != nil {
				c.Close()
				return nil, err
			}
			if err := c.Submit(tx); err != nil {
				c.Close()
				return nil, err
			}
		}
		if err := waitGossip(c, cfg.TxPerRun, 10*time.Second); err != nil {
			c.Close()
			return nil, err
		}
		c.Network().ResetStats()
		start := time.Now()
		blocks := 0
		for c.Node(0).MempoolSize() > 0 {
			if _, err := c.Commit(); err != nil {
				c.Close()
				return nil, err
			}
			blocks++
		}
		elapsed := time.Since(start)
		stats := c.Network().Stats()
		row := E1Row{
			Nodes:       n,
			TxCommitted: cfg.TxPerRun,
			Elapsed:     elapsed,
			Throughput:  float64(cfg.TxPerRun) / elapsed.Seconds(),
		}
		if blocks > 0 {
			row.LatencyPerBlock = elapsed / time.Duration(blocks)
		}
		row.MsgsPerTx = float64(stats.MessagesSent) / float64(cfg.TxPerRun)
		rows = append(rows, row)
		c.Close()
	}
	return rows, nil
}

// TableE1 renders the E1 rows.
func TableE1(rows []E1Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprint(r.Nodes),
			fmt.Sprint(r.TxCommitted),
			fmtDur(r.Elapsed),
			fmt.Sprintf("%.1f", r.Throughput),
			fmtDur(r.LatencyPerBlock),
			fmt.Sprintf("%.1f", r.MsgsPerTx),
		}
	}
	return Table(
		"E1  Broadcast-consensus scalability (quorum, 2ms links): throughput falls, latency rises with N",
		[]string{"nodes", "txs", "elapsed", "tx/s", "latency/blk", "msgs/tx"},
		out,
	)
}

// --- E2: duplicated computation (the energy argument) ---

// E2Row is one cluster size's gas accounting.
type E2Row struct {
	// Nodes is the replication factor.
	Nodes int
	// UsefulGas is one execution of the committed history.
	UsefulGas int64
	// TotalGas is the gas burned across the whole cluster.
	TotalGas int64
	// WasteRatio is TotalGas/UsefulGas (≈ Nodes for duplicated
	// execution, ≈ 1 transformed).
	WasteRatio float64
	// TransformedGas is what the transformed architecture burns on
	// chain for the same workload (policy checks only, once per node —
	// but the heavy compute happens once, off-chain).
	TransformedGas int64
	// TransformedRatio is TransformedGas/UsefulGas.
	TransformedRatio float64
}

// E2Config tunes the duplicated-compute sweep.
type E2Config struct {
	// NodeCounts are the replication factors to sweep.
	NodeCounts []int
	// Contracts is how many compute-heavy contract invocations to run.
	Contracts int
	// LoopIters sizes each invocation's VM loop.
	LoopIters int
	// Seed namespaces keys.
	Seed int64
}

func (c E2Config) withDefaults() E2Config {
	if len(c.NodeCounts) == 0 {
		c.NodeCounts = []int{1, 2, 4, 8}
	}
	if c.Contracts <= 0 {
		c.Contracts = 3
	}
	if c.LoopIters <= 0 {
		c.LoopIters = 2000
	}
	return c
}

// E2DuplicatedCompute quantifies the waste of replicated smart-contract
// execution: a compute-heavy VM contract is committed on clusters of
// increasing size; the cluster-wide gas is N× the useful gas. The same
// workload in the transformed architecture burns only the lightweight
// authorization gas on chain.
func E2DuplicatedCompute(cfg E2Config) ([]E2Row, error) {
	cfg = cfg.withDefaults()
	src := fmt.Sprintf(`
		PUSHI %d
	loop:
		PUSHI 1
		SUB
		DUP
		JNZ loop
		HALT
	`, cfg.LoopIters)
	var rows []E2Row
	for _, n := range cfg.NodeCounts {
		// Duplicated: deploy + invoke the heavy contract on chain.
		dupGasUseful, dupGasTotal, err := runHeavyContract(n, cfg, src)
		if err != nil {
			return nil, err
		}
		// Transformed: the same number of on-chain operations are just
		// request_run policy checks.
		transGas, err := runPolicyOnly(n, cfg)
		if err != nil {
			return nil, err
		}
		row := E2Row{
			Nodes:          n,
			UsefulGas:      dupGasUseful,
			TotalGas:       dupGasTotal,
			TransformedGas: transGas,
		}
		if dupGasUseful > 0 {
			row.WasteRatio = float64(dupGasTotal) / float64(dupGasUseful)
			row.TransformedRatio = float64(transGas) / float64(dupGasUseful)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// TableE2 renders the E2 rows.
func TableE2(rows []E2Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprint(r.Nodes),
			fmt.Sprint(r.UsefulGas),
			fmt.Sprint(r.TotalGas),
			fmt.Sprintf("%.2f", r.WasteRatio),
			fmt.Sprint(r.TransformedGas),
			fmt.Sprintf("%.3f", r.TransformedRatio),
		}
	}
	return Table(
		"E2  Duplicated smart-contract computation: cluster gas = N x useful gas; transformed burns only policy gas",
		[]string{"nodes", "useful gas", "cluster gas", "waste ratio", "transformed gas", "trans ratio"},
		out,
	)
}

// --- shared helpers ---

func registerTx(kp *cryptoutil.KeyPair, nonce uint64, id string) (*ledger.Transaction, error) {
	return buildTx(kp, nonce, ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{
		ID: id, Digest: cryptoutil.Sum([]byte(id)), Schema: "cdf/v1", Records: 1, SiteID: "s",
	})
}

func buildTx(kp *cryptoutil.KeyPair, nonce uint64, typ ledger.TxType, method string, args any) (*ledger.Transaction, error) {
	raw, err := jsonMarshal(args)
	if err != nil {
		return nil, err
	}
	tx := &ledger.Transaction{
		Type: typ, Nonce: nonce, Method: method, Args: raw, Timestamp: int64(nonce) + 1,
	}
	if err := tx.Sign(kp); err != nil {
		return nil, err
	}
	return tx, nil
}

func waitGossip(c *chain.Cluster, want int, timeout time.Duration) error {
	if !c.WaitPooled(want, timeout) {
		return fmt.Errorf("experiments: gossip timeout (%d txs)", want)
	}
	return nil
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
