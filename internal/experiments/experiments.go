package experiments

import (
	"fmt"
	"time"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
)

// --- E1: broadcast-consensus scalability ---

// e1Row is one cluster size's measurement.
type e1Row struct {
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

// e1Config is the scalability sweep.
type e1Config struct {
	// NodeCounts are the cluster sizes to sweep.
	NodeCounts []int
	// TxPerRun is how many transactions each run commits.
	TxPerRun int
}

var e1Sizes = [...]e1Config{
	Full:  {NodeCounts: []int{1, 2, 4, 8, 16}, TxPerRun: 8},
	Quick: {NodeCounts: []int{1, 2, 4, 8}, TxPerRun: 4},
}

// linkLatency is the simulated one-way link latency of the experiments
// that put the cluster on a wide-area network (E1, A4).
const linkLatency = 2 * time.Millisecond

// e1Repeats is how many times each cluster size is built and timed.
// The run with the least elapsed time is kept, its msgs/tx with it, the
// way A4 and E3 aggregate: on a shared host background load only ever
// inflates a timing.
const e1Repeats = 3

// e1Scalability measures tx throughput and commit latency versus node
// count under broadcast quorum consensus — the paper's §I claim that
// "the performance of a single node is better than multiple nodes".
func e1Scalability(cfg e1Config, seed int64) ([]e1Row, error) {
	var rows []e1Row
	for _, n := range cfg.NodeCounts {
		var best e1Row
		for rep := 0; rep < e1Repeats; rep++ {
			row, err := e1Run(cfg, seed, n)
			if err != nil {
				return nil, err
			}
			if rep == 0 || row.Elapsed < best.Elapsed {
				best = row
			}
		}
		rows = append(rows, best)
	}
	return rows, nil
}

// e1Run builds an n-node cluster and times it committing
// cfg.TxPerRun registrations.
func e1Run(cfg e1Config, seed int64, n int) (e1Row, error) {
	c, err := chain.NewCluster(chain.ClusterConfig{
		Nodes:   n,
		Network: p2p.Config{BaseLatency: linkLatency, Seed: seed},
		KeySeed: fmt.Sprintf("e1/%d/%d", seed, n),
	})
	if err != nil {
		return e1Row{}, err
	}
	defer c.Close()
	if err := submitRegistrations(c, fmt.Sprintf("e1-user-%d", n), "e1", cfg.TxPerRun); err != nil {
		return e1Row{}, err
	}
	c.Network().ResetStats()
	start := time.Now()
	blocks := 0
	for c.Node(0).MempoolSize() > 0 {
		if _, err := c.Commit(); err != nil {
			return e1Row{}, err
		}
		blocks++
	}
	elapsed := time.Since(start)
	row := e1Row{
		Nodes:       n,
		TxCommitted: cfg.TxPerRun,
		Elapsed:     elapsed,
		Throughput:  float64(cfg.TxPerRun) / elapsed.Seconds(),
		MsgsPerTx:   float64(c.Network().Stats().MessagesSent) / float64(cfg.TxPerRun),
	}
	if blocks > 0 {
		row.LatencyPerBlock = elapsed / time.Duration(blocks)
	}
	return row, nil
}

// verifyE1 holds the §I shape: the single node out-runs the largest
// cluster, and the broadcast cost of a transaction grows with the cluster.
func verifyE1(rows []e1Row) error {
	one, most := rows[0], rows[len(rows)-1]
	if one.Throughput <= most.Throughput {
		return fmt.Errorf("experiments: e1: throughput did not fall: %d node(s) %.1f tx/s vs %d nodes %.1f tx/s",
			one.Nodes, one.Throughput, most.Nodes, most.Throughput)
	}
	if most.MsgsPerTx <= one.MsgsPerTx {
		return fmt.Errorf("experiments: e1: message overhead did not grow: %.1f msgs/tx at %d node(s) vs %.1f at %d",
			one.MsgsPerTx, one.Nodes, most.MsgsPerTx, most.Nodes)
	}
	return nil
}

var e1Columns = []column[e1Row]{
	{"nodes", func(r e1Row) string { return fmt.Sprint(r.Nodes) }},
	{"txs", func(r e1Row) string { return fmt.Sprint(r.TxCommitted) }},
	{"elapsed", func(r e1Row) string { return fmtDur(r.Elapsed) }},
	{"tx/s", func(r e1Row) string { return fmt.Sprintf("%.1f", r.Throughput) }},
	{"latency/blk", func(r e1Row) string { return fmtDur(r.LatencyPerBlock) }},
	{"msgs/tx", func(r e1Row) string { return fmt.Sprintf("%.1f", r.MsgsPerTx) }},
}

func runE1(size Size, seed int64) ([]Table, error) {
	rows, err := e1Scalability(e1Sizes[size], seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate(
		"E1  Broadcast-consensus scalability (quorum, 2ms links): throughput falls, latency rises with N",
		rows, e1Columns)}, verifyE1(rows)
}

// --- E2: duplicated computation (the energy argument) ---

// e2Row is one cluster size's gas accounting.
type e2Row struct {
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

// e2Config is the duplicated-compute sweep.
type e2Config struct {
	// NodeCounts are the replication factors to sweep.
	NodeCounts []int
	// Contracts is how many compute-heavy contract invocations to run.
	Contracts int
}

var e2Sizes = [...]e2Config{
	Full:  {NodeCounts: []int{1, 2, 4, 8}, Contracts: 3},
	Quick: {NodeCounts: []int{1, 2, 4}, Contracts: 2},
}

// e2LoopIters sizes each invocation's VM loop.
const e2LoopIters = 2000

// e2DuplicatedCompute quantifies the waste of replicated smart-contract
// execution: a compute-heavy VM contract is committed on clusters of
// increasing size; the cluster-wide gas is N× the useful gas. The same
// workload in the transformed architecture burns only the lightweight
// authorization gas on chain.
func e2DuplicatedCompute(cfg e2Config, seed int64) ([]e2Row, error) {
	src := fmt.Sprintf(`
		PUSHI %d
	loop:
		PUSHI 1
		SUB
		DUP
		JNZ loop
		HALT
	`, e2LoopIters)
	var rows []e2Row
	for _, n := range cfg.NodeCounts {
		// Duplicated: deploy + invoke the heavy contract on chain.
		dupGasUseful, dupGasTotal, err := runHeavyContract(n, cfg.Contracts, seed, src)
		if err != nil {
			return nil, err
		}
		// Transformed: the same number of on-chain operations are just
		// request_run policy checks.
		transGas, err := runPolicyOnly(n, cfg.Contracts, seed)
		if err != nil {
			return nil, err
		}
		row := e2Row{
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

// verifyE2 holds the energy argument: replicated execution wastes
// exactly N×, and the transformed chain's work stays far below one
// heavy execution.
func verifyE2(rows []e2Row) error {
	for _, r := range rows {
		if r.WasteRatio < float64(r.Nodes)-0.01 || r.WasteRatio > float64(r.Nodes)+0.01 {
			return fmt.Errorf("experiments: e2 nodes=%d: waste ratio %.2f, want ≈%d", r.Nodes, r.WasteRatio, r.Nodes)
		}
		if r.TransformedRatio > 0.5 {
			return fmt.Errorf("experiments: e2 nodes=%d: transformed ratio %.3f not ≪ 1", r.Nodes, r.TransformedRatio)
		}
	}
	return nil
}

var e2Columns = []column[e2Row]{
	{"nodes", func(r e2Row) string { return fmt.Sprint(r.Nodes) }},
	{"useful gas", func(r e2Row) string { return fmt.Sprint(r.UsefulGas) }},
	{"cluster gas", func(r e2Row) string { return fmt.Sprint(r.TotalGas) }},
	{"waste ratio", func(r e2Row) string { return fmt.Sprintf("%.2f", r.WasteRatio) }},
	{"transformed gas", func(r e2Row) string { return fmt.Sprint(r.TransformedGas) }},
	{"trans ratio", func(r e2Row) string { return fmt.Sprintf("%.3f", r.TransformedRatio) }},
}

func runE2(size Size, seed int64) ([]Table, error) {
	rows, err := e2DuplicatedCompute(e2Sizes[size], seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate(
		"E2  Duplicated smart-contract computation: cluster gas = N x useful gas; transformed burns only policy gas",
		rows, e2Columns)}, verifyE2(rows)
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

// submitRegistrations signs n register_dataset transactions (datasets
// idPrefix/d-0 …) with the key derived from userSeed, submits them to c
// and waits until every node has pooled them.
func submitRegistrations(c *chain.Cluster, userSeed, idPrefix string, n int) error {
	user, err := cryptoutil.DeriveKeyPair(userSeed)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		tx, err := registerTx(user, uint64(i), fmt.Sprintf("%s/d-%d", idPrefix, i))
		if err != nil {
			return err
		}
		if err := c.Submit(tx); err != nil {
			return err
		}
	}
	return waitGossip(c, n)
}

// waitGossip waits, for at most ten seconds, until every node of c has
// pooled want transactions.
func waitGossip(c *chain.Cluster, want int) error {
	if !c.WaitPooled(want, 10*time.Second) {
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
