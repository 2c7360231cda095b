package experiments

import (
	"encoding/base64"
	"encoding/json"
	"fmt"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/vm"
)

func jsonMarshal(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("experiments: marshal: %w", err)
	}
	return b, nil
}

// runHeavyContract deploys a compute-heavy VM contract on an n-node
// cluster and invokes it contracts times, returning (useful gas,
// cluster-wide gas).
func runHeavyContract(n, contracts int, seed int64, src string) (useful, total int64, err error) {
	c, err := chain.NewCluster(chain.ClusterConfig{
		Nodes:   n,
		KeySeed: fmt.Sprintf("e2/%d/%d", seed, n),
	})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()

	dev, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("e2-dev-%d", n))
	if err != nil {
		return 0, 0, err
	}
	code := vm.MustAssemble(src)
	deploy, err := buildTx(dev, 0, ledger.TxDeploy, "deploy", contract.DeployArgs{
		Name: "heavy", Code: base64.StdEncoding.EncodeToString(code),
	})
	if err != nil {
		return 0, 0, err
	}
	txs := []*ledger.Transaction{deploy}
	addr := contract.DeployedAddress(dev.Address(), 0)
	for i := 0; i < contracts; i++ {
		invoke := &ledger.Transaction{
			Type: ledger.TxInvoke, Nonce: uint64(i + 1), Contract: addr,
			Method: "run", Timestamp: int64(i + 2),
		}
		if err := invoke.Sign(dev); err != nil {
			return 0, 0, err
		}
		txs = append(txs, invoke)
	}
	for _, tx := range txs {
		if err := c.Submit(tx); err != nil {
			return 0, 0, err
		}
	}
	if err := waitGossip(c, len(txs)); err != nil {
		return 0, 0, err
	}
	if _, err := c.CommitAll(); err != nil {
		return 0, 0, err
	}
	for _, tx := range txs {
		r, ok := c.Node(0).Receipt(tx.ID())
		if !ok || !r.OK() {
			return 0, 0, fmt.Errorf("experiments: e2 tx failed: %v", r)
		}
	}
	return c.UsefulGasUsed(), c.TotalGasUsed(), nil
}

// runPolicyOnly runs the transformed equivalent: the same number of
// on-chain operations are lightweight request_run policy checks (the
// heavy compute happens off-chain, once). Returns cluster-wide gas.
func runPolicyOnly(n, contracts int, seed int64) (int64, error) {
	c, err := chain.NewCluster(chain.ClusterConfig{
		Nodes:   n,
		KeySeed: fmt.Sprintf("e2t/%d/%d", seed, n),
	})
	if err != nil {
		return 0, err
	}
	defer c.Close()

	owner, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("e2-owner-%d", n))
	if err != nil {
		return 0, err
	}
	regData, err := buildTx(owner, 0, ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{
		ID: "d", SiteID: "s",
	})
	if err != nil {
		return 0, err
	}
	regTool, err := buildTx(owner, 1, ledger.TxAnalytics, "register_tool", contract.RegisterToolArgs{ID: "t"})
	if err != nil {
		return 0, err
	}
	txs := []*ledger.Transaction{regData, regTool}
	for i := 0; i < contracts; i++ {
		req, err := buildTx(owner, uint64(i+2), ledger.TxAnalytics, "request_run", contract.RequestRunArgs{
			Tool: "t", Dataset: "d",
		})
		if err != nil {
			return 0, err
		}
		txs = append(txs, req)
	}
	for _, tx := range txs {
		if err := c.Submit(tx); err != nil {
			return 0, err
		}
	}
	if err := waitGossip(c, len(txs)); err != nil {
		return 0, err
	}
	if _, err := c.CommitAll(); err != nil {
		return 0, err
	}
	return c.TotalGasUsed(), nil
}
