// Package core is the paper's primary contribution assembled: the
// transformation of a blockchain from duplicated computing into a
// distributed parallel computing architecture for precision medicine.
//
// A Platform wires together
//
//   - a permissioned medical blockchain (package chain) whose
//     lightweight smart contracts act only as ownership/access policy
//     control points (Fig. 4),
//   - one off-chain Site per hospital premise holding the data and the
//     analytics tools (Fig. 1/6, package offchain),
//   - the query service that decomposes a request into per-site
//     sub-requests and composes the results (Fig. 5, package query),
//   - the HIE exchange path with its hash-chained audit log (package
//     hie), and
//   - federated/transfer learning over the sites (package fl).
//
// Two execution modes realize the paper's central comparison:
//
//   - RunDuplicated: the classic smart-contract model — every node
//     executes the full job over the full data set (which must first
//     be replicated to every node).
//   - RunTransformed: the paper's model — the on-chain contract only
//     authorizes; each site executes the job over its local shard in
//     parallel, and only small results move.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"medchain/internal/analytics"
	"medchain/internal/blob"
	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/emr"
	"medchain/internal/fl"
	"medchain/internal/hie"
	"medchain/internal/indexer"
	"medchain/internal/ledger"
	"medchain/internal/ml"
	"medchain/internal/offchain"
	"medchain/internal/p2p"
	"medchain/internal/query"
)

// Errors.
var (
	ErrNoDatasets = errors.New("core: no datasets registered")
	ErrDenied     = errors.New("core: request denied on chain")
	ErrTxFailed   = errors.New("core: transaction failed")
)

// Config sizes a platform.
type Config struct {
	// Sites is the number of hospital premises (each also runs a chain
	// node), ≥ 1.
	Sites int
	// PatientsPerSite sizes each site's synthetic cohort.
	PatientsPerSite int
	// Seed drives all generation.
	Seed int64
	// Network is the simulated link model between chain nodes.
	Network p2p.Config
	// KeySeed namespaces deterministic keys (default "platform").
	KeySeed string
	// Index enables the off-chain data plane: per-site content-addressed
	// blob stores, on-chain manifest anchoring, and the chain-tailing
	// EMR indexer behind QueryIndexed.
	Index bool
}

func (c Config) withDefaults() Config {
	if c.Sites < 1 {
		c.Sites = 1
	}
	if c.PatientsPerSite <= 0 {
		c.PatientsPerSite = 100
	}
	if c.KeySeed == "" {
		c.KeySeed = "platform"
	}
	return c
}

// Platform is the assembled system.
type Platform struct {
	cfg     Config
	cluster *chain.Cluster
	runner  *offchain.Runner
	reg     *analytics.Registry
	hie     *hie.Service
	sites   []*offchain.Site
	fda     *Account
	accounts
	tsSeq atomic.Int64 // logical clock: transaction and exchange timestamps

	// Off-chain data plane (nil unless Config.Index).
	idx        *indexer.Indexer
	blobStores map[string]*blob.Store // dataset ID -> store
	siteFormat map[string]string      // site ID -> EMR encoding
}

// NewPlatform builds and bootstraps a platform: chain cluster up, one
// site per node with generated data, datasets and built-in tools
// registered on chain, digests anchored.
func NewPlatform(cfg Config) (*Platform, error) {
	cfg = cfg.withDefaults()
	cluster, err := chain.NewCluster(chain.ClusterConfig{
		Nodes:   cfg.Sites,
		Network: cfg.Network,
		KeySeed: cfg.KeySeed,
	})
	if err != nil {
		return nil, err
	}
	p := &Platform{
		cfg:      cfg,
		cluster:  cluster,
		reg:      analytics.NewRegistry(),
		accounts: newAccounts(cfg.KeySeed),
	}

	// One site per chain node, disjoint patient populations.
	sites := make([]*offchain.Site, 0, cfg.Sites)
	for i := 0; i < cfg.Sites; i++ {
		siteID := fmt.Sprintf("site-%d", i)
		recs := emr.NewGenerator(emr.GenConfig{
			Seed:     cfg.Seed + int64(i)*7919,
			Patients: cfg.PatientsPerSite,
			StartID:  i * cfg.PatientsPerSite,
		}).Generate()
		site, err := offchain.NewSite(siteID, p.reg, recs)
		if err != nil {
			cluster.Close()
			return nil, err
		}
		sites = append(sites, site)
	}
	p.sites = sites
	p.runner = offchain.NewRunner(sites...)
	p.hie = hie.NewService(p.runner)

	fda, err := p.Acquire("fda")
	if err != nil {
		cluster.Close()
		return nil, err
	}
	p.fda = fda
	p.hie.SetFDA(fda.key)

	if err := p.bootstrap(); err != nil {
		cluster.Close()
		return nil, err
	}
	if cfg.Index {
		if err := p.setupDataPlane(); err != nil {
			cluster.Close()
			return nil, err
		}
	}
	return p, nil
}

// bootstrap registers each site's dataset and the built-in tools on
// chain.
func (p *Platform) bootstrap() error {
	var calls []call
	for _, site := range p.sites {
		owner, err := p.Acquire("site-owner-" + site.ID())
		if err != nil {
			return err
		}
		calls = append(calls, call{from: owner, typ: ledger.TxData, method: "register_dataset", args: contract.RegisterDatasetArgs{
			ID:      site.ID() + "/emr",
			Digest:  site.DatasetDigest(),
			Schema:  emr.SchemaCDF,
			Records: site.Records(),
			SiteID:  site.ID(),
		}})
	}
	vendor, err := p.Acquire("tool-vendor")
	if err != nil {
		return err
	}
	for _, toolID := range p.reg.IDs() {
		calls = append(calls, call{from: vendor, typ: ledger.TxAnalytics, method: "register_tool", args: contract.RegisterToolArgs{
			ID:     toolID,
			Digest: analytics.Digest(toolID),
		}})
	}
	return p.mustTransact("bootstrap", calls...)
}

// nextTimestamp returns a strictly increasing logical timestamp.
func (p *Platform) nextTimestamp() int64 { return p.tsSeq.Add(1) }

// transact and mustTransact run the client layer's transaction
// lifecycle (client.go) on the platform's chain under its logical clock.
func (p *Platform) transact(calls ...call) ([]*contract.Receipt, error) {
	return transact(p.cluster, p.nextTimestamp, calls...)
}

func (p *Platform) mustTransact(what string, calls ...call) error {
	return mustTransact(p.cluster, p.nextTimestamp, what, calls...)
}

// state is the contract state of the best running node (an empty one
// while the whole cluster is down: nothing is registered as far as
// anyone can tell).
func (p *Platform) state() *contract.State {
	if n := p.cluster.Best(); n != nil {
		return n.State()
	}
	return contract.NewState()
}

// Cluster exposes the underlying chain cluster.
func (p *Platform) Cluster() *chain.Cluster { return p.cluster }

// Registry exposes the analytics tool registry.
func (p *Platform) Registry() *analytics.Registry { return p.reg }

// HIE exposes the exchange service.
func (p *Platform) HIE() *hie.Service { return p.hie }

// Sites returns the platform's sites.
func (p *Platform) Sites() []*offchain.Site { return p.sites }

// Datasets reads the on-chain dataset registry into planner refs.
func (p *Platform) Datasets() []query.DatasetRef {
	state := p.state()
	var out []query.DatasetRef
	for _, id := range state.Datasets() {
		ds, ok := state.Dataset(id)
		if !ok {
			continue
		}
		out = append(out, query.DatasetRef{ID: ds.ID, SiteID: ds.SiteID, Records: ds.Records})
	}
	return out
}

// GrantAll gives an account the listed actions on every dataset and on
// every tool (issued by the respective owners).
func (p *Platform) GrantAll(acct *Account, actions []contract.Action, purpose string) error {
	grant := func(resource string) contract.GrantArgs {
		return contract.GrantArgs{Resource: resource, Grantee: acct.Address(), Actions: actions, Purpose: purpose}
	}
	var calls []call
	for _, site := range p.sites {
		owner, err := p.Acquire("site-owner-" + site.ID())
		if err != nil {
			return err
		}
		calls = append(calls, call{from: owner, typ: ledger.TxData, method: "grant", args: grant("data:" + site.ID() + "/emr")})
	}
	vendor, err := p.Acquire("tool-vendor")
	if err != nil {
		return err
	}
	for _, toolID := range p.reg.IDs() {
		calls = append(calls, call{from: vendor, typ: ledger.TxAnalytics, method: "grant", args: grant("tool:" + toolID)})
	}
	return p.mustTransact("grant", calls...)
}

// QueryResult is the outcome of a transformed query.
type QueryResult struct {
	// Vector is the compiled query.
	Vector *query.Vector `json:"vector"`
	// Tool is the dispatched tool.
	Tool string `json:"tool"`
	// Result is the composed global result.
	Result json.RawMessage `json:"result"`
	// SitesTotal / SitesSucceeded / SitesDenied count participation.
	SitesTotal     int `json:"sites_total"`
	SitesSucceeded int `json:"sites_succeeded"`
	SitesDenied    int `json:"sites_denied"`
	// RecordsCovered is the total records reachable by the plan.
	RecordsCovered int `json:"records_covered"`
	// Elapsed is the end-to-end wall time (authorization + parallel
	// execution + composition).
	Elapsed time.Duration `json:"elapsed"`
	// ExecElapsed is the off-chain parallel execution time alone.
	ExecElapsed time.Duration `json:"exec_elapsed"`
	// GasPerNode is the on-chain gas one node spent authorizing.
	GasPerNode int64 `json:"gas_per_node"`
	// ResultBytes is the size of all site results moved to the
	// composer (the only data that crossed site boundaries).
	ResultBytes int64 `json:"result_bytes"`
}

// Query parses a natural-language request and runs it in the
// transformed (parallel, compute-to-data) mode under the requester's
// on-chain authorizations.
func (p *Platform) Query(requester *Account, q string) (*QueryResult, error) {
	v, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	return p.RunTransformed(requester, v)
}

// RunTransformed executes a compiled query vector in the paper's mode:
// one on-chain authorization per dataset (lightweight policy contract),
// then parallel off-chain execution at the data, then composition.
func (p *Platform) RunTransformed(requester *Account, v *query.Vector) (*QueryResult, error) {
	start := time.Now()
	datasets := p.Datasets()
	if len(datasets) == 0 {
		return nil, ErrNoDatasets
	}
	plan, err := query.Decompose(v, datasets)
	if err != nil {
		return nil, err
	}
	if plan.Tool == "" {
		return nil, errors.New("core: fetch queries go through FetchRecords")
	}

	// One request_run per dataset: the on-chain policy check. Denials
	// stay on the audit trail and are counted.
	asks := make([]contract.RequestRunArgs, len(plan.Subs))
	for i, sub := range plan.Subs {
		asks[i] = contract.RequestRunArgs{Tool: sub.Tool, Dataset: sub.Dataset, Params: sub.Params, Purpose: v.Purpose}
	}
	grants, _, gas, err := authorize(p, runAuth, requester, asks)
	if err != nil {
		return nil, err
	}
	res := &QueryResult{
		Vector:         v,
		Tool:           plan.Tool,
		SitesTotal:     len(plan.Subs),
		RecordsCovered: plan.TotalRecords,
		GasPerNode:     gas,
	}
	var reqs []offchain.Request
	for _, g := range grants {
		if g == nil {
			res.SitesDenied++
			continue
		}
		reqs = append(reqs, offchain.Request{Op: offchain.OpRun, Run: g})
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%w (%d sites)", ErrDenied, res.SitesDenied)
	}

	// Parallel compute-to-data execution.
	execStart := time.Now()
	replies, errs := p.runner.Dispatch(reqs)
	res.ExecElapsed = time.Since(execStart)

	siteResults := make([]json.RawMessage, len(replies))
	for i, r := range replies {
		if errs[i] != nil {
			continue
		}
		siteResults[i] = r.Run.Result
		res.ResultBytes += int64(len(r.Run.Result))
		res.SitesSucceeded++
	}
	composed, _, err := query.Compose(p.reg, plan, siteResults)
	if err != nil {
		return nil, err
	}
	res.Result = composed
	res.Elapsed = time.Since(start)
	return res, nil
}

// DuplicatedResult is the outcome of the classic-blockchain baseline.
type DuplicatedResult struct {
	// Result is the tool output (identical on every node).
	Result json.RawMessage `json:"result"`
	// Nodes is the replication factor.
	Nodes int `json:"nodes"`
	// Elapsed is the per-node latency: every node processes ALL data,
	// so parallel hardware buys nothing.
	Elapsed time.Duration `json:"elapsed"`
	// TotalCPU is the summed compute across the cluster (≈ Nodes ×
	// Elapsed).
	TotalCPU time.Duration `json:"total_cpu"`
	// BytesReplicated is the data that had to be copied so each node
	// could run the full job (full data set × (Nodes-1) extra copies).
	BytesReplicated int64 `json:"bytes_replicated"`
}

// RunDuplicated executes the same analytics in the classic duplicated
// smart-contract mode: the full data set is replicated to every node
// and every node runs the complete job. The returned metrics are the
// baseline for E2/E3/E4.
func (p *Platform) RunDuplicated(v *query.Vector) (*DuplicatedResult, error) {
	toolID, params, err := v.Compile()
	if err != nil {
		return nil, err
	}
	if toolID == "" {
		return nil, errors.New("core: fetch queries have no duplicated-compute analogue")
	}
	tool, ok := p.reg.Get(toolID)
	if !ok {
		return nil, fmt.Errorf("core: unknown tool %q", toolID)
	}

	// Replicate all records to every node (the data movement the paper
	// calls "very expensive and impossible most of the time").
	var union []*emr.Record
	var datasetBytes int64
	for _, site := range p.sites {
		recs := site.LocalRecords()
		payload, err := json.Marshal(recs)
		if err != nil {
			return nil, err
		}
		union = append(union, recs...)
		datasetBytes += int64(len(payload))
	}
	n := p.cluster.Size()

	res := &DuplicatedResult{
		Nodes:           n,
		BytesReplicated: datasetBytes * int64(n-1),
	}

	// Every node executes the full job; per-node latency is the full
	// job's latency. Run them sequentially to measure total CPU, then
	// report the single-run latency as the per-node figure.
	var out json.RawMessage
	totalStart := time.Now()
	for i := 0; i < n; i++ {
		runStart := time.Now()
		r, err := tool.Run(union, params)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			res.Elapsed = time.Since(runStart)
			out = r
		}
	}
	res.TotalCPU = time.Since(totalStart)
	res.Result = out
	return res, nil
}

// FetchRecords runs the HIE path: on-chain access request, then an
// audited encrypted exchange to the requester. Set viaFDA to route
// through the trusted intermediary.
func (p *Platform) FetchRecords(requester *Account, datasetID, purpose string, viaFDA bool) ([]*emr.Record, error) {
	grants, denials, _, err := authorize(p, accessAuth, requester, []contract.RequestAccessArgs{{
		Resource: "data:" + datasetID,
		Action:   contract.ActionRead,
		Purpose:  purpose,
	}})
	if err != nil {
		return nil, err
	}
	if grants[0] == nil {
		return nil, fmt.Errorf("%w: %s", ErrDenied, denials[0])
	}
	auth := *grants[0]
	var env *cryptoutil.Envelope
	at := p.nextTimestamp()
	if viaFDA {
		env, err = p.hie.ExchangeViaFDA(auth, requester.PublicBytes(), at)
	} else {
		env, err = p.hie.Exchange(auth, requester.PublicBytes(), at)
	}
	if err != nil {
		return nil, err
	}
	pt, err := cryptoutil.OpenEnvelope(requester.Key(), env, []byte(fmt.Sprintf("req-%d", auth.RequestID)))
	if err != nil {
		return nil, err
	}
	var recs []*emr.Record
	if err := json.Unmarshal(pt, &recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// FederatedConfig tunes FederatedTrain.
type FederatedConfig struct {
	// Condition is the outcome to model.
	Condition string
	// Rounds / LocalEpochs / LearningRate / SecureAgg follow fl.Config.
	Rounds       int
	LocalEpochs  int
	LearningRate float64
	SecureAgg    bool
	// Seed drives training.
	Seed int64
}

// FederatedOutcome is the result of federated training on the platform.
type FederatedOutcome struct {
	// Model is the global model (over standardized features).
	Model *ml.LogisticModel
	// Standardizer holds the pooled feature moments.
	Standardizer *ml.Standardizer
	// Rounds are per-round stats.
	Rounds []fl.RoundStats
	// BytesUplinked is the total parameter traffic.
	BytesUplinked int64
}

// FederatedTrain trains a global risk model across all sites without
// moving records: per-site feature moments are pooled exactly (package
// analytics), every site standardizes locally with the pooled moments,
// and FedAvg aggregates parameter vectors.
func (p *Platform) FederatedTrain(cfg FederatedConfig) (*FederatedOutcome, error) {
	if cfg.Condition == "" {
		return nil, errors.New("core: federated training needs a condition")
	}
	flCfg := fl.Config{
		Rounds:       cfg.Rounds,
		LocalEpochs:  cfg.LocalEpochs,
		LearningRate: cfg.LearningRate,
		SecureAgg:    cfg.SecureAgg,
		Seed:         cfg.Seed,
	}

	// Build per-site datasets (records never leave; this code runs at
	// each site in deployment).
	siteSets := make([]*ml.Dataset, len(p.sites))
	for i, site := range p.sites {
		ds, err := analytics.RecordsToDataset(site.LocalRecords(), cfg.Condition)
		if err != nil {
			return nil, err
		}
		siteSets[i] = ds
	}
	std, err := pooledStandardizer(siteSets)
	if err != nil {
		return nil, err
	}
	clients := make([]*fl.Client, len(p.sites))
	for i, site := range p.sites {
		clients[i] = &fl.Client{ID: site.ID(), Data: std.Apply(siteSets[i])}
	}
	dim := clients[0].Data.Dim()
	res, err := fl.FedAvg(clients, dim, flCfg)
	if err != nil {
		return nil, err
	}
	return &FederatedOutcome{
		Model:         res.Model,
		Standardizer:  std,
		Rounds:        res.Rounds,
		BytesUplinked: res.BytesUplinked,
	}, nil
}

// pooledStandardizer fits per-site feature moments and pools them
// exactly — only (n, mean, M2) per feature crosses sites.
func pooledStandardizer(siteSets []*ml.Dataset) (*ml.Standardizer, error) {
	if len(siteSets) == 0 {
		return nil, errors.New("core: no site datasets")
	}
	dim := siteSets[0].Dim()
	mean := make([]float64, dim)
	stdv := make([]float64, dim)
	for j := 0; j < dim; j++ {
		parts := make([]*analytics.Summary, 0, len(siteSets))
		for _, ds := range siteSets {
			col := make([]float64, ds.Len())
			for i, row := range ds.X {
				col[i] = row[j]
			}
			s, err := analytics.Summarize(col)
			if err != nil {
				return nil, err
			}
			parts = append(parts, s)
		}
		pooled, err := analytics.PoolSummaries(parts)
		if err != nil {
			return nil, err
		}
		mean[j] = pooled.Mean
		stdv[j] = pooled.Std()
		if stdv[j] < 1e-9 {
			stdv[j] = 1
		}
	}
	return &ml.Standardizer{Mean: mean, Std: stdv}, nil
}

// RefreshDataset re-anchors a site's dataset after legitimate data
// growth (wearable feeds, new admissions): the site owner submits an
// update_dataset transaction carrying the new digest and record count.
// The previous anchor remains in the chain history, so updates are
// auditable rather than silent.
func (p *Platform) RefreshDataset(siteID string) error {
	site, ok := p.runner.Site(siteID)
	if !ok {
		return fmt.Errorf("core: unknown site %q", siteID)
	}
	digest, err := site.CurrentDigest()
	if err != nil {
		return err
	}
	owner, err := p.Acquire("site-owner-" + siteID)
	if err != nil {
		return err
	}
	return p.mustTransact("refresh", call{from: owner, typ: ledger.TxData, method: "update_dataset", args: contract.RegisterDatasetArgs{
		ID:      siteID + "/emr",
		Digest:  digest,
		Records: site.Records(),
		SiteID:  siteID,
	}})
}

// VerifyAllSites re-checks every site's data against its on-chain
// anchor, returning the IDs of tampered sites.
func (p *Platform) VerifyAllSites() []string {
	state := p.state()
	var tampered []string
	for _, site := range p.sites {
		ds, ok := state.Dataset(site.ID() + "/emr")
		if !ok {
			tampered = append(tampered, site.ID())
			continue
		}
		if err := site.VerifyIntegrity(ds.Digest); err != nil {
			tampered = append(tampered, site.ID())
		}
	}
	return tampered
}

// Close shuts the platform down.
func (p *Platform) Close() {
	p.cluster.Close()
}
