// Package medchain is the public API of the medchain library — a
// from-scratch Go reproduction of Shae & Tsai, "Transform Blockchain
// into Distributed Parallel Computing Architecture for Precision
// Medicine" (ICDCS 2018).
//
// The library turns a permissioned blockchain from a duplicated
// computing engine (every node re-executes every smart contract over
// every byte of data) into a distributed parallel computing
// architecture: on-chain smart contracts are reduced to lightweight
// ownership/access-policy control points, while per-site off-chain
// control code executes the real analytics next to the data it hosts,
// and only small results (or encrypted, authorized record envelopes)
// ever move.
//
// # Quickstart
//
//	p, err := medchain.NewPlatform(medchain.Config{
//		Sites:           4,   // hospital premises, each running a chain node
//		PatientsPerSite: 200, // synthetic EMR cohort per site
//		Seed:            1,
//	})
//	if err != nil { ... }
//	defer p.Close()
//
//	researcher, _ := p.Acquire("dr-chen")
//	err = p.GrantAll(researcher, []medchain.Action{
//		medchain.ActionRead, medchain.ActionExecute,
//	}, "research")
//
//	res, err := p.Query(researcher, "count patients with diabetes aged 50-70")
//	// res.Result is the composed global answer; no raw record left its site.
//
// The subsystems (ledger, consensus, VM, contracts, oracle, EMR
// formats, federated learning, clinical-trial auditing, HIE) live under
// internal/ and are documented there; this package re-exports the
// surface a downstream user needs. How a Platform call becomes
// transactions, authorisations and receipts is DESIGN.md "Platform
// facades".
package medchain

import (
	"medchain/internal/blob"
	"medchain/internal/contract"
	"medchain/internal/core"
	"medchain/internal/emr"
	"medchain/internal/fl"
	"medchain/internal/ml"
	"medchain/internal/p2p"
	"medchain/internal/query"
	"medchain/internal/trial"
)

// Platform is the assembled system: chain cluster + data sites + query
// service + HIE + federated learning. See core.Platform.
type Platform = core.Platform

// Config sizes a platform.
type Config = core.Config

// Account is a transacting identity.
type Account = core.Account

// IndexedResult is the outcome of an index-routed query (see
// Platform.QueryIndexed), including the freshness triple
// (IndexedHeight, ChainHeight, Lag) the answer is relative to.
type IndexedResult = core.IndexedResult

// ErrNoIndex: the platform was built without Config.Index.
var ErrNoIndex = core.ErrNoIndex

// Typed off-chain blob errors, so callers can tell a missing or
// corrupt blob apart from a policy denial.
var (
	ErrBlobChunkMissing    = blob.ErrChunkMissing
	ErrBlobChunkCorrupt    = blob.ErrChunkCorrupt
	ErrBlobManifestMissing = blob.ErrManifestMissing
)

// QueryResult is the outcome of a transformed (parallel) query.
type QueryResult = core.QueryResult

// DuplicatedResult is the outcome of the classic duplicated baseline.
type DuplicatedResult = core.DuplicatedResult

// FederatedConfig tunes federated training.
type FederatedConfig = core.FederatedConfig

// FederatedOutcome is the result of federated training.
type FederatedOutcome = core.FederatedOutcome

// NewPlatform builds and bootstraps a platform.
func NewPlatform(cfg Config) (*Platform, error) { return core.NewPlatform(cfg) }

// Action is a policy-controlled operation.
type Action = contract.Action

// Policy actions.
const (
	ActionRead    = contract.ActionRead
	ActionExecute = contract.ActionExecute
	ActionShare   = contract.ActionShare
	ActionAdmin   = contract.ActionAdmin
)

// Vector is a structured query (the paper's "query vector").
type Vector = query.Vector

// Query intents.
const (
	IntentCount    = query.IntentCount
	IntentSummary  = query.IntentSummary
	IntentSurvival = query.IntentSurvival
	IntentRisk     = query.IntentRisk
	IntentFetch    = query.IntentFetch
)

// ParseQuery compiles a natural-language request into a query vector.
func ParseQuery(q string) (*Vector, error) { return query.Parse(q) }

// SQLResult is the composed answer of a federated virtualized-SQL
// query.
type SQLResult = query.SQLResult

// SQLStats carries federated-SQL execution metrics.
type SQLStats = core.SQLStats

// SQLColumns lists the virtual "records" table's schema.
func SQLColumns() []string { return query.SQLColumns() }

// Record is a patient record in the common data format.
type Record = emr.Record

// GenConfig configures the synthetic EMR generator.
type GenConfig = emr.GenConfig

// GenerateRecords produces a deterministic synthetic cohort.
func GenerateRecords(cfg GenConfig) []*Record {
	return emr.NewGenerator(cfg).Generate()
}

// Conditions produced by the synthetic disease model.
const (
	CondDiabetes = emr.CondDiabetes
	CondStroke   = emr.CondStroke
)

// LogisticModel is the binary classifier used by risk modelling.
type LogisticModel = ml.LogisticModel

// NetworkConfig models the simulated links between chain nodes.
type NetworkConfig = p2p.Config

// TrialAuditReport aggregates a COMPare-style outcome audit.
type TrialAuditReport = trial.AuditReport

// AuditTrials audits every trial registered on the platform's chain.
func AuditTrials(p *Platform) *TrialAuditReport {
	return trial.AuditAll(p.Cluster().Node(0).State())
}

// FedAvgClient is one federated participant (site + local data).
type FedAvgClient = fl.Client

// QualityReport is the outcome of the CDF data-quality gate.
type QualityReport = emr.QualityReport

// ValidateRecords runs the data-quality gate over CDF records.
func ValidateRecords(records []*Record) *QualityReport {
	return emr.ValidateRecords(records)
}

// BalanceReport is the recruitment-balance audit result (the paper's
// ethnicity-bias concern: enrolled shares vs population shares).
type BalanceReport = trial.BalanceReport

// RecruitmentBalance audits trial-enrollment representativeness.
// enrolled and population carry one demographic label per person;
// threshold is the minimum enrolled/population share ratio (0 → 0.5).
func RecruitmentBalance(enrolled, population []string, threshold float64) (*BalanceReport, error) {
	return trial.RecruitmentBalance(enrolled, population, threshold)
}

// Version identifies the library.
const Version = "1.0.0"
