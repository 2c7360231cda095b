package sim

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"

	"medchain/internal/analytics"
	"medchain/internal/blob"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/emr"
	"medchain/internal/indexer"
	"medchain/internal/ledger"
	"medchain/internal/offchain"
	"medchain/internal/store"
	"medchain/internal/vm"
)

// actor is one fuzzed identity: a keypair plus its next nonce. Every
// generated transaction is signed, so it always passes mempool
// admission (tx.Verify) and never burns a nonce on a rejected
// submission — malformedness lives at the method/args/domain level,
// where it produces deterministic error receipts instead.
type actor struct {
	kp    *cryptoutil.KeyPair
	nonce uint64
}

// fuzzer generates the seeded random-but-admissible transaction
// stream: every contract method (consent grants/revokes, analytics
// runs, trial enrollment, data-exchange requests, anchors, VM
// deploy/invoke), plus deliberately malformed variants — undecodable
// args (an ErrBadArgs receipt and an empty footprint), unknown
// methods, domain violations (duplicates, non-owners, expired grants,
// out-of-range severities). All randomness flows from the one *rand.Rand
// handed in by the harness; timestamps are a logical counter, never the
// wall clock.
type fuzzer struct {
	rng   *rand.Rand
	clock int64

	actors []*actor

	datasets     []string // every dataset id ever submitted for registration
	siteDatasets []string // subset hosted by offchain sites (never updated)
	tools        []string
	trials       []string
	contracts    []cryptoutil.Address
	dsSeq        int
	toolSeq      int
	trialSeq     int
	patientSeq   int
	anchorSeq    int

	// owner maps a resource ("data:x", "tool:y", trial id) to the actor
	// that registered it, so the fuzzer can bias toward authorized calls.
	owner map[string]*actor

	sites  []*offchain.Site
	runner *offchain.Runner

	// Off-chain data plane under fuzz: one content-addressed blob store
	// per site dataset, plus a scratch store used to compute manifest
	// roots for deliberately-unfetchable (never persisted) blobs.
	blobStores     map[string]*blob.Store // dataset id -> store
	siteFormats    map[string]string      // dataset id -> EMR encoding
	scratch        *blob.Store
	initialAnchors map[string][]contract.ManifestEntry
	blobSeq        int

	code string // base64 VM program shared by all deploys: a loop, then a HOST registry read
}

// siteID names fuzzed offchain sites.
func siteID(i int) string { return fmt.Sprintf("site-%d", i) }

// newFuzzer builds the actor set and the offchain half of the world:
// seeded synthetic EMR sites and an analytics tool registry, so
// RunAuthorized events produced by the fuzz stream are executable
// off-chain.
func newFuzzer(cfg Config, rng *rand.Rand) (*fuzzer, error) {
	fz := &fuzzer{rng: rng, owner: make(map[string]*actor)}
	for i := 0; i < cfg.Actors; i++ {
		kp, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("sim-%d/actor-%d", cfg.Seed, i))
		if err != nil {
			return nil, err
		}
		fz.actors = append(fz.actors, &actor{kp: kp})
	}

	reg := analytics.NewRegistry() // preloaded with cohort.count, lab.summary, …
	fz.blobStores = make(map[string]*blob.Store)
	fz.siteFormats = make(map[string]string)
	fz.initialAnchors = make(map[string][]contract.ManifestEntry)
	scratch, err := blob.Open(store.NewMemFS(), "scratch", 0)
	if err != nil {
		return nil, err
	}
	fz.scratch = scratch
	for i := 0; i < 2; i++ {
		records := emr.NewGenerator(emr.GenConfig{
			Seed: subSeed(cfg.Seed, fmt.Sprintf("emr-%d", i)), Patients: 20, StartID: i * 100,
		}).Generate()
		site, err := offchain.NewSite(siteID(i), reg, records)
		if err != nil {
			return nil, err
		}
		fz.sites = append(fz.sites, site)

		// Per-record blobs in the site's encoding, anchored in setup.
		ds := fmt.Sprintf("ds-site-%d", i)
		format := emr.Formats[i%len(emr.Formats)]
		bs, err := blob.Open(store.NewMemFS(), "blobs", 0)
		if err != nil {
			return nil, err
		}
		site.AttachBlobStore(bs)
		fz.blobStores[ds] = bs
		fz.siteFormats[ds] = format
		for _, r := range records {
			m, err := fz.putBlob(bs, format, site.ID(), r)
			if err != nil {
				return nil, err
			}
			fz.initialAnchors[ds] = append(fz.initialAnchors[ds], contract.ManifestEntry{Record: r.Patient.ID, Root: m.Root})
		}
	}
	fz.runner = offchain.NewRunner(fz.sites...)

	fz.code = base64.StdEncoding.EncodeToString(vm.MustAssemble(`
		PUSHI 40
	loop:
		PUSHI 1
		SUB
		DUP
		JNZ loop
		PUSHB "registry.datasets"
		PUSHB ""
		HOST
		PUSHB "reg"
		SWAP
		SSTORE
		HALT
	`))
	return fz, nil
}

// putBlob encodes one record in the site's format and writes it into
// bs, returning the manifest.
func (fz *fuzzer) putBlob(bs *blob.Store, format, site string, r *emr.Record) (*blob.Manifest, error) {
	data, err := emr.EncodeAs(format, []*emr.Record{r}, site)
	if err != nil {
		return nil, err
	}
	return bs.Put(r.Patient.ID, format, data)
}

// blobFetch is the indexer's view of the fuzzed blob stores.
func (fz *fuzzer) blobFetch() indexer.FetchFunc {
	return indexer.StoreFetcher(func(dataset string) *blob.Store {
		return fz.blobStores[dataset]
	})
}

// tx builds and signs one transaction from a, advancing its nonce and
// the logical clock.
func (fz *fuzzer) tx(a *actor, typ ledger.TxType, method string, args any, to cryptoutil.Address) (*ledger.Transaction, error) {
	raw, err := json.Marshal(args)
	if err != nil {
		return nil, err
	}
	return fz.raw(a, typ, method, raw, to)
}

func (fz *fuzzer) raw(a *actor, typ ledger.TxType, method string, raw []byte, to cryptoutil.Address) (*ledger.Transaction, error) {
	fz.clock++
	tx := &ledger.Transaction{
		Type: typ, Nonce: a.nonce, Contract: to, Method: method,
		Args: raw, Timestamp: fz.clock,
	}
	if err := tx.Sign(a.kp); err != nil {
		return nil, err
	}
	a.nonce++
	return tx, nil
}

// setup emits the foundation transactions of the fuzzed world — the
// offchain sites' on-chain dataset records (digest-anchored so
// request_run authorizations are executable), the analytics tools with
// their true code digests, one trial, and one deployed VM contract.
// They ride the normal submission path as the first block's body.
func (fz *fuzzer) setup() ([]*ledger.Transaction, error) {
	a := fz.actors[0]
	var txs []*ledger.Transaction
	add := func(tx *ledger.Transaction, err error) error {
		if err != nil {
			return err
		}
		txs = append(txs, tx)
		return nil
	}
	for i, site := range fz.sites {
		id := fmt.Sprintf("ds-site-%d", i)
		if err := add(fz.tx(a, ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{
			ID: id, Digest: site.DatasetDigest(), Schema: "cdf/v1",
			Records: site.Records(), SiteID: site.ID(),
		}, cryptoutil.Address{})); err != nil {
			return nil, err
		}
		fz.datasets = append(fz.datasets, id)
		fz.siteDatasets = append(fz.siteDatasets, id)
		fz.owner["data:"+id] = a
	}
	for i := range fz.sites {
		ds := fmt.Sprintf("ds-site-%d", i)
		entries := fz.initialAnchors[ds]
		if err := add(fz.tx(a, ledger.TxData, "register_manifests", contract.RegisterManifestsArgs{
			Dataset: ds, Format: fz.siteFormats[ds],
			BatchRoot: contract.ManifestBatchRoot(entries), Entries: entries,
		}, cryptoutil.Address{})); err != nil {
			return nil, err
		}
	}
	for _, id := range []string{"cohort.count", "lab.summary"} {
		if err := add(fz.tx(a, ledger.TxAnalytics, "register_tool", contract.RegisterToolArgs{
			ID: id, Digest: analytics.Digest(id),
		}, cryptoutil.Address{})); err != nil {
			return nil, err
		}
		fz.tools = append(fz.tools, id)
		fz.owner["tool:"+id] = a
	}
	if err := add(fz.tx(a, ledger.TxTrial, "register_trial", contract.RegisterTrialArgs{
		ID: "tr-0", ProtocolDigest: cryptoutil.Sum([]byte("tr-0")), PrimaryOutcomes: []string{"os"},
	}, cryptoutil.Address{})); err != nil {
		return nil, err
	}
	fz.trials = append(fz.trials, "tr-0")
	fz.owner["tr-0"] = a
	fz.trialSeq = 1

	addr := contract.DeployedAddress(a.kp.Address(), a.nonce)
	if err := add(fz.tx(a, ledger.TxDeploy, "deploy", contract.DeployArgs{
		Name: "sim-loop", Code: fz.code,
	}, cryptoutil.Address{})); err != nil {
		return nil, err
	}
	fz.contracts = append(fz.contracts, addr)
	return txs, nil
}

// --- seeded picks ---

func (fz *fuzzer) pick() *actor { return fz.actors[fz.rng.Intn(len(fz.actors))] }

// pickOwnerOf returns the registering actor with high probability (so
// most administrative calls are authorized) and a random actor
// otherwise (exercising the denial paths).
func (fz *fuzzer) pickOwnerOf(resource string) *actor {
	if o, ok := fz.owner[resource]; ok && fz.rng.Float64() < 0.8 {
		return o
	}
	return fz.pick()
}

// pickDataset is hot-biased: half the draws hit the (few) site-backed
// datasets so same-block conflicts on their policies are common.
func (fz *fuzzer) pickDataset() string {
	if len(fz.siteDatasets) > 0 && fz.rng.Float64() < 0.5 {
		return fz.siteDatasets[fz.rng.Intn(len(fz.siteDatasets))]
	}
	if len(fz.datasets) == 0 {
		return "ds-none"
	}
	return fz.datasets[fz.rng.Intn(len(fz.datasets))]
}

func (fz *fuzzer) pickResource() string {
	if len(fz.tools) > 0 && fz.rng.Float64() < 0.3 {
		return "tool:" + fz.tools[fz.rng.Intn(len(fz.tools))]
	}
	return "data:" + fz.pickDataset()
}

func (fz *fuzzer) pickActions() []contract.Action {
	all := []contract.Action{contract.ActionRead, contract.ActionExecute, contract.ActionShare}
	n := 1 + fz.rng.Intn(len(all))
	return all[:n]
}

func (fz *fuzzer) pickPurpose() string {
	return []string{"", "research", "care", "billing"}[fz.rng.Intn(4)]
}

// malformedArgs are payloads that fail the per-method decode: the
// transaction never reaches its handler, declares no writes, and runs
// in a wave like any other.
var malformedArgs = [][]byte{
	[]byte(`{"id":123}`),
	[]byte(`[1,2,3]`),
	[]byte(`"x"`),
	[]byte(`{not json`),
	[]byte(`{"trial":7}`),
	[]byte(`{"resource":{"a":1}}`),
}

// gen emits one round's transaction batch.
func (fz *fuzzer) gen(n int) ([]*ledger.Transaction, error) {
	txs := make([]*ledger.Transaction, 0, n)
	for i := 0; i < n; i++ {
		tx, err := fz.genOne()
		if err != nil {
			return nil, err
		}
		txs = append(txs, tx)
	}
	return txs, nil
}

func (fz *fuzzer) genOne() (*ledger.Transaction, error) {
	r := fz.rng.Intn(112)
	switch {
	case r >= 100: // register_manifests: valid anchors, missing blobs, forged roots, non-owners
		return fz.genAnchor()
	case r < 8: // register_dataset (sometimes a duplicate id)
		id := fmt.Sprintf("ds-%d", fz.dsSeq)
		if len(fz.datasets) > 0 && fz.rng.Float64() < 0.2 {
			id = fz.datasets[fz.rng.Intn(len(fz.datasets))]
		} else {
			fz.dsSeq++
		}
		a := fz.pick()
		tx, err := fz.tx(a, ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{
			ID: id, Digest: cryptoutil.Sum([]byte(id)), Schema: "cdf/v1",
			Records: 1 + fz.rng.Intn(50), SiteID: fmt.Sprintf("hosp-%d", fz.rng.Intn(3)),
		}, cryptoutil.Address{})
		if err == nil {
			if _, seen := fz.owner["data:"+id]; !seen {
				fz.datasets = append(fz.datasets, id)
				fz.owner["data:"+id] = a
			}
		}
		return tx, err

	case r < 13: // update_dataset (owner, non-owner, or unknown id)
		id := fz.pickNonSiteDataset()
		return fz.tx(fz.pickOwnerOf("data:"+id), ledger.TxData, "update_dataset", contract.RegisterDatasetArgs{
			ID: id, Digest: cryptoutil.Sum([]byte(fmt.Sprintf("%s-v%d", id, fz.rng.Intn(5)))),
		}, cryptoutil.Address{})

	case r < 27: // grant (consent given — sometimes expiring, use-capped, or purpose-bound)
		res := fz.pickResource()
		args := contract.GrantArgs{
			Resource: res, Grantee: fz.pick().kp.Address(), Actions: fz.pickActions(),
		}
		if fz.rng.Float64() < 0.25 {
			args.Purpose = fz.pickPurpose()
		}
		if fz.rng.Float64() < 0.2 {
			args.ExpiresAt = int64(1 + fz.rng.Intn(60)) // block timestamps count 1,2,3,… so small values expire mid-run
		}
		if fz.rng.Float64() < 0.2 {
			args.MaxUses = 1 + fz.rng.Intn(3)
		}
		return fz.tx(fz.pickOwnerOf(res), ledger.TxData, "grant", args, cryptoutil.Address{})

	case r < 35: // revoke (consent withdrawn)
		res := fz.pickResource()
		return fz.tx(fz.pickOwnerOf(res), ledger.TxData, "revoke", contract.RevokeArgs{
			Resource: res, Grantee: fz.pick().kp.Address(),
		}, cryptoutil.Address{})

	case r < 48: // request_access (HIE data-exchange request)
		actions := []contract.Action{contract.ActionRead, contract.ActionExecute, contract.ActionShare, "steal"}
		return fz.tx(fz.pick(), ledger.TxData, "request_access", contract.RequestAccessArgs{
			Resource: fz.pickResource(), Action: actions[fz.rng.Intn(len(actions))],
			Purpose: fz.pickPurpose(),
		}, cryptoutil.Address{})

	case r < 52: // register_tool (sometimes duplicate, sometimes a tampered digest)
		id := fmt.Sprintf("tool-%d", fz.toolSeq)
		digest := analytics.Digest(id)
		if fz.rng.Float64() < 0.2 {
			id = fz.tools[fz.rng.Intn(len(fz.tools))]
		} else {
			fz.toolSeq++
			if fz.rng.Float64() < 0.3 {
				digest = cryptoutil.Sum([]byte("tampered-" + id)) // offchain sites must reject runs of this tool
			}
		}
		a := fz.pick()
		tx, err := fz.tx(a, ledger.TxAnalytics, "register_tool", contract.RegisterToolArgs{ID: id, Digest: digest}, cryptoutil.Address{})
		if err == nil {
			if _, seen := fz.owner["tool:"+id]; !seen {
				fz.tools = append(fz.tools, id)
				fz.owner["tool:"+id] = a
			}
		}
		return tx, err

	case r < 62: // request_run (analytics at the data's site)
		params := []json.RawMessage{
			nil,
			json.RawMessage(`{}`),
			json.RawMessage(`{"condition":"diabetes"}`),
			json.RawMessage(`{"condition":"stroke","min_age":40}`),
		}
		tool := fz.tools[fz.rng.Intn(len(fz.tools))]
		ds := fz.pickDataset()
		from := fz.pick()
		if fz.rng.Float64() < 0.5 { // bias toward authorized runs: the data/tool owner
			from = fz.pickOwnerOf("data:" + ds)
		}
		return fz.tx(from, ledger.TxAnalytics, "request_run", contract.RequestRunArgs{
			Tool: tool, Dataset: ds, Params: params[fz.rng.Intn(len(params))],
			Purpose: fz.pickPurpose(),
		}, cryptoutil.Address{})

	case r < 66: // register_trial
		id := fmt.Sprintf("tr-%d", fz.trialSeq)
		if fz.rng.Float64() < 0.2 {
			id = fz.trials[fz.rng.Intn(len(fz.trials))]
		} else {
			fz.trialSeq++
		}
		outcomes := [][]string{{"os"}, {"os", "pfs"}, nil} // nil outcomes: ErrBadArgs
		a := fz.pick()
		tx, err := fz.tx(a, ledger.TxTrial, "register_trial", contract.RegisterTrialArgs{
			ID: id, ProtocolDigest: cryptoutil.Sum([]byte(id)),
			PrimaryOutcomes: outcomes[fz.rng.Intn(len(outcomes))],
		}, cryptoutil.Address{})
		if err == nil {
			if _, seen := fz.owner[id]; !seen {
				fz.trials = append(fz.trials, id)
				fz.owner[id] = a
			}
		}
		return tx, err

	case r < 74: // enroll (existing or unknown trial, duplicate patients possible)
		trial := fz.pickTrial()
		patient := fmt.Sprintf("p-%d", fz.patientSeq)
		if fz.rng.Float64() < 0.2 && fz.patientSeq > 0 {
			patient = fmt.Sprintf("p-%d", fz.rng.Intn(fz.patientSeq)) // re-enrollment: ErrExists
		} else {
			fz.patientSeq++
		}
		return fz.tx(fz.pick(), ledger.TxTrial, "enroll", contract.EnrollArgs{
			Trial: trial, Patient: patient, Site: siteID(fz.rng.Intn(2)),
		}, cryptoutil.Address{})

	case r < 78: // report_outcomes (sponsor-only)
		trial := fz.pickTrial()
		return fz.tx(fz.pickOwnerOf(trial), ledger.TxTrial, "report_outcomes", contract.ReportOutcomesArgs{
			Trial: trial, Outcomes: []string{"os"}, ResultsDigest: cryptoutil.Sum([]byte(trial)),
		}, cryptoutil.Address{})

	case r < 82: // adverse_event (severity fuzzing includes out-of-range)
		severities := []int{1, 2, 3, 4, 5, 0, 9}
		return fz.tx(fz.pick(), ledger.TxTrial, "adverse_event", contract.AdverseEventArgs{
			Trial: fz.pickTrial(), Patient: fmt.Sprintf("p-%d", fz.rng.Intn(fz.patientSeq+1)),
			Description: "sim", Severity: severities[fz.rng.Intn(len(severities))],
			Site: siteID(fz.rng.Intn(2)),
		}, cryptoutil.Address{})

	case r < 86: // anchor (sometimes a duplicate label)
		label := fmt.Sprintf("a-%d", fz.anchorSeq)
		if fz.anchorSeq > 0 && fz.rng.Float64() < 0.2 {
			label = fmt.Sprintf("a-%d", fz.rng.Intn(fz.anchorSeq))
		} else {
			fz.anchorSeq++
		}
		return fz.tx(fz.pick(), ledger.TxAnchor, "anchor", contract.AnchorArgs{
			Label: label, Digest: cryptoutil.Sum([]byte(label)),
		}, cryptoutil.Address{})

	case r < 89: // deploy (occasionally undecodable code)
		a := fz.pick()
		code := fz.code
		bad := fz.rng.Float64() < 0.2
		if bad {
			code = "!!not-base64!!"
		}
		addr := contract.DeployedAddress(a.kp.Address(), a.nonce)
		tx, err := fz.tx(a, ledger.TxDeploy, "deploy", contract.DeployArgs{
			Name: fmt.Sprintf("c-%d", len(fz.contracts)), Code: code,
		}, cryptoutil.Address{})
		if err == nil && !bad {
			fz.contracts = append(fz.contracts, addr)
		}
		return tx, err

	case r < 94: // invoke (existing or missing contract — the hot VM key)
		to := cryptoutil.NamedAddress("sim-nowhere")
		if len(fz.contracts) > 0 && fz.rng.Float64() < 0.8 {
			to = fz.contracts[fz.rng.Intn(len(fz.contracts))]
		}
		return fz.tx(fz.pick(), ledger.TxInvoke, "run", contract.InvokeArgs{}, to)

	default: // malformed: undecodable args or an unknown method on a valid type
		a := fz.pick()
		if fz.rng.Float64() < 0.5 {
			methods := []struct {
				typ    ledger.TxType
				method string
			}{
				{ledger.TxData, "grant"},
				{ledger.TxData, "register_dataset"},
				{ledger.TxTrial, "enroll"},
				{ledger.TxAnalytics, "request_run"},
			}
			m := methods[fz.rng.Intn(len(methods))]
			return fz.raw(a, m.typ, m.method, malformedArgs[fz.rng.Intn(len(malformedArgs))], cryptoutil.Address{})
		}
		return fz.tx(a, ledger.TxData, "frobnicate", struct{}{}, cryptoutil.Address{})
	}
}

// genAnchor emits one register_manifests transaction against a fuzzed
// site dataset. Four weighted modes: a clean anchor of freshly-written
// blobs; a clean anchor whose first blob was never persisted (the
// indexer must skip it with a counted reason); a forged batch root
// (denied on chain, so the event stream — and the index — never see
// it); and a non-owner anchor attempt (also denied).
func (fz *fuzzer) genAnchor() (*ledger.Transaction, error) {
	si := fz.rng.Intn(len(fz.sites))
	ds := fmt.Sprintf("ds-site-%d", si)
	format := fz.siteFormats[ds]
	bs := fz.blobStores[ds]

	n := 1 + fz.rng.Intn(3)
	recs := emr.NewGenerator(emr.GenConfig{
		Seed: fz.rng.Int63(), Patients: n, StartID: 100_000 + fz.blobSeq,
	}).Generate()
	fz.blobSeq += n

	mode := fz.rng.Float64()
	entries := make([]contract.ManifestEntry, 0, n)
	for j, rec := range recs {
		target := bs
		if mode >= 0.55 && mode < 0.70 && j == 0 {
			// Anchored but unfetchable: the root is computed off a
			// scratch store and the bytes never reach the site.
			target = fz.scratch
		}
		m, err := fz.putBlob(target, format, siteID(si), rec)
		if err != nil {
			return nil, err
		}
		entries = append(entries, contract.ManifestEntry{Record: rec.Patient.ID, Root: m.Root})
	}

	from := fz.owner["data:"+ds]
	batchRoot := contract.ManifestBatchRoot(entries)
	switch {
	case mode >= 0.70 && mode < 0.85: // forged batch root -> denied
		batchRoot = cryptoutil.Sum([]byte(fmt.Sprintf("forged-%d", fz.blobSeq)))
	case mode >= 0.85: // non-owner -> denied
		from = fz.actors[1+fz.rng.Intn(len(fz.actors)-1)]
	}
	return fz.tx(from, ledger.TxData, "register_manifests", contract.RegisterManifestsArgs{
		Dataset: ds, Format: format, BatchRoot: batchRoot, Entries: entries,
	}, cryptoutil.Address{})
}

// pickNonSiteDataset avoids the offchain-hosted datasets so their
// on-chain digests keep matching the sites' actual data (update would
// make every later authorized run fail integrity — legal, but it would
// starve the offchain leg of successful runs).
func (fz *fuzzer) pickNonSiteDataset() string {
	for tries := 0; tries < 4; tries++ {
		id := fz.pickDataset()
		site := false
		for _, s := range fz.siteDatasets {
			if s == id {
				site = true
				break
			}
		}
		if !site {
			return id
		}
	}
	return "ds-unknown"
}

func (fz *fuzzer) pickTrial() string {
	if fz.rng.Float64() < 0.1 {
		return "tr-unknown"
	}
	return fz.trials[fz.rng.Intn(len(fz.trials))]
}
