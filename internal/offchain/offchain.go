// Package offchain implements the per-node "control code" of paper
// Fig. 1: the off-chain component that holds a site's data and
// analytics tools, listens to on-chain authorizations, verifies the
// integrity of both code and data against their on-chain anchors, and
// executes tasks locally — moving the computing to the data.
//
// A Site never ships raw records to anyone except through an encrypted
// envelope addressed to an authorized requester; analytics leave only
// aggregate results.
package offchain

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"medchain/internal/analytics"
	"medchain/internal/blob"
	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/emr"
	"medchain/internal/oracle"
	"medchain/internal/par"
	"medchain/internal/query"
)

// Errors.
var (
	ErrWrongSite    = errors.New("offchain: authorization is for another site")
	ErrWrongGrant   = errors.New("offchain: grant does not permit the operation")
	ErrNoSite       = errors.New("offchain: no site")
	ErrDataTampered = errors.New("offchain: local data does not match on-chain digest")
	ErrToolTampered = errors.New("offchain: tool code does not match on-chain digest")
	ErrUnknownTool  = errors.New("offchain: unknown tool")
	ErrNoRecords    = errors.New("offchain: site has no records")
	ErrNoBlobStore  = errors.New("offchain: site has no blob store")
)

// Site is one hospital/provider premise: records + tool registry.
type Site struct {
	id      string
	reg     *analytics.Registry
	mu      sync.RWMutex
	records []*emr.Record
	digest  cryptoutil.Digest
	// dirty marks that records changed since digest was computed, so
	// VerifyIntegrity must rehash instead of using the cache.
	dirty bool
	// blobs is the site's content-addressed per-record store (the
	// off-chain data plane); nil until AttachBlobStore.
	blobs *blob.Store
}

// NewSite builds a site over its local records. The returned site owns
// the slice.
func NewSite(id string, reg *analytics.Registry, records []*emr.Record) (*Site, error) {
	if len(records) == 0 {
		return nil, ErrNoRecords
	}
	d, err := emr.DatasetDigest(records)
	if err != nil {
		return nil, err
	}
	return &Site{id: id, reg: reg, records: records, digest: d}, nil
}

// ID returns the site identifier.
func (s *Site) ID() string { return s.id }

// Records returns the site's record count.
func (s *Site) Records() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// DatasetDigest returns the digest computed at construction — the value
// the site anchors on chain when registering its data set.
func (s *Site) DatasetDigest() cryptoutil.Digest { return s.digest }

// Tamper mutates a record in place WITHOUT recomputing the digest —
// test/experiment hook simulating silent data falsification (E7).
func (s *Site) Tamper(recordIdx int, mutate func(*emr.Record)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if recordIdx < 0 || recordIdx >= len(s.records) {
		return fmt.Errorf("offchain: record %d out of range", recordIdx)
	}
	mutate(s.records[recordIdx])
	s.dirty = true
	return nil
}

// AppendVitals appends wearable samples to a patient's record — the
// live IoT feed of paper §II. The dataset digest becomes stale until
// the owner re-anchors (core.Platform.RefreshDataset).
func (s *Site) AppendVitals(recordIdx int, samples ...emr.VitalSample) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if recordIdx < 0 || recordIdx >= len(s.records) {
		return fmt.Errorf("offchain: record %d out of range", recordIdx)
	}
	s.records[recordIdx].Vitals = append(s.records[recordIdx].Vitals, samples...)
	s.dirty = true
	return nil
}

// AppendRecords adds new patient records (new admissions). The dataset
// digest becomes stale until re-anchored.
func (s *Site) AppendRecords(records ...*emr.Record) error {
	if len(records) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = append(s.records, records...)
	s.dirty = true
	return nil
}

// CurrentDigest recomputes (when stale) and returns the live dataset
// digest — the value a re-anchoring update_dataset transaction carries.
func (s *Site) CurrentDigest() (cryptoutil.Digest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty {
		d, err := emr.DatasetDigest(s.records)
		if err != nil {
			return cryptoutil.ZeroDigest, err
		}
		s.digest = d
		s.dirty = false
	}
	return s.digest, nil
}

// VerifyIntegrity compares the local dataset digest to the expected
// on-chain anchor. This is the Irving & Holden check: any modification
// of hosted data is detected. The digest is cached and only rehashed
// after a mutation, so the per-request fast path is a constant-time
// comparison.
func (s *Site) VerifyIntegrity(expected cryptoutil.Digest) error {
	s.mu.Lock()
	if s.dirty {
		d, err := emr.DatasetDigest(s.records)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.digest = d
		s.dirty = false
	}
	d := s.digest
	s.mu.Unlock()
	if d != expected {
		return fmt.Errorf("%w: local %s, anchored %s", ErrDataTampered, d.Short(), expected.Short())
	}
	return nil
}

// TaskResult is the output of one authorized local execution.
type TaskResult struct {
	// RequestID correlates with the on-chain authorization event.
	RequestID uint64 `json:"request_id"`
	// SiteID names the executing site.
	SiteID string `json:"site_id"`
	// Tool is the executed tool ID.
	Tool string `json:"tool"`
	// Result is the tool's JSON output.
	Result json.RawMessage `json:"result"`
	// Records is how many local records the tool saw.
	Records int `json:"records"`
	// Elapsed is the local wall-clock execution time.
	Elapsed time.Duration `json:"elapsed"`
}

// Op names what a Request asks a site to do.
type Op int

const (
	// OpRun runs the granted analytics tool over the site's records.
	OpRun Op = iota
	// OpSQL evaluates Request.SQL into a partial (query.ExecuteSQL).
	OpSQL
	// OpFetch reads Request.Records from the blob store and returns
	// them decoded.
	OpFetch
	// OpSummarise reads Request.Records from the blob store and returns
	// only their count and the summary of Request.LabCode: the records
	// stay at the site.
	OpSummarise
	// OpSeal seals all the site's records to Request.Recipient.
	OpSeal
)

var opNames = [...]string{"run", "sql", "fetch", "summarise", "seal"}

func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// opActions lists, for each operation served under an access grant,
// the granted actions that permit it. OpRun takes a run grant instead.
var opActions = map[Op][]contract.Action{
	OpSQL:       {contract.ActionExecute},
	OpFetch:     {contract.ActionRead, contract.ActionShare},
	OpSummarise: {contract.ActionRead, contract.ActionShare},
	OpSeal:      {contract.ActionRead, contract.ActionShare},
}

// Request is one operation at one site under the grant the chain
// committed for it: OpRun carries a run grant (Run), every other
// operation an access grant (Access).
type Request struct {
	Op     Op
	Run    *contract.RunAuthorization
	Access *contract.AccessAuthorization
	// SQL is the parsed query OpSQL evaluates.
	SQL *query.SQLQuery
	// Records are the record IDs OpFetch and OpSummarise read.
	Records []string
	// LabCode is the analyte OpSummarise summarises.
	LabCode string
	// Recipient is the public key OpSeal seals to.
	Recipient []byte
}

// SiteID is the site the request's grant names ("" without a grant).
func (r Request) SiteID() string {
	switch {
	case r.Run != nil:
		return r.Run.SiteID
	case r.Access != nil:
		return r.Access.SiteID
	}
	return ""
}

// Reply is a site's answer to a Request; only the fields of the
// request's operation are set.
type Reply struct {
	// Run is OpRun's tool result.
	Run *TaskResult
	// Partial is OpSQL's partial aggregate or projected rows.
	Partial *query.SQLPartial
	// Records are OpFetch's decoded records.
	Records []*emr.Record
	// Count is how many records OpFetch or OpSummarise decoded.
	Count int
	// Summary is OpSummarise's lab summary, N = 0 when no record
	// carried the code (the identity under analytics.PoolSummaries).
	Summary *analytics.Summary
	// Envelope is OpSeal's sealed records and PlainBytes their size
	// before sealing (the bytes that would cross the wire unencrypted —
	// E4 accounting).
	Envelope   *cryptoutil.Envelope
	PlainBytes int
}

// Serve is the site's one entry for work under an on-chain grant. It
// refuses a grant of the wrong kind or action for the operation
// (ErrWrongGrant) or for another site (ErrWrongSite); for a run, local
// data or tool code that no longer matches its anchored digest
// ("enforce its integrity of the off-chain data and code", §III); and a
// record read at a site without a blob store. Only then does it act.
func (s *Site) Serve(req Request) (Reply, error) {
	if err := s.admit(req); err != nil {
		return Reply{}, err
	}
	switch req.Op {
	case OpRun:
		res, err := s.run(*req.Run)
		return Reply{Run: res}, err
	case OpSQL:
		if req.SQL == nil {
			return Reply{}, errors.New("offchain: sql request without a query")
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		partial, err := query.ExecuteSQL(req.SQL, s.records)
		return Reply{Partial: partial}, err
	case OpFetch, OpSummarise:
		return s.read(req)
	default:
		return s.seal(req.Access.RequestID, req.Recipient)
	}
}

// admit checks the grant against the operation and this site.
func (s *Site) admit(req Request) error {
	switch {
	case req.Op == OpRun && req.Run != nil && req.Access == nil:
	case req.Op != OpRun && req.Access != nil && req.Run == nil:
	default:
		return fmt.Errorf("%w: %s under a grant of the wrong kind", ErrWrongGrant, req.Op)
	}
	if id := req.SiteID(); id != s.id {
		return fmt.Errorf("%w: auth for %q, this is %q", ErrWrongSite, id, s.id)
	}
	if req.Op != OpRun && !slices.Contains(opActions[req.Op], req.Access.Action) {
		return fmt.Errorf("%w: action %q cannot %s", ErrWrongGrant, req.Access.Action, req.Op)
	}
	return nil
}

func (s *Site) run(auth contract.RunAuthorization) (*TaskResult, error) {
	if err := s.VerifyIntegrity(auth.DataDigest); err != nil {
		return nil, err
	}
	if analytics.Digest(auth.Tool) != auth.ToolDigest {
		return nil, fmt.Errorf("%w: %q", ErrToolTampered, auth.Tool)
	}
	tool, ok := s.reg.Get(auth.Tool)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTool, auth.Tool)
	}
	records := s.LocalRecords()
	start := time.Now()
	res, err := tool.Run(records, auth.Params)
	if err != nil {
		return nil, fmt.Errorf("offchain: tool %q at %s: %w", auth.Tool, s.id, err)
	}
	return &TaskResult{
		RequestID: auth.RequestID,
		SiteID:    s.id,
		Tool:      auth.Tool,
		Result:    res,
		Records:   len(records),
		Elapsed:   time.Since(start),
	}, nil
}

// read decodes the named records' blobs; the blob layer verifies every
// chunk against its content address on the way out. Typed blob errors
// (blob.ErrManifestMissing, blob.ErrChunkMissing, ...) propagate, so a
// missing blob stays distinguishable from a refused grant.
func (s *Site) read(req Request) (Reply, error) {
	bs := s.BlobStore()
	if bs == nil {
		return Reply{}, fmt.Errorf("%w: %q", ErrNoBlobStore, s.id)
	}
	var recs []*emr.Record
	for _, id := range req.Records {
		data, m, err := bs.Get(id)
		if err != nil {
			return Reply{}, fmt.Errorf("offchain: blob %s at %s: %w", id, s.id, err)
		}
		decoded, err := emr.DecodeAs(m.Format, data)
		if err != nil {
			return Reply{}, fmt.Errorf("offchain: decode blob %s at %s: %w", id, s.id, err)
		}
		if len(decoded) > 0 {
			recs = append(recs, decoded[0])
		}
	}
	if req.Op == OpFetch {
		return Reply{Records: recs, Count: len(recs)}, nil
	}
	var vals []float64
	for _, r := range recs {
		for _, l := range r.Labs {
			if l.Code == req.LabCode {
				vals = append(vals, l.Value)
			}
		}
	}
	sum := &analytics.Summary{}
	if len(vals) > 0 {
		var err error
		if sum, err = analytics.Summarize(vals); err != nil {
			return Reply{}, err
		}
	}
	return Reply{Count: len(recs), Summary: sum}, nil
}

// seal serves the site's records (canonical JSON) sealed to recipient,
// bound to the request ID.
func (s *Site) seal(requestID uint64, recipient []byte) (Reply, error) {
	pub, err := cryptoutil.DecodePublicKey(recipient)
	if err != nil {
		return Reply{}, fmt.Errorf("offchain: requester key: %w", err)
	}
	payload, err := json.Marshal(s.LocalRecords())
	if err != nil {
		return Reply{}, fmt.Errorf("offchain: marshal records: %w", err)
	}
	env, err := cryptoutil.SealEnvelope(pub, payload, []byte(fmt.Sprintf("req-%d", requestID)))
	if err != nil {
		return Reply{}, err
	}
	return Reply{Envelope: env, PlainBytes: len(payload)}, nil
}

// Quality runs the CDF quality gate over the site's records — the
// §IV "Data Services" check a site performs before registering or
// re-anchoring its data set.
func (s *Site) Quality() *emr.QualityReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return emr.ValidateRecords(s.records)
}

// Evaluate runs fn over the site's records under a read lock — the
// general "run this code on premise" hook of the control-code design
// (Fig. 1): the computation comes to the data; fn's return value is
// what leaves. fn must not retain or mutate the slice. It takes no
// grant, so no authorised path uses it; the benchmark's ground-truth
// scan still does.
func (s *Site) Evaluate(fn func(records []*emr.Record) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return fn(s.records)
}

// LocalRecords is the site's own read of its records, for code that
// runs on premise: tool runs and seals, the blob anchoring of the data
// plane, local training and the replication baseline. It takes no
// grant; nothing leaves the site unless the caller ships it. Callers
// must not mutate the records.
func (s *Site) LocalRecords() []*emr.Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.records[:len(s.records):len(s.records)]
}

// AttachBlobStore installs the site's content-addressed blob store —
// the per-record off-chain data plane the chain-tailing indexer and
// the record reads of Serve go through.
func (s *Site) AttachBlobStore(bs *blob.Store) {
	s.mu.Lock()
	s.blobs = bs
	s.mu.Unlock()
}

// BlobStore returns the attached blob store (nil if none).
func (s *Site) BlobStore() *blob.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.blobs
}

// Runner dispatches authorized requests to sites in parallel — the
// transformed architecture's compute engine. Fan-out runs on the same
// bounded worker pool (par.ForEachN) the on-chain engine uses, so
// a large batch cannot spawn unbounded goroutines.
type Runner struct {
	mu      sync.RWMutex
	sites   map[string]*Site
	workers int // 0 = GOMAXPROCS
}

// NewRunner creates a runner over the given sites.
func NewRunner(sites ...*Site) *Runner {
	r := &Runner{sites: make(map[string]*Site, len(sites))}
	for _, s := range sites {
		r.sites[s.ID()] = s
	}
	return r
}

// SetWorkers bounds Dispatch's concurrent fan-out (<= 0 restores the
// default, GOMAXPROCS).
func (r *Runner) SetWorkers(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < 0 {
		n = 0
	}
	r.workers = n
}

// Workers returns the configured fan-out bound (0 = GOMAXPROCS).
func (r *Runner) Workers() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.workers
}

// Site resolves a site by ID.
func (r *Runner) Site(id string) (*Site, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.sites[id]
	return s, ok
}

// Sites returns the number of attached sites.
func (r *Runner) Sites() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sites)
}

// Dispatch serves each request at the site its grant names,
// concurrently on a bounded worker pool. Both returned slices are
// index-aligned with reqs: replies[i] and errs[i] always describe
// reqs[i] — unknown-site failures (ErrNoSite), refusals, execution
// failures and successes may interleave in any order without shifting
// positions. The first error aborts nothing — every request runs.
func (r *Runner) Dispatch(reqs []Request) ([]Reply, []error) {
	replies := make([]Reply, len(reqs))
	errs := make([]error, len(reqs))
	par.ForEachN(len(reqs), r.Workers(), func(i int) {
		site, ok := r.Site(reqs[i].SiteID())
		if !ok {
			errs[i] = fmt.Errorf("%w %q", ErrNoSite, reqs[i].SiteID())
			return
		}
		replies[i], errs[i] = site.Serve(reqs[i])
	})
	return replies, errs
}

// Controller wires a site to the monitor node: RunAuthorized events
// whose SiteID matches are executed locally and handed to onResult.
// This is the per-node control loop of Fig. 1.
type Controller struct {
	site *Site
}

// AttachController registers the site's control code on a monitor.
// onResult receives successful task results; onError failures.
func AttachController(mon *oracle.Monitor, site *Site, onResult func(*TaskResult), onError func(error)) *Controller {
	c := &Controller{site: site}
	mon.On("RunAuthorized", func(rec chain.EventRecord) error {
		var auth contract.RunAuthorization
		if err := json.Unmarshal(rec.Event.Data, &auth); err != nil {
			return fmt.Errorf("offchain: decode authorization: %w", err)
		}
		if auth.SiteID != site.ID() {
			return nil // someone else's task
		}
		rep, err := site.Serve(Request{Op: OpRun, Run: &auth})
		if err != nil {
			if onError != nil {
				onError(err)
			}
			return nil // executed-and-failed is terminal, not retryable
		}
		if onResult != nil {
			onResult(rep.Run)
		}
		return nil
	})
	return c
}
