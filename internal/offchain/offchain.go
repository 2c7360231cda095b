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
)

// Errors.
var (
	ErrWrongSite    = errors.New("offchain: authorization is for another site")
	ErrDataTampered = errors.New("offchain: local data does not match on-chain digest")
	ErrToolTampered = errors.New("offchain: tool code does not match on-chain digest")
	ErrUnknownTool  = errors.New("offchain: unknown tool")
	ErrNoRecords    = errors.New("offchain: site has no records")
	ErrNoBlobStore  = errors.New("offchain: site has no blob store")
)

// Site is one hospital/provider premise: records + tool registry + a
// key pair for encrypting outbound data.
type Site struct {
	id      string
	key     *cryptoutil.KeyPair
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
func NewSite(id string, key *cryptoutil.KeyPair, reg *analytics.Registry, records []*emr.Record) (*Site, error) {
	if len(records) == 0 {
		return nil, ErrNoRecords
	}
	d, err := emr.DatasetDigest(records)
	if err != nil {
		return nil, err
	}
	return &Site{id: id, key: key, reg: reg, records: records, digest: d}, nil
}

// ID returns the site identifier.
func (s *Site) ID() string { return s.id }

// Key returns the site's key pair.
func (s *Site) Key() *cryptoutil.KeyPair { return s.key }

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

// ExecuteRun performs an on-chain-authorized analytics run after
// verifying: the authorization targets this site, the local data still
// matches the anchored digest, and the tool identity matches its
// anchored code digest ("enforce its integrity of the off-chain data
// and code", §III).
func (s *Site) ExecuteRun(auth contract.RunAuthorization) (*TaskResult, error) {
	if auth.SiteID != s.id {
		return nil, fmt.Errorf("%w: auth for %q, this is %q", ErrWrongSite, auth.SiteID, s.id)
	}
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
	s.mu.RLock()
	records := s.records
	s.mu.RUnlock()
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
// what leaves. fn must not retain or mutate the slice.
func (s *Site) Evaluate(fn func(records []*emr.Record) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return fn(s.records)
}

// FetchEncrypted serves an authorized data request: the site's records
// (canonical JSON) sealed to the requester's public key. Returns the
// envelope and the plaintext size (the bytes that would cross the wire
// unencrypted — E4 accounting).
func (s *Site) FetchEncrypted(auth contract.AccessAuthorization, requesterPub []byte) (*cryptoutil.Envelope, int, error) {
	if auth.SiteID != s.id {
		return nil, 0, fmt.Errorf("%w: auth for %q, this is %q", ErrWrongSite, auth.SiteID, s.id)
	}
	if auth.Action != contract.ActionRead && auth.Action != contract.ActionShare {
		return nil, 0, fmt.Errorf("offchain: action %q cannot fetch records", auth.Action)
	}
	pub, err := cryptoutil.DecodePublicKey(requesterPub)
	if err != nil {
		return nil, 0, fmt.Errorf("offchain: requester key: %w", err)
	}
	s.mu.RLock()
	records := s.records
	s.mu.RUnlock()
	payload, err := json.Marshal(records)
	if err != nil {
		return nil, 0, fmt.Errorf("offchain: marshal records: %w", err)
	}
	aad := []byte(fmt.Sprintf("req-%d", auth.RequestID))
	env, err := cryptoutil.SealEnvelope(pub, payload, aad)
	if err != nil {
		return nil, 0, err
	}
	return env, len(payload), nil
}

// AttachBlobStore installs the site's content-addressed blob store —
// the per-record off-chain data plane the chain-tailing indexer and
// candidate-fetch path read through.
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

// ServeBlob serves one record's blob bytes against a valid on-chain
// authorization: the auth must target this site and carry a read/share
// action — the same gate FetchEncrypted applies — and the blob layer
// verifies every chunk against its content address on the way out.
// Typed blob errors (blob.ErrChunkMissing, blob.ErrManifestMissing,
// ...) propagate so callers can distinguish a missing blob from a
// denied request.
func (s *Site) ServeBlob(auth contract.AccessAuthorization, record string) ([]byte, *blob.Manifest, error) {
	if auth.SiteID != s.id {
		return nil, nil, fmt.Errorf("%w: auth for %q, this is %q", ErrWrongSite, auth.SiteID, s.id)
	}
	if auth.Action != contract.ActionRead && auth.Action != contract.ActionShare {
		return nil, nil, fmt.Errorf("offchain: action %q cannot fetch blobs", auth.Action)
	}
	bs := s.BlobStore()
	if bs == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoBlobStore, s.id)
	}
	return bs.Get(record)
}

// Runner fans authorized tasks out to sites in parallel — the
// transformed architecture's compute engine. Fan-out runs on the same
// bounded worker pool (par.ForEachN) the on-chain engine uses, so
// a large task batch cannot spawn unbounded goroutines.
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

// SetWorkers bounds RunAll's concurrent task fan-out (<= 0 restores
// the default, GOMAXPROCS).
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

// RunAll executes each authorization at its target site concurrently
// on a bounded worker pool. Both returned slices are index-aligned
// with auths: results[i] and errs[i] always describe auths[i], with
// exactly one of them nil — unknown-site failures, execution failures,
// and successes may interleave in any order without shifting
// positions. The first error aborts nothing — every task runs.
func (r *Runner) RunAll(auths []contract.RunAuthorization) ([]*TaskResult, []error) {
	results := make([]*TaskResult, len(auths))
	errs := make([]error, len(auths))
	sites := make([]*Site, len(auths))
	for i, auth := range auths {
		site, ok := r.Site(auth.SiteID)
		if !ok {
			errs[i] = fmt.Errorf("offchain: no site %q", auth.SiteID)
			continue
		}
		sites[i] = site
	}
	par.ForEachN(len(auths), r.Workers(), func(i int) {
		if sites[i] == nil {
			return // unknown site: error already recorded at this index
		}
		results[i], errs[i] = sites[i].ExecuteRun(auths[i])
	})
	return results, errs
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
		res, err := site.ExecuteRun(auth)
		if err != nil {
			if onError != nil {
				onError(err)
			}
			return nil // executed-and-failed is terminal, not retryable
		}
		if onResult != nil {
			onResult(res)
		}
		return nil
	})
	return c
}
