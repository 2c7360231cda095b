// Package hie implements the health-information-exchange layer of paper
// §III.B: standardized, transparent, auditable record exchange between
// data-hosting sites — the blockchain answer to the "opaque and
// un-auditable" secure-email HIE the paper criticizes.
//
// Every exchange (allowed or denied) appends to a hash-chained audit
// log whose head digest can be anchored on chain, making the trail
// tamper-evident end-to-end. Records move only inside encrypted
// envelopes addressed to the authorized recipient; the optional FDA
// node (Fig. 2's trusted middleman) re-wraps envelopes without ever
// exposing plaintext to the network.
package hie

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/offchain"
)

// ErrTampered: the audit log's hash chain does not verify.
var ErrTampered = errors.New("hie: audit log tampered")

// AuditEntry is one hash-chained audit record.
type AuditEntry struct {
	// Seq is the 0-based entry index.
	Seq int `json:"seq"`
	// Kind classifies the entry ("exchange", "denied", "fda-relay").
	Kind string `json:"kind"`
	// Detail is the JSON-encoded event payload.
	Detail json.RawMessage `json:"detail"`
	// At is the logical timestamp supplied by the caller.
	At int64 `json:"at"`
	// Prev is the digest of the previous entry (zero for the first).
	Prev cryptoutil.Digest `json:"prev"`
	// Digest commits to this entry (including Prev).
	Digest cryptoutil.Digest `json:"digest"`
}

func entryDigest(e *AuditEntry) cryptoutil.Digest {
	var seqBuf, atBuf [8]byte
	for i := 0; i < 8; i++ {
		seqBuf[i] = byte(uint64(e.Seq) >> (56 - 8*i))
		atBuf[i] = byte(uint64(e.At) >> (56 - 8*i))
	}
	return cryptoutil.SumAll([]byte("hie/audit"), seqBuf[:], []byte(e.Kind), e.Detail, atBuf[:], e.Prev[:])
}

// AuditLog is an append-only, hash-chained log. The zero value is ready
// to use. Safe for concurrent use.
type AuditLog struct {
	mu      sync.RWMutex
	entries []AuditEntry
}

// Append records an event and returns the entry.
func (l *AuditLog) Append(kind string, detail any, at int64) (AuditEntry, error) {
	raw, err := json.Marshal(detail)
	if err != nil {
		return AuditEntry{}, fmt.Errorf("hie: audit detail: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := AuditEntry{Seq: len(l.entries), Kind: kind, Detail: raw, At: at}
	if len(l.entries) > 0 {
		e.Prev = l.entries[len(l.entries)-1].Digest
	}
	e.Digest = entryDigest(&e)
	l.entries = append(l.entries, e)
	return e, nil
}

// Len returns the number of entries.
func (l *AuditLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// Head returns the digest of the latest entry (zero when empty) — the
// value to anchor on chain.
func (l *AuditLog) Head() cryptoutil.Digest {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.entries) == 0 {
		return cryptoutil.ZeroDigest
	}
	return l.entries[len(l.entries)-1].Digest
}

// Entries returns a copy of the log.
func (l *AuditLog) Entries() []AuditEntry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]AuditEntry(nil), l.entries...)
}

// Verify re-checks the whole hash chain.
func (l *AuditLog) Verify() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var prev cryptoutil.Digest
	for i := range l.entries {
		e := l.entries[i]
		if e.Seq != i {
			return fmt.Errorf("%w: entry %d has seq %d", ErrTampered, i, e.Seq)
		}
		if e.Prev != prev {
			return fmt.Errorf("%w: entry %d prev link", ErrTampered, i)
		}
		if entryDigest(&e) != e.Digest {
			return fmt.Errorf("%w: entry %d digest", ErrTampered, i)
		}
		prev = e.Digest
	}
	return nil
}

// tamperEntry is a test hook: it mutates an entry in place.
func (l *AuditLog) tamperEntry(i int, mutate func(*AuditEntry)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	mutate(&l.entries[i])
}

// ExchangeRecord is the audited detail of one exchange.
type ExchangeRecord struct {
	// RequestID is the on-chain authorization ID.
	RequestID uint64 `json:"request_id"`
	// FromSite served the records.
	FromSite string `json:"from_site"`
	// Requester is the recipient address.
	Requester cryptoutil.Address `json:"requester"`
	// Purpose is the declared purpose.
	Purpose string `json:"purpose,omitempty"`
	// PlaintextBytes is the exchanged payload size before encryption.
	PlaintextBytes int `json:"plaintext_bytes"`
	// PayloadDigest commits to the ciphertext.
	PayloadDigest cryptoutil.Digest `json:"payload_digest"`
	// ViaFDA marks relayed exchanges.
	ViaFDA bool `json:"via_fda,omitempty"`
}

// Service coordinates audited exchanges over the sites of a runner.
type Service struct {
	mu     sync.RWMutex
	runner *offchain.Runner
	audit  *AuditLog
	// fdaKey, when set, enables FDA-mediated relays.
	fdaKey *cryptoutil.KeyPair
}

// NewService builds an exchange service over the runner's sites.
func NewService(runner *offchain.Runner) *Service {
	return &Service{runner: runner, audit: &AuditLog{}}
}

// seal asks the granted site, through the runner, for its records
// sealed to key. An unknown site fails with offchain.ErrNoSite.
func (s *Service) seal(auth contract.AccessAuthorization, key []byte) (offchain.Reply, error) {
	replies, errs := s.runner.Dispatch([]offchain.Request{{Op: offchain.OpSeal, Access: &auth, Recipient: key}})
	return replies[0], errs[0]
}

// SetFDA installs the trusted-intermediary key (Fig. 2's government
// node).
func (s *Service) SetFDA(key *cryptoutil.KeyPair) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fdaKey = key
}

// Audit exposes the audit log.
func (s *Service) Audit() *AuditLog { return s.audit }

// Exchange serves an on-chain-authorized record request directly from
// the hosting site to the requester, appending an audit entry. at is
// the logical timestamp (chain height or block time).
func (s *Service) Exchange(auth contract.AccessAuthorization, requesterPub []byte, at int64) (*cryptoutil.Envelope, error) {
	rep, err := s.seal(auth, requesterPub)
	if errors.Is(err, offchain.ErrNoSite) {
		return nil, err // no site was asked: nothing to audit
	}
	if err != nil {
		if _, auditErr := s.audit.Append("denied", map[string]any{
			"request_id": auth.RequestID, "site": auth.SiteID, "error": err.Error(),
		}, at); auditErr != nil {
			return nil, auditErr
		}
		return nil, err
	}
	rec := ExchangeRecord{
		RequestID: auth.RequestID, FromSite: auth.SiteID, Requester: auth.Requester,
		Purpose: auth.Purpose, PlaintextBytes: rep.PlainBytes,
		PayloadDigest: cryptoutil.Sum(rep.Envelope.Ciphertext),
	}
	if _, err := s.audit.Append("exchange", rec, at); err != nil {
		return nil, err
	}
	return rep.Envelope, nil
}

// ExchangeViaFDA routes the exchange through the trusted FDA node: the
// site seals to the FDA key, the FDA re-seals to the requester. The
// relay is itself audited. This is the "trusted or law-required
// middleman" path of §III.
func (s *Service) ExchangeViaFDA(auth contract.AccessAuthorization, requesterPub []byte, at int64) (*cryptoutil.Envelope, error) {
	s.mu.RLock()
	fda := s.fdaKey
	s.mu.RUnlock()
	if fda == nil {
		return nil, errors.New("hie: no FDA key installed")
	}
	// Site → FDA leg.
	toFDA, err := s.seal(auth, fda.PublicBytes())
	if errors.Is(err, offchain.ErrNoSite) {
		return nil, err
	}
	if err != nil {
		if _, auditErr := s.audit.Append("denied", map[string]any{
			"request_id": auth.RequestID, "site": auth.SiteID, "error": err.Error(), "via_fda": true,
		}, at); auditErr != nil {
			return nil, auditErr
		}
		return nil, err
	}
	aad := []byte(fmt.Sprintf("req-%d", auth.RequestID))
	plaintext, err := cryptoutil.OpenEnvelope(fda, toFDA.Envelope, aad)
	if err != nil {
		return nil, fmt.Errorf("hie: fda unwrap: %w", err)
	}
	pub, err := cryptoutil.DecodePublicKey(requesterPub)
	if err != nil {
		return nil, fmt.Errorf("hie: requester key: %w", err)
	}
	out, err := cryptoutil.SealEnvelope(pub, plaintext, aad)
	if err != nil {
		return nil, err
	}
	rec := ExchangeRecord{
		RequestID: auth.RequestID, FromSite: auth.SiteID, Requester: auth.Requester,
		Purpose: auth.Purpose, PlaintextBytes: toFDA.PlainBytes,
		PayloadDigest: cryptoutil.Sum(out.Ciphertext), ViaFDA: true,
	}
	if _, err := s.audit.Append("fda-relay", rec, at); err != nil {
		return nil, err
	}
	return out, nil
}

// EmailExchange is the legacy baseline the paper criticizes: records
// move as opaque plaintext attachments with NO audit trail and NO
// policy check. It exists for experiment E8's comparison only.
func EmailExchange(site *offchain.Site, auth contract.AccessAuthorization, requesterPub []byte) ([]byte, error) {
	rep, err := site.Serve(offchain.Request{Op: offchain.OpSeal, Access: &auth, Recipient: requesterPub})
	if err != nil {
		return nil, err
	}
	// The "email" carries the envelope but nothing is logged anywhere —
	// the exchange is invisible to any auditor.
	body, err := json.Marshal(rep.Envelope)
	if err != nil {
		return nil, err
	}
	return body, nil
}
