package contract

import (
	"encoding/json"
	"fmt"

	"medchain/internal/consensus"
	"medchain/internal/cryptoutil"
)

// The audit contract records consensus accountability data on chain.
// When a node detects equivocation (a proposer signing two blocks at
// one height, or a validator double-voting) it packages the two signed
// artifacts as consensus.Evidence and submits a TxAudit transaction;
// the replicated record is what the trusted FDA/audit node of the
// paper's Fig. 2 reads. The contract checks the evidence structurally
// (decodes, internally consistent, bounded size) and dedupes by
// (kind, height, offender); cryptographic verification against the
// validator set is done by the detecting node before submission and
// re-done by any auditor via consensus.Evidence.Verify — the record is
// self-verifying, so the chain does not need to trust the reporter.

// AuditContractAddr is the native audit contract.
var AuditContractAddr = cryptoutil.NamedAddress("native/audit")

// gasAudit is the base cost of recording evidence.
const gasAudit = 200

// maxEvidenceBytes caps the encoded evidence payload so audit
// transactions cannot be used to bloat state.
const maxEvidenceBytes = 16 << 10

// ReportEvidenceArgs are the args of audit/"report_evidence".
type ReportEvidenceArgs struct {
	// Kind, Height, Offender must match the embedded evidence record;
	// they are the dedupe key.
	Kind     string             `json:"kind"`
	Height   uint64             `json:"height"`
	Offender cryptoutil.Address `json:"offender"`
	// Evidence is the encoded consensus.Evidence.
	Evidence json.RawMessage `json:"evidence"`
}

// EvidenceRecord is one stored equivocation proof.
type EvidenceRecord struct {
	// Kind is the misbehavior kind ("double-proposal" / "double-vote").
	Kind string `json:"kind"`
	// Height is the equivocation height.
	Height uint64 `json:"height"`
	// Offender is the misbehaving validator.
	Offender cryptoutil.Address `json:"offender"`
	// Reporter is the submitting node.
	Reporter cryptoutil.Address `json:"reporter"`
	// Evidence is the encoded, self-verifying consensus.Evidence.
	Evidence json.RawMessage `json:"evidence"`
	// At is the chain timestamp of the recording.
	At int64 `json:"at"`
}

func evidenceKey(kind string, height uint64, offender cryptoutil.Address) string {
	return fmt.Sprintf("%s/%d/%s", kind, height, offender)
}

func (s *State) reportEvidence(x *env, a *ReportEvidenceArgs) error {
	if len(a.Evidence) == 0 {
		return fmt.Errorf("%w: empty evidence", ErrBadArgs)
	}
	if len(a.Evidence) > maxEvidenceBytes {
		return fmt.Errorf("%w: evidence %d bytes exceeds cap %d", ErrBadArgs, len(a.Evidence), maxEvidenceBytes)
	}
	ev, err := consensus.DecodeEvidence(a.Evidence)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	if string(ev.Kind) != a.Kind || ev.Height != a.Height || ev.Offender != a.Offender {
		return fmt.Errorf("%w: evidence disagrees with declared kind/height/offender", ErrBadArgs)
	}
	switch ev.Kind {
	case consensus.EvidenceDoubleProposal:
		if ev.FirstHeader == nil || ev.SecondHeader == nil {
			return fmt.Errorf("%w: double-proposal evidence missing headers", ErrBadArgs)
		}
	case consensus.EvidenceDoubleVote:
		if ev.FirstVote == nil || ev.SecondVote == nil {
			return fmt.Errorf("%w: double-vote evidence missing votes", ErrBadArgs)
		}
	default:
		return fmt.Errorf("%w: evidence kind %q", ErrBadArgs, ev.Kind)
	}
	key := evidenceKey(a.Kind, a.Height, a.Offender)
	if _, dup := s.evidence[key]; dup {
		return fmt.Errorf("%w: evidence %s", ErrExists, key)
	}
	s.evidence[key] = &EvidenceRecord{
		Kind: a.Kind, Height: a.Height, Offender: a.Offender,
		Reporter: x.tx.From, Evidence: append(json.RawMessage(nil), a.Evidence...), At: x.now,
	}
	s.emit(x.r, AuditContractAddr, "EvidenceRecorded", map[string]any{
		"kind": a.Kind, "height": a.Height, "offender": a.Offender, "reporter": x.tx.From,
	})
	return nil
}

// HasEvidence reports whether evidence for (kind, height, offender) is
// recorded.
func (s *State) HasEvidence(kind string, height uint64, offender cryptoutil.Address) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.evidence[evidenceKey(kind, height, offender)]
	return ok
}

// EvidenceRecords returns all recorded evidence, sorted by key — the
// audit-node view.
func (s *State) EvidenceRecords() []EvidenceRecord { return evidenceKind.all(s) }
