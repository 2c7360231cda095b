package contract

import (
	"encoding/json"
	"testing"

	"medchain/internal/consensus"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

// evidenceArgs builds report_evidence args around real signed
// double-vote evidence from the offender's key.
func evidenceArgs(t testing.TB, offender *cryptoutil.KeyPair, height uint64) ReportEvidenceArgs {
	t.Helper()
	fork := func(salt string) (consensus.Vote, consensus.SignedHeader) {
		t.Helper()
		h := ledger.Header{Height: height, StateRoot: cryptoutil.Sum([]byte(salt)), Proposer: offender.Address()}
		v, err := consensus.SignVote(height, h.Hash(), offender)
		if err != nil {
			t.Fatal(err)
		}
		return v, consensus.SignedHeader{Header: h}
	}
	va, ha := fork("fork-a")
	vb, hb := fork("fork-b")
	ev, err := consensus.NewDoubleVoteEvidence(va, vb, ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ev.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return ReportEvidenceArgs{
		Kind:     string(ev.Kind),
		Height:   ev.Height,
		Offender: ev.Offender,
		Evidence: enc,
	}
}

func TestAuditReportEvidence(t *testing.T) {
	s := NewState()
	reporter := key(t, "reporter")
	offender := key(t, "offender")
	args := evidenceArgs(t, offender, 9)

	mustOK(t, apply(t, s, tx(t, reporter, ledger.TxAudit, "report_evidence", args)))
	if !s.HasEvidence(args.Kind, args.Height, args.Offender) {
		t.Fatal("evidence not recorded")
	}
	recs := s.EvidenceRecords()
	if len(recs) != 1 || recs[0].Reporter != reporter.Address() || recs[0].Offender != offender.Address() {
		t.Fatalf("bad record set: %+v", recs)
	}

	// A second report of the same (kind, height, offender) — from anyone
	// — is a dedupe failure, not a new record.
	r := apply(t, s, tx(t, key(t, "other-reporter"), ledger.TxAudit, "report_evidence", args))
	if r.OK() {
		t.Fatal("duplicate evidence accepted")
	}
	if got := len(s.EvidenceRecords()); got != 1 {
		t.Fatalf("duplicate grew records to %d", got)
	}

	// Declared key must match the embedded evidence.
	bad := args
	bad.Height = 10
	if apply(t, s, tx(t, reporter, ledger.TxAudit, "report_evidence", bad)).OK() {
		t.Fatal("mismatched declared height accepted")
	}
	// Structural garbage is rejected.
	if apply(t, s, tx(t, reporter, ledger.TxAudit, "report_evidence", ReportEvidenceArgs{
		Kind: "double-vote", Height: 9, Evidence: json.RawMessage(`{"kind":"double-vote"}`),
	})).OK() {
		t.Fatal("evidence without votes accepted")
	}
}

// TestSnapshotMergeCarriesEvidence is the regression test for the
// parallel-execution path: an audit transaction speculated against a
// SnapshotAt snapshot and committed via AdoptSpeculative must land its
// evidence record in the base state and reach the same root as serial
// application — the divergence the sim's differential oracle caught.
func TestSnapshotMergeCarriesEvidence(t *testing.T) {
	reporter := key(t, "reporter")
	offender := key(t, "offender")
	transaction := tx(t, reporter, ledger.TxAudit, "report_evidence", evidenceArgs(t, offender, 3))

	serial := NewState()
	mustOK(t, apply(t, serial, transaction))

	base := NewState()
	acc := AccessSetOf(transaction)
	if len(acc.Writes) == 0 {
		t.Fatalf("audit tx footprint not derived: %v", acc)
	}
	snap := NewVersions(base).SnapshotAt(0, acc)
	mustOK(t, apply(t, snap, transaction))
	base.AdoptSpeculative([]SpecWrite{{Snap: snap, Acc: acc}}, nil)

	if !base.HasEvidence("double-vote", 3, offender.Address()) {
		t.Fatal("merge dropped the evidence record")
	}
	if base.Root() != serial.Root() {
		t.Fatalf("speculative root %s != serial %s", base.Root().Short(), serial.Root().Short())
	}

	// With the record present in the base, a snapshot for the same key
	// must carry it so the dedupe check holds under speculation too.
	snap2 := NewVersions(base).SnapshotAt(0, acc)
	if apply(t, snap2, transaction).OK() {
		t.Fatal("speculative re-report missed the dedupe record")
	}
}
