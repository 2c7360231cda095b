package hie

import (
	"encoding/json"
	"errors"
	"testing"

	"medchain/internal/analytics"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/emr"
	"medchain/internal/offchain"
)

func newSite(t testing.TB, id string, seed int64) *offchain.Site {
	t.Helper()
	recs := emr.NewGenerator(emr.GenConfig{Seed: seed, Patients: 12, StartID: int(seed) * 1000}).Generate()
	s, err := offchain.NewSite(id, analytics.NewRegistry(), recs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func readAuth(site string, reqID uint64, requester cryptoutil.Address) contract.AccessAuthorization {
	return contract.AccessAuthorization{
		RequestID: reqID, Resource: "data:" + site + "/emr",
		Requester: requester, Action: contract.ActionRead,
		Purpose: "research", SiteID: site,
	}
}

func TestAuditLogChainAndVerify(t *testing.T) {
	var l AuditLog
	if !l.Head().IsZero() {
		t.Fatal("empty head not zero")
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append("exchange", map[string]int{"i": i}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("len %d", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	entries := l.Entries()
	for i := 1; i < len(entries); i++ {
		if entries[i].Prev != entries[i-1].Digest {
			t.Fatalf("chain broken at %d", i)
		}
	}
	if l.Head() != entries[4].Digest {
		t.Fatal("head mismatch")
	}
}

func TestAuditLogDetectsTampering(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*AuditEntry)
	}{
		{"detail", func(e *AuditEntry) { e.Detail = []byte(`{"forged":true}`) }},
		{"kind", func(e *AuditEntry) { e.Kind = "nothing-happened" }},
		{"timestamp", func(e *AuditEntry) { e.At += 1 }},
		{"seq", func(e *AuditEntry) { e.Seq += 1 }},
		{"digest relink", func(e *AuditEntry) { e.Digest = cryptoutil.Sum([]byte("x")) }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			var l AuditLog
			for i := 0; i < 4; i++ {
				if _, err := l.Append("exchange", i, int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			l.tamperEntry(1, tt.mutate)
			if err := l.Verify(); err == nil {
				t.Fatal("tampered log verified")
			}
		})
	}
}

func TestAuditLogDeleteUndetectedOnlyAtTail(t *testing.T) {
	// Deleting a middle entry breaks the chain; the head digest
	// anchored on chain protects the tail.
	var l AuditLog
	for i := 0; i < 4; i++ {
		if _, err := l.Append("exchange", i, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	head := l.Head()
	l.mu.Lock()
	l.entries = append(l.entries[:1], l.entries[2:]...)
	l.mu.Unlock()
	// The head digest is unchanged (the tail entry survives), so the
	// on-chain anchor alone cannot catch this — chain verification can.
	if l.Head() != head {
		t.Fatal("tail entry should be untouched")
	}
	if err := l.Verify(); err == nil {
		t.Fatal("middle deletion verified")
	}

	// Truncating the tail, by contrast, moves the head away from the
	// anchored value.
	l.mu.Lock()
	l.entries = l.entries[:1]
	l.mu.Unlock()
	if l.Head() == head {
		t.Fatal("truncation kept the anchored head")
	}
}

func TestExchangeHappyPathAndAudit(t *testing.T) {
	site := newSite(t, "site-A", 1)
	svc := NewService(offchain.NewRunner(site))
	requester, err := cryptoutil.DeriveKeyPair("researcher")
	if err != nil {
		t.Fatal(err)
	}
	auth := readAuth("site-A", 9, requester.Address())
	env, err := svc.Exchange(auth, requester.PublicBytes(), 100)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := cryptoutil.OpenEnvelope(requester, env, []byte("req-9"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []*emr.Record
	if err := json.Unmarshal(pt, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 {
		t.Fatalf("%d records", len(recs))
	}
	// Exactly one audited exchange, with a verifiable chain.
	if svc.Audit().Len() != 1 {
		t.Fatalf("audit len %d", svc.Audit().Len())
	}
	if err := svc.Audit().Verify(); err != nil {
		t.Fatal(err)
	}
	var rec ExchangeRecord
	if err := json.Unmarshal(svc.Audit().Entries()[0].Detail, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.RequestID != 9 || rec.FromSite != "site-A" || rec.PlaintextBytes == 0 {
		t.Fatalf("audit record %+v", rec)
	}
	if rec.PayloadDigest != cryptoutil.Sum(env.Ciphertext) {
		t.Fatal("payload digest mismatch")
	}
}

func TestExchangeDenialIsAudited(t *testing.T) {
	site := newSite(t, "site-A", 2)
	svc := NewService(offchain.NewRunner(site))
	requester, err := cryptoutil.DeriveKeyPair("r")
	if err != nil {
		t.Fatal(err)
	}
	// Execute action cannot fetch records → denial, still audited.
	auth := readAuth("site-A", 1, requester.Address())
	auth.Action = contract.ActionExecute
	if _, err := svc.Exchange(auth, requester.PublicBytes(), 5); err == nil {
		t.Fatal("exchange allowed for execute action")
	}
	entries := svc.Audit().Entries()
	if len(entries) != 1 || entries[0].Kind != "denied" {
		t.Fatalf("denial not audited: %+v", entries)
	}
}

func TestExchangeUnknownSite(t *testing.T) {
	svc := NewService(offchain.NewRunner())
	requester, err := cryptoutil.DeriveKeyPair("r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Exchange(readAuth("ghost", 1, requester.Address()), requester.PublicBytes(), 1); !errors.Is(err, offchain.ErrNoSite) {
		t.Fatalf("unknown site: err = %v, want offchain.ErrNoSite", err)
	}
	if svc.Audit().Len() != 0 {
		t.Fatal("a request no site received was audited")
	}
}

func TestExchangeViaFDA(t *testing.T) {
	site := newSite(t, "site-A", 3)
	svc := NewService(offchain.NewRunner(site))
	fda, err := cryptoutil.DeriveKeyPair("fda")
	if err != nil {
		t.Fatal(err)
	}
	svc.SetFDA(fda)
	requester, err := cryptoutil.DeriveKeyPair("researcher2")
	if err != nil {
		t.Fatal(err)
	}
	auth := readAuth("site-A", 77, requester.Address())
	env, err := svc.ExchangeViaFDA(auth, requester.PublicBytes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	// The requester opens the relayed envelope.
	pt, err := cryptoutil.OpenEnvelope(requester, env, []byte("req-77"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []*emr.Record
	if err := json.Unmarshal(pt, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 {
		t.Fatalf("%d records", len(recs))
	}
	entries := svc.Audit().Entries()
	if len(entries) != 1 || entries[0].Kind != "fda-relay" {
		t.Fatalf("relay not audited: %+v", entries)
	}
	var rec ExchangeRecord
	if err := json.Unmarshal(entries[0].Detail, &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.ViaFDA {
		t.Fatal("relay not marked")
	}
}

func TestExchangeViaFDARequiresKey(t *testing.T) {
	site := newSite(t, "site-A", 4)
	svc := NewService(offchain.NewRunner(site))
	requester, err := cryptoutil.DeriveKeyPair("r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ExchangeViaFDA(readAuth("site-A", 1, requester.Address()), requester.PublicBytes(), 1); err == nil {
		t.Fatal("relay without FDA key accepted")
	}
}

func TestEmailExchangeLeavesNoAudit(t *testing.T) {
	site := newSite(t, "site-A", 5)
	svc := NewService(offchain.NewRunner(site))
	requester, err := cryptoutil.DeriveKeyPair("r")
	if err != nil {
		t.Fatal(err)
	}
	body, err := EmailExchange(site, readAuth("site-A", 1, requester.Address()), requester.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Fatal("no email body")
	}
	// The point of the baseline: nothing was recorded anywhere.
	if svc.Audit().Len() != 0 {
		t.Fatal("email exchange left an audit trail?!")
	}
}

func TestAuditHeadMovesPerEntry(t *testing.T) {
	var l AuditLog
	heads := make(map[cryptoutil.Digest]bool)
	for i := 0; i < 10; i++ {
		if _, err := l.Append("x", i, int64(i)); err != nil {
			t.Fatal(err)
		}
		if heads[l.Head()] {
			t.Fatal("head repeated")
		}
		heads[l.Head()] = true
	}
}

func BenchmarkExchange(b *testing.B) {
	recs := emr.NewGenerator(emr.GenConfig{Seed: 1, Patients: 20}).Generate()
	site, err := offchain.NewSite("s", analytics.NewRegistry(), recs)
	if err != nil {
		b.Fatal(err)
	}
	svc := NewService(offchain.NewRunner(site))
	requester, err := cryptoutil.DeriveKeyPair("bench-req")
	if err != nil {
		b.Fatal(err)
	}
	auth := readAuth("s", 1, requester.Address())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Exchange(auth, requester.PublicBytes(), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
