package contract

import (
	"sync"
	"testing"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

// TestReadAccessorsReturnCopies scribbles over everything the read API
// hands out, nested slices included; the state must not notice.
func TestReadAccessorsReturnCopies(t *testing.T) {
	s := ImportState(allKindsExport(t))
	root := s.Root()

	ds, _ := s.Dataset("gold/emr")
	ds.Version++
	tool, _ := s.Tool("km@1")
	tool.Digest = cryptoutil.Digest{}
	tr, _ := s.Trial("NCT-GOLD")
	tr.Reports[0].Outcomes[0] = "switched"
	an, _ := s.AnchorOf("gold/protocol")
	an.Digest = cryptoutil.Digest{}
	dep, ok := s.DeployedAt(s.Export().Deployed[0].Address)
	if ds == nil || tool == nil || tr == nil || an == nil || !ok {
		t.Fatal("fixture lacks an object the test reads")
	}
	dep.Name = "renamed"
	pol, _ := s.PolicyOf("data:gold/emr")
	pol.Grants[0].Actions[0] = ActionAdmin
	ms, _ := s.ManifestSetOf("gold/emr")
	ms.Count++
	s.EvidenceRecords()[0].Evidence[0] = ' '
	out, _ := s.CrossOutbound("consent-1")
	out.Record.Payload[0] = ' '
	s.CrossOutboundAll()[0].Record.Payload[0] = ' '
	s.CrossInboundAll()[0].Applied = false
	s.ShardDirectory()[0].Committee[0] = cryptoutil.Address{}
	info, _ := s.ShardInfoOf("shard-0")
	info.Committee[0] = cryptoutil.Address{}
	rt, _ := s.Routing()
	rt.Current.Shards[0] = "elsewhere"
	fl, _ := s.FLRoundOf("round-1")
	fl.Contributions[0].Weights[0] = 99

	if freshRoot(s) != root {
		t.Fatal("a read accessor handed out memory the state still uses")
	}
}

// TestReadAccessorsRaceWithApply reads accessor results while serial
// Apply mutates the same objects in place. It only bites under -race.
func TestReadAccessorsRaceWithApply(t *testing.T) {
	s := NewState()
	owner := key(t, "race-owner")
	registerDataset(t, s, owner, "d", "site")
	mustOK(t, apply(t, s, tx(t, owner, ledger.TxTrial, "register_trial", RegisterTrialArgs{
		ID: "n", PrimaryOutcomes: []string{"o"},
	})))
	const rounds = 200
	updates := make([]*ledger.Transaction, 0, 2*rounds)
	for i := 0; i < rounds; i++ {
		updates = append(updates,
			tx(t, owner, ledger.TxData, "update_dataset", RegisterDatasetArgs{ID: "d", Records: i + 1}),
			tx(t, owner, ledger.TxTrial, "enroll", EnrollArgs{Trial: "n", Patient: string(rune('a' + i)), Site: "site"}))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sum := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			ds, _ := s.Dataset("d")
			tr, _ := s.Trial("n")
			sum += ds.Version + ds.Records + len(tr.Enrollments)
		}
	}()
	for _, u := range updates {
		mustOK(t, apply(t, s, u))
	}
	close(stop)
	wg.Wait()
	if ds, _ := s.Dataset("d"); ds.Version != rounds+1 {
		t.Fatalf("dataset version = %d, want %d", ds.Version, rounds+1)
	}
}
