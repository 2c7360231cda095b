// Clinical trial example: the real-world-evidence trial workflow of
// paper §II/§III.B on a live local chain — registration with
// pre-committed outcomes, multi-site recruitment, outcome reporting, an
// attempted outcome switch (caught by the audit), adverse-event
// surveillance, and tamper detection on the stored ledger.
//
//	go run ./examples/clinicaltrial
package main

import (
	"fmt"
	"log"
	"time"

	"medchain/internal/chain"
	"medchain/internal/cryptoutil"
	"medchain/internal/emr"
	"medchain/internal/ledger"
	"medchain/internal/trial"
)

func main() {
	log.SetFlags(0)
	cluster, err := chain.NewCluster(chain.ClusterConfig{
		Nodes: 3, KeySeed: "trial-example",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Println("medical blockchain up: 3 nodes (sponsor, hospital A, hospital B)")

	sponsor, err := cryptoutil.DeriveKeyPair("pharma-sponsor")
	if err != nil {
		log.Fatal(err)
	}
	siteA, err := cryptoutil.DeriveKeyPair("hospital-A")
	if err != nil {
		log.Fatal(err)
	}
	sb := trial.NewTxBuilder(sponsor, 0)
	ab := trial.NewTxBuilder(siteA, 0)
	ts := time.Now().UnixNano()

	// 1. Register the trial with pre-committed primary outcomes. From
	//    this moment the protocol is immutable: its digest lives in a
	//    sealed block.
	reg, err := sb.Register("NCT-7001", []byte("protocol v1: metformin-X vs placebo"),
		[]string{"hba1c-reduction", "cardiovascular-events"}, ts)
	if err != nil {
		log.Fatal(err)
	}
	mustCommit(cluster, reg)
	fmt.Println("registered NCT-7001 with pre-committed outcomes: [hba1c-reduction cardiovascular-events]")

	// 2. Hospitals recruit participants; every enrollment is on chain,
	//    so recruitment is auditable (no cherry-picking after the
	//    fact).
	for i, patient := range []string{"P-0001", "P-0002", "P-0003", "P-0004"} {
		enr, err := ab.Enroll("NCT-7001", patient, "hospital-A", ts+int64(i)+1)
		if err != nil {
			log.Fatal(err)
		}
		mustCommit(cluster, enr)
	}
	fmt.Println("enrolled 4 participants")

	// 3. Real-world evidence: sites report adverse events as they see
	//    them; surveillance watches severities and rates continuously
	//    (the FDA vision of post-approval monitoring).
	ae1, err := ab.AdverseEvent("NCT-7001", "P-0002", "nausea", 2, "hospital-A", ts+10)
	if err != nil {
		log.Fatal(err)
	}
	ae2, err := ab.AdverseEvent("NCT-7001", "P-0003", "syncope requiring admission", 4, "hospital-A", ts+11)
	if err != nil {
		log.Fatal(err)
	}
	mustCommit(cluster, ae1, ae2)

	tr, ok := cluster.Node(0).State().Trial("NCT-7001")
	if !ok {
		log.Fatal("trial missing from chain state")
	}
	for _, sig := range trial.Surveil(tr, trial.SurveillanceConfig{}) {
		fmt.Printf("surveillance signal: [%s] %s\n", sig.Kind, sig.Detail)
	}

	// 4. The sponsor reports outcomes — but switches them, dropping
	//    the cardiovascular endpoint and adding a softer one.
	rep, err := sb.Report("NCT-7001",
		[]string{"hba1c-reduction", "quality-of-life"},
		[]byte("results: favourable"), ts+20)
	if err != nil {
		log.Fatal(err)
	}
	mustCommit(cluster, rep)
	fmt.Println("sponsor reported outcomes: [hba1c-reduction quality-of-life]")

	// 5. The COMPare-style audit needs nothing but the chain.
	report := trial.AuditAll(cluster.Node(0).State())
	for _, f := range report.Findings {
		fmt.Printf("audit: %s -> %s (missing=%v added=%v)\n", f.TrialID, f.Verdict, f.Missing, f.Added)
	}

	// 5b. Recruitment balance: the reference population is mixed, but
	//     this trial enrolled only group-A patients — the ethnicity
	//     bias the paper's Nature citation warns about is visible the
	//     moment enrollment is on chain.
	population := emr.NewGenerator(emr.GenConfig{Seed: 4, Patients: 200}).Generate()
	var popGroups []string
	for _, r := range population {
		popGroups = append(popGroups, r.Patient.Ethnicity)
	}
	enrolledGroups := []string{"group-A", "group-A", "group-A", "group-A"}
	balance, err := trial.RecruitmentBalance(enrolledGroups, popGroups, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(balance)

	// 6. Ledger-level tamper evidence: editing the stored report in
	//    place breaks the integrity check every peer can run.
	if err := cluster.Node(0).Chain().VerifyIntegrity(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("ledger verifies ✔")
	head := cluster.Node(0).Height()
	blk, err := cluster.Node(0).Chain().BlockAt(head)
	if err != nil {
		log.Fatal(err)
	}
	blk.Txs[0].Args = []byte(`{"trial":"NCT-7001","outcomes":["everything-improved"]}`)
	if err := cluster.Node(0).Chain().VerifyIntegrity(); err != nil {
		fmt.Printf("after editing the stored report: detected ✔ (%v)\n", err)
	} else {
		log.Fatal("tampering went undetected!")
	}
}

// mustCommit gossips transactions and commits until all are on chain.
func mustCommit(cluster *chain.Cluster, txs ...*ledger.Transaction) {
	for _, tx := range txs {
		if err := cluster.Submit(tx); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := cluster.CommitAll(); err != nil {
		log.Fatal(err)
	}
	for _, tx := range txs {
		r, ok := cluster.Node(0).Receipt(tx.ID())
		if !ok || !r.OK() {
			log.Fatalf("tx failed: %+v", r)
		}
	}
}
