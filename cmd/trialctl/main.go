// Command trialctl demonstrates the clinical-trial integrity layer: it
// registers a COMPare-shaped corpus of trials on a local chain (with
// the configured rate of faithful reporting), runs the on-chain outcome
// audit, and prints the findings — the §III.B data-integrity story.
//
//	trialctl -trials 67 -correct 0.13
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"medchain/internal/chain"
	"medchain/internal/cryptoutil"
	"medchain/internal/trial"
)

func main() {
	trials := flag.Int("trials", 67, "corpus size (COMPare audited 67)")
	correct := flag.Float64("correct", 0.13, "fraction reporting faithfully")
	unreported := flag.Float64("unreported", 0.12, "fraction never reporting")
	seed := flag.Int64("seed", 42, "corpus seed")
	verbose := flag.Bool("v", false, "print per-trial findings")
	flag.Parse()

	if err := run(*trials, *correct, *unreported, *seed, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "trialctl: %v\n", err)
		os.Exit(1)
	}
}

func run(trials int, correct, unreported float64, seed int64, verbose bool) error {
	cluster, err := chain.NewCluster(chain.ClusterConfig{
		Nodes: 2, KeySeed: "trialctl",
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	sponsor, err := cryptoutil.DeriveKeyPair("trialctl-sponsor")
	if err != nil {
		return err
	}
	builder := trial.NewTxBuilder(sponsor, 0)
	corpus := trial.GenerateCorpus(trial.CorpusConfig{
		Trials: trials, CorrectRate: correct, UnreportedRate: unreported, Seed: seed,
	})

	fmt.Printf("registering %d trials on chain …\n", trials)
	ts := time.Now().UnixNano()
	submitted := 0
	for _, ct := range corpus {
		reg, err := builder.Register(ct.ID, []byte("protocol-"+ct.ID), ct.PreRegistered, ts)
		if err != nil {
			return err
		}
		if err := cluster.Submit(reg); err != nil {
			return err
		}
		submitted++
		ts++
		if ct.Reported != nil {
			rep, err := builder.Report(ct.ID, ct.Reported, []byte("results-"+ct.ID), ts)
			if err != nil {
				return err
			}
			if err := cluster.Submit(rep); err != nil {
				return err
			}
			submitted++
			ts++
		}
	}
	blocks, err := cluster.CommitAll()
	if err != nil {
		return err
	}
	fmt.Printf("committed %d transactions in %d blocks\n", submitted, blocks)

	report := trial.AuditAll(cluster.Node(0).State())
	fmt.Printf("\nCOMPare-style outcome audit over the on-chain registry:\n")
	fmt.Printf("  trials:      %d\n", report.Total)
	fmt.Printf("  correct:     %d (%.0f%%)\n", report.Correct, report.CorrectRate*100)
	fmt.Printf("  switched:    %d\n", report.Switched)
	fmt.Printf("  unreported:  %d\n", report.Unreported)
	if verbose {
		fmt.Println("\nper-trial findings:")
		for _, f := range report.Findings {
			fmt.Printf("  %-10s %-11s missing=%v added=%v\n", f.TrialID, f.Verdict, f.Missing, f.Added)
		}
	}

	// The ledger itself is tamper-evident: verify it end to end.
	if err := cluster.Node(0).Chain().VerifyIntegrity(); err != nil {
		return fmt.Errorf("ledger integrity: %w", err)
	}
	fmt.Println("\nledger integrity verified ✔ (any post-hoc edit of a report would break the chain)")
	return nil
}
