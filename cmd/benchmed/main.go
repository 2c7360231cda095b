// Command benchmed runs the paper-reproduction experiment suite — every
// entry of the internal/experiments registry (DESIGN.md §4) — prints
// the result tables, and exits 1 when a sweep contradicts the claim its
// entry verifies. Use -run to select a subset:
//
//	benchmed                # everything (~2.5 minutes)
//	benchmed -run e1,e2     # just the chain experiments
//	benchmed -quick         # reduced sweep sizes (~12s)
//
// `-run sim` is the deterministic-simulation soak mode (E11): it fuzzes
// a full fault-injected cluster for -sim.rounds rounds under the
// internal/sim invariant checkers and exits non-zero on any violation,
// printing the minimized counterexample and its replay command. It runs
// only when selected explicitly and alone — it is a soak, not an
// experiment table:
//
//	benchmed -run sim -seed 7 -sim.rounds 2000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"medchain/internal/experiments"
	"medchain/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], experiments.All(), os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters. Exit codes:
// 0 every selected entry ran and verified, 1 an entry (or the soak)
// failed, 2 bad usage.
func run(args []string, all []experiments.Experiment, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runIDs := fs.String("run", "all", "comma-separated experiment ids, 'all', or 'sim' alone")
	quick := fs.Bool("quick", false, "reduced sweep sizes for a fast pass")
	seed := fs.Int64("seed", 1, "experiment seed")
	simRounds := fs.Int("sim.rounds", 2000, "fuzz/commit rounds for -run sim")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	selected, soak, err := selectEntries(*runIDs, all)
	if err != nil {
		fmt.Fprintf(stderr, "benchmed: %v\n", err)
		return 2
	}

	start := time.Now()
	if soak {
		if err := runSoak(stdout, stderr, *seed, *simRounds); err != nil {
			fmt.Fprintf(stderr, "benchmed: sim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "benchmed: sim soak green in %s\n", time.Since(start).Round(time.Millisecond))
		return 0
	}
	size := experiments.Full
	if *quick {
		size = experiments.Quick
	}
	if err := experiments.Run(stdout, selected, size, *seed); err != nil {
		fmt.Fprintf(stderr, "benchmed: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "benchmed: done in %s\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// selectEntries resolves a -run value against the registry: the chosen
// entries in registry order, or soak for `sim` on its own. An unknown id,
// and `sim` mixed with anything else, is an error naming the valid ids.
func selectEntries(runIDs string, all []experiments.Experiment) (selected []experiments.Experiment, soak bool, err error) {
	valid := []string{"all", "sim"}
	for _, e := range all {
		valid = append(valid, strings.ToLower(e.ID))
	}
	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToLower(runIDs), ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(valid, id) {
			return nil, false, fmt.Errorf("unknown experiment id %q; valid ids: %s", id, strings.Join(valid, " "))
		}
		want[id] = true
	}
	if want["sim"] {
		if len(want) > 1 {
			return nil, false, fmt.Errorf("'sim' is a soak and runs alone, not with experiment ids; valid ids: %s", strings.Join(valid, " "))
		}
		return nil, true, nil
	}
	for _, e := range all {
		if want["all"] || want[strings.ToLower(e.ID)] {
			selected = append(selected, e)
		}
	}
	return selected, false, nil
}

// runSoak is `-run sim`: one fault-injected fuzz run under the
// invariant checkers, its totals on stdout, a counterexample on stderr.
func runSoak(stdout, stderr io.Writer, seed int64, rounds int) error {
	res, err := sim.Run(sim.Config{Seed: seed, Rounds: rounds})
	if res != nil {
		fmt.Fprintf(stdout, "sim soak: seed=%d rounds=%d\n", res.Seed, res.Rounds)
		fmt.Fprintf(stdout, "  blocks=%d txs=%d failedTxs=%d failedRounds=%d\n", res.Blocks, res.Txs, res.FailedTxs, res.FailedRounds)
		fmt.Fprintf(stdout, "  checks=%d offchainRuns=%d gas=%d faultsInjected=%d\n", res.Checks, res.OffchainRuns, res.GasUsed, len(res.FaultLog))
	}
	if err != nil && res != nil && res.Counterexample != nil {
		fmt.Fprintf(stderr, "counterexample:\n%s\n", res.Counterexample)
	}
	return err
}
