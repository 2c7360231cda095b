// Command benchmed runs the paper-reproduction experiment suite
// (DESIGN.md §4: E1–E9 core experiments and A1–A4 ablations) and prints
// the result tables. Use -run to select a subset:
//
//	benchmed                # everything (a few minutes)
//	benchmed -run e1,e2     # just the chain experiments
//	benchmed -quick         # reduced sweep sizes (~30s)
//
// `-run sim` is the deterministic-simulation soak mode (E11): it fuzzes
// a full fault-injected cluster for -sim.rounds rounds under the
// internal/sim invariant checkers and exits non-zero on any violation,
// printing the minimized counterexample and its replay command. It runs
// only when selected explicitly — it is a soak, not an experiment
// table:
//
//	benchmed -run sim -seed 7 -sim.rounds 2000
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"medchain/internal/experiments"
	"medchain/internal/sim"
)

// validIDs is everything -run accepts.
var validIDs = []string{
	"all", "sim",
	"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
	"e12", "e13", "e14", "e15", "e16", "e17",
	"a1", "a2", "a3", "a4",
}

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids (e1..e10,e12..e17,a1..a4), 'all', or 'sim'")
	quick := flag.Bool("quick", false, "reduced sweep sizes for a fast pass")
	seed := flag.Int64("seed", 1, "experiment seed")
	simRounds := flag.Int("sim.rounds", 2000, "fuzz/commit rounds for -run sim")
	flag.Parse()

	selected := map[string]bool{}
	for _, id := range strings.Split(strings.ToLower(*run), ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(validIDs, id) {
			fmt.Fprintf(os.Stderr, "benchmed: unknown experiment id %q; valid ids: %s\n", id, strings.Join(validIDs, " "))
			os.Exit(2)
		}
		selected[id] = true
	}
	want := func(id string) bool { return selected["all"] || selected[id] }

	start := time.Now()
	fail := func(id string, err error) {
		fmt.Fprintf(os.Stderr, "benchmed: %s: %v\n", id, err)
		os.Exit(1)
	}

	if selected["sim"] {
		res, err := sim.Run(sim.Config{Seed: *seed, Rounds: *simRounds})
		if res != nil {
			fmt.Printf("sim soak: seed=%d rounds=%d\n", res.Seed, res.Rounds)
			fmt.Printf("  blocks=%d txs=%d failedTxs=%d failedRounds=%d\n", res.Blocks, res.Txs, res.FailedTxs, res.FailedRounds)
			fmt.Printf("  checks=%d offchainRuns=%d gas=%d faultsInjected=%d\n", res.Checks, res.OffchainRuns, res.GasUsed, len(res.FaultLog))
		}
		if err != nil {
			if res != nil && res.Counterexample != nil {
				fmt.Fprintf(os.Stderr, "counterexample:\n%s\n", res.Counterexample)
			}
			fail("sim", err)
		}
		fmt.Printf("benchmed: sim soak green in %s\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if want("e1") {
		cfg := experiments.E1Config{Seed: *seed}
		if *quick {
			cfg.NodeCounts = []int{1, 2, 4, 8}
			cfg.TxPerRun = 4
		}
		rows, err := experiments.E1Scalability(cfg)
		if err != nil {
			fail("e1", err)
		}
		fmt.Println(experiments.TableE1(rows))
	}
	if want("e2") {
		cfg := experiments.E2Config{Seed: *seed}
		if *quick {
			cfg.NodeCounts = []int{1, 2, 4}
			cfg.Contracts = 2
		}
		rows, err := experiments.E2DuplicatedCompute(cfg)
		if err != nil {
			fail("e2", err)
		}
		fmt.Println(experiments.TableE2(rows))
	}
	if want("e3") {
		cfg := experiments.E3Config{Seed: *seed}
		if *quick {
			cfg.SiteCounts = []int{1, 2, 4}
			cfg.TotalPatients = 1200
			cfg.Repeats = 2
		}
		rows, err := experiments.E3ParallelSpeedup(cfg)
		if err != nil {
			fail("e3", err)
		}
		fmt.Println(experiments.TableE3(rows))
	}
	if want("e4") {
		cfg := experiments.E4Config{Seed: *seed}
		if *quick {
			cfg.PatientsPerSite = []int{50, 100}
		}
		rows, err := experiments.E4DataMovement(cfg)
		if err != nil {
			fail("e4", err)
		}
		fmt.Println(experiments.TableE4(rows))
	}
	if want("e5") {
		cfg := experiments.E5Config{Seed: *seed}
		if *quick {
			cfg.SiteCounts = []int{1, 2, 4, 8}
			cfg.PatientsPerSite = 100
		}
		rows, err := experiments.E5Integration(cfg)
		if err != nil {
			fail("e5", err)
		}
		fmt.Println(experiments.TableE5(rows))
	}
	if want("e6") {
		cfg := experiments.E6Config{Seed: *seed}
		if *quick {
			cfg.Sites = 4
			cfg.PatientsPerSite = 120
			cfg.Rounds = 12
			cfg.HoldoutPatients = 600
			cfg.TransferSizes = []int{40, 80}
		}
		rows, transfers, err := experiments.E6Federated(cfg)
		if err != nil {
			fail("e6", err)
		}
		fmt.Println(experiments.TableE6(rows))
		fmt.Println(experiments.TableE6Transfer(transfers))
	}
	if want("e7") {
		res, err := experiments.E7TrialIntegrity(experiments.E7Config{Seed: *seed})
		if err != nil {
			fail("e7", err)
		}
		fmt.Println(experiments.TableE7(res))
	}
	if want("e8") {
		cfg := experiments.E8Config{Seed: *seed}
		if *quick {
			cfg.Exchanges = 10
		}
		rows, err := experiments.E8HIE(cfg)
		if err != nil {
			fail("e8", err)
		}
		fmt.Println(experiments.TableE8(rows))
	}
	if want("e9") {
		cfg := experiments.E9Config{Seed: *seed}
		if *quick {
			cfg.Rounds = 5
			cfg.CommitTimeout = time.Second
		}
		rows, err := experiments.E9Availability(cfg)
		if err != nil {
			fail("e9", err)
		}
		fmt.Println(experiments.TableE9(rows))
	}
	if want("e10") {
		cfg := experiments.E10Config{Seed: *seed}
		if *quick {
			cfg.Workers = []int{1, 2, 4}
			cfg.ConflictRates = []float64{0, 0.5, 1}
			cfg.Txs = 128
			cfg.Repeats = 2
		}
		rows, err := experiments.E10ParallelExec(cfg)
		if err != nil {
			fail("e10", err)
		}
		fmt.Println(experiments.TableE10(rows))
		if err := experiments.E10Verify(rows); err != nil {
			fail("e10", err)
		}
	}
	if want("e12") {
		cfg := experiments.E12Config{Seed: *seed}
		if *quick {
			cfg.ChainLengths = []int{32, 128}
			cfg.SyncBlocks = 128
			cfg.Repeats = 2
		}
		recovery, syncRows, err := experiments.E12Durability(cfg)
		if err != nil {
			fail("e12", err)
		}
		fmt.Println(experiments.TableE12Recovery(recovery))
		fmt.Println(experiments.TableE12Sync(syncRows))
		if err := experiments.E12Verify(recovery); err != nil {
			fail("e12", err)
		}
	}
	if want("e13") {
		cfg := experiments.E13Config{Seed: *seed}
		if *quick {
			cfg.Rounds = 60
		}
		rows, err := experiments.E13Resilience(cfg)
		if err != nil {
			fail("e13", err)
		}
		fmt.Println(experiments.TableE13(rows))
		if err := experiments.E13Verify(rows); err != nil {
			fail("e13", err)
		}
	}
	if want("e14") {
		cfg := experiments.E14Config{Seed: *seed}
		if *quick {
			cfg.Multipliers = []float64{1, 10}
			cfg.Duration = 300 * time.Millisecond
		}
		rows, err := experiments.E14Overload(cfg)
		if err != nil {
			fail("e14", err)
		}
		fmt.Println(experiments.TableE14(rows))
		if err := experiments.E14Verify(cfg, rows); err != nil {
			fail("e14", err)
		}
	}
	if want("e15") {
		cfg := experiments.E15Config{Seed: *seed}
		if *quick {
			cfg.IngestRounds = 2
			cfg.IngestBatch = 40
			cfg.CorpusSizes = []int{2_000, 8_000}
			cfg.QueryRepeats = 20
		}
		fresh, err := experiments.E15Freshness(cfg)
		if err != nil {
			fail("e15", err)
		}
		queries, err := experiments.E15QueryScaling(cfg)
		if err != nil {
			fail("e15", err)
		}
		fmt.Println(experiments.TableE15Freshness(fresh))
		fmt.Println(experiments.TableE15Query(queries))
		if err := experiments.E15Verify(cfg, fresh, queries); err != nil {
			fail("e15", err)
		}
	}
	if want("e16") {
		cfg := experiments.E16Config{Seed: *seed}
		if *quick {
			cfg.ShardCounts = []int{1, 2, 4}
			cfg.Rounds = 2
			cfg.TxsPerShard = 4
			cfg.CrossTransfers = 8
			cfg.ContainRounds = 10
		}
		scale, err := experiments.E16Scaling(cfg)
		if err != nil {
			fail("e16", err)
		}
		cross, err := experiments.E16Cross(cfg)
		if err != nil {
			fail("e16", err)
		}
		contain, err := experiments.E16Containment(cfg)
		if err != nil {
			fail("e16", err)
		}
		fmt.Println(experiments.TableE16Scale(scale))
		fmt.Println(experiments.TableE16Cross(cross))
		fmt.Println(experiments.TableE16Contain(contain))
		if err := experiments.E16Verify(cfg, scale, cross, contain); err != nil {
			fail("e16", err)
		}
	}
	if want("e17") {
		cfg := experiments.E17Config{Seed: *seed}
		if *quick {
			cfg.ChainLengths = []int{4, 8}
			cfg.DatasetCounts = []int{8, 16}
		}
		recov, err := experiments.E17Recovery(cfg)
		if err != nil {
			fail("e17", err)
		}
		reshard, err := experiments.E17Reshard(cfg)
		if err != nil {
			fail("e17", err)
		}
		failover, err := experiments.E17Failover(cfg)
		if err != nil {
			fail("e17", err)
		}
		fmt.Println(experiments.TableE17Recover(recov))
		fmt.Println(experiments.TableE17Reshard(reshard))
		fmt.Println(experiments.TableE17Failover(failover))
		if err := experiments.E17Verify(cfg, recov, reshard, failover); err != nil {
			fail("e17", err)
		}
	}
	if want("a1") {
		rows, err := experiments.A1Consensus(experiments.A1Config{Seed: *seed})
		if err != nil {
			fail("a1", err)
		}
		fmt.Println(experiments.TableA1(rows))
	}
	if want("a2") {
		cfg := experiments.A2Config{Seed: *seed}
		if *quick {
			cfg.Events = 80
		}
		rows, err := experiments.A2OracleBatch(cfg)
		if err != nil {
			fail("a2", err)
		}
		fmt.Println(experiments.TableA2(rows))
	}
	if want("a3") {
		rows, err := experiments.A3SecureAgg(experiments.A3Config{Seed: *seed})
		if err != nil {
			fail("a3", err)
		}
		fmt.Println(experiments.TableA3(rows))
	}
	if want("a4") {
		cfg := experiments.A4Config{Seed: *seed}
		if *quick {
			cfg.TotalNodes = 4
			cfg.ShardCounts = []int{1, 2}
			cfg.Txs = 4
		}
		rows, err := experiments.A4Sharding(cfg)
		if err != nil {
			fail("a4", err)
		}
		fmt.Println(experiments.TableA4(rows))
	}
	fmt.Printf("benchmed: done in %s\n", time.Since(start).Round(time.Millisecond))
}
