// Package experiments is the reproduction harness: one registry entry
// per experiment in DESIGN.md §4 — E1–E8, E10 and E15, and the
// ablations A1–A4 (E11 is the `benchmed -run sim` soak and lives in
// internal/sim). Storage and shard mechanics are not entries: bench/
// measures them and the internal/store, internal/shard and sharded-sim
// tests hold their bars. Nor are availability under faults, Byzantine
// resilience and overload: the internal/chaos scenario tests and
// internal/sim's adversary and overload tests hold theirs. cmd/benchmed, the root BenchmarkExperiments, the
// package tests and the CI smoke step all iterate All(), so they run
// the same sweeps, print the same tables and enforce the same bars.
//
// The paper (ICDCS 2018) is a vision paper without measurement tables;
// these experiments quantify each of its testable claims on the
// simulated substrate — see DESIGN.md §4 for the claim-to-experiment
// mapping and EXPERIMENTS.md for recorded results.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Size selects one of the two parameter sets every experiment carries.
type Size int

const (
	// Full is the sweep EXPERIMENTS.md records.
	Full Size = iota
	// Quick is the reduced sweep of `benchmed -quick`, the benchmark and
	// the tests: seconds instead of minutes, under the same verify bars.
	Quick
)

// Table is one result table as data; String renders it in the
// paper-shaped format EXPERIMENTS.md records.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the title, the header, a separator and the rows with
// padded columns.
func (t Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < width[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range width {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// column is one table column: its header and how a row fills it.
type column[R any] struct {
	head string
	cell func(R) string
}

// tabulate renders rows through a column spec.
func tabulate[R any](title string, rows []R, cols []column[R]) Table {
	t := Table{Title: title, Header: make([]string, len(cols)), Rows: make([][]string, len(rows))}
	for j, c := range cols {
		t.Header[j] = c.head
	}
	for i, r := range rows {
		t.Rows[i] = make([]string, len(cols))
		for j, c := range cols {
			t.Rows[i][j] = c.cell(r)
		}
	}
	return t
}

// Experiment is one registry entry.
type Experiment struct {
	// ID is the experiment's name in DESIGN.md §4 and EXPERIMENTS.md
	// ("E1" … "A4"); `benchmed -run` takes it in lower case.
	ID string
	// Claim is what the entry's verify step holds the measured rows to.
	Claim string
	// Run executes the sweep at one size with the caller's seed used as
	// given, verifies the result against Claim, and returns the tables.
	// A harness failure returns no tables; a failed verify step returns
	// the tables of the sweep that contradicted the claim and the error.
	Run func(size Size, seed int64) ([]Table, error)
}

// All returns the registry in DESIGN.md §4 order.
func All() []Experiment {
	return []Experiment{
		{"E1", "§I: throughput falls and per-transaction broadcast cost rises with node count; one node beats N", runE1},
		{"E2", "§I: replicated contract execution burns N x the useful gas; the transformed chain burns only policy gas", runE2},
		{"E3", "Fig. 1, §III: transformed latency falls with sites while the duplicated baseline stays flat", runE3},
		{"E4", "§IV: compute-to-data moves results, not records — orders of magnitude fewer bytes, and the gap grows with data", runE4},
		{"E5", "Fig. 3, §III.A: silos in different legacy formats map losslessly into one virtual data set that grows with sites", runE5},
		{"E6", "§III.C: FedAvg matches centralized training, secure aggregation changes nothing, transfer learning jump-starts small sites", runE6},
		{"E7", "§III.B: anchored protocols and results make every outcome switch and every result tampering detectable", runE7},
		{"E8", "Fig. 2, §III.B: the blockchain HIE audits and policy-gates every exchange; legacy e-mail does neither", runE8},
		{"E10", "§I, §III: blocks apply in parallel with state root and receipts bit-identical to serial, the whole batch on the parallel path", runE10},
		{"E15", "§IV, Fig. 5: the chain-tailing index agrees exactly with a full blob scan and answers >= 10x faster", runE15},
		{"A1", "ablation: PoW burns hash work the permissioned engines (PoA, PoS, quorum) do not", runA1},
		{"A2", "ablation: batched monitor-node dispatch makes fewer handler calls and finishes sooner", runA2},
		{"A3", "ablation: pairwise-masked aggregation equals plain weighted averaging", runA3},
		{"A4", "§I related work: sharded validation raises throughput but keeps committee-size execution waste", runA4},
	}
}

// Run executes entries in order at one size and seed and prints every
// table an entry returned — also those of a sweep whose verify step
// failed, so a contradiction of the paper is shown and not only named.
// It stops at the first entry that fails.
func Run(w io.Writer, entries []Experiment, size Size, seed int64) error {
	for _, e := range entries {
		tables, err := e.Run(size, seed)
		for _, t := range tables {
			fmt.Fprintln(w, t)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", strings.ToLower(e.ID), err)
		}
	}
	return nil
}
