package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/store"
)

// --- E12: durable storage engine ---
//
// A global precision-medicine chain is only as trustworthy as each
// site's durable copy of it: hospital nodes crash, and what they
// recover from disk must be exactly what the quorum committed. E12
// measures the storage engine (internal/store) on three axes:
//
//   - recovery time vs chain length, cold (full WAL replay through the
//     contract state machine) against snapshot-accelerated (newest
//     snapshot + WAL suffix), verifying on every cell that the
//     recovered state root equals the committed header root;
//   - fsync-batching throughput: blocks/s appended at group-commit
//     batch sizes swept over SyncBatches, quantifying what the bounded
//     durability window buys;
//   - write amplification: bytes reaching the disk (WAL framing plus
//     periodic snapshots) over raw block payload bytes, metered by a
//     zero-fault store.FaultFS.
//
// Everything runs on store.MemFS, so the numbers isolate engine
// overhead (framing, checksums, serialization, durable-copy syncs)
// from hardware.

// e12ChainID isolates E12's ledgers.
const e12ChainID = "medchain-e12"

// e12Config is the durability sweeps.
type e12Config struct {
	// ChainLengths are the block counts for the recovery sweep.
	ChainLengths []int
	// SyncBlocks is the chain length for the fsync sweep.
	SyncBlocks int
	// Repeats is how many timed runs each cell takes; the minimum is
	// reported.
	Repeats int
}

var e12Sizes = [...]e12Config{
	Full:  {ChainLengths: []int{32, 128, 512}, SyncBlocks: 256, Repeats: 3},
	Quick: {ChainLengths: []int{16, 64}, SyncBlocks: 64, Repeats: 1},
}

const (
	// e12TxsPerBlock sizes each block.
	e12TxsPerBlock = 4
	// e12SnapshotEvery is the snapshot cadence on the snapshot-assisted
	// path and the write-amplification sweep.
	e12SnapshotEvery = 32
)

// e12SyncBatches are the group-commit batch sizes for the fsync
// throughput sweep.
var e12SyncBatches = []int{1, 8, 64}

// e12RecoveryRow is one chain length in the recovery-time sweep.
type e12RecoveryRow struct {
	// Blocks is the chain length; Txs the transactions replayed.
	Blocks, Txs int
	// WALBytes is the on-disk frame log size.
	WALBytes int64
	// Cold is recovery by full WAL replay (no snapshot on disk).
	Cold time.Duration
	// Snap is recovery from the newest snapshot plus the WAL suffix.
	Snap time.Duration
	// SnapHeight is the snapshot the fast path started from, and
	// Replayed the WAL blocks it still had to execute.
	SnapHeight uint64
	Replayed   int
	// Match reports both recoveries reproduced the committed state
	// root exactly.
	Match bool
}

// e12SyncRow is one group-commit batch size in the fsync sweep.
type e12SyncRow struct {
	// SyncEvery is the group-commit batch; Blocks the appended count.
	SyncEvery, Blocks int
	// Elapsed is the append+sync wall time (min over repeats).
	Elapsed time.Duration
	// BlocksPerSec is the resulting append throughput.
	BlocksPerSec float64
	// Syncs is how many fsyncs the run cost.
	Syncs int64
	// Written is bytes that reached the disk (frames + snapshots);
	// Payload is raw encoded block bytes; WriteAmp their ratio.
	Written, Payload int64
	WriteAmp         float64
}

// e12Chain builds n sequential blocks of register_dataset txs with
// honest post-execution state roots — the committed-chain workload the
// storage engine sees — plus the final serial state as oracle.
func e12Chain(seed int64, n int) ([]*ledger.Block, *contract.State, error) {
	kp, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("e12-%d", seed))
	if err != nil {
		return nil, nil, err
	}
	state := contract.NewState()
	parent := ledger.NewGenesis(e12ChainID)
	blocks := make([]*ledger.Block, 0, n)
	nonce := uint64(0)
	for i := 0; i < n; i++ {
		height := uint64(i + 1)
		ts := int64(i + 1)
		txs := make([]*ledger.Transaction, 0, e12TxsPerBlock)
		for j := 0; j < e12TxsPerBlock; j++ {
			args, err := json.Marshal(contract.RegisterDatasetArgs{
				ID:     fmt.Sprintf("d-%d-%d", i, j),
				Digest: cryptoutil.Sum([]byte(fmt.Sprintf("%d/%d/%d", seed, i, j))),
				Schema: "cdf/v1", Records: 10 + i, SiteID: fmt.Sprintf("site-%d", j),
			})
			if err != nil {
				return nil, nil, err
			}
			tx := &ledger.Transaction{
				Type: ledger.TxData, Nonce: nonce, Method: "register_dataset",
				Args: args, Timestamp: ts,
			}
			if err := tx.Sign(kp); err != nil {
				return nil, nil, err
			}
			nonce++
			txs = append(txs, tx)
		}
		blk := &ledger.Block{
			Header: ledger.Header{
				Height: height, Parent: parent.Hash(),
				Timestamp: ts, Proposer: kp.Address(),
			},
			Txs: txs,
		}
		root, err := ledger.ComputeTxRoot(txs)
		if err != nil {
			return nil, nil, err
		}
		blk.Header.TxRoot = root
		for _, tx := range txs {
			if _, err := state.Apply(tx, height, ts); err != nil {
				return nil, nil, err
			}
		}
		blk.Header.StateRoot = state.Root()
		blocks = append(blocks, blk)
		parent = blk
	}
	return blocks, state, nil
}

// e12Seed writes blocks through a store onto fs the way a node does —
// append, execute, snapshot when due — then syncs and closes.
func e12Seed(fs store.FS, blocks []*ledger.Block, snapshotEvery, syncEvery int) error {
	st, rec, err := store.Open(store.Options{
		FS: fs, Dir: "data", ChainID: e12ChainID,
		SyncEvery: syncEvery, SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		return err
	}
	chain, state, receipts := rec.Chain, rec.State, rec.Receipts
	for _, blk := range blocks {
		if err := st.AppendBlock(blk); err != nil {
			return err
		}
		for _, tx := range blk.Txs {
			r, err := state.Apply(tx, blk.Header.Height, blk.Header.Timestamp)
			if err != nil {
				return err
			}
			receipts = append(receipts, r)
		}
		if err := chain.Append(blk); err != nil {
			return err
		}
		if _, err := st.MaybeSnapshot(chain, state, receipts, false); err != nil {
			return err
		}
	}
	if err := st.Sync(); err != nil {
		return err
	}
	return st.Close()
}

// e12Recover times one store.Open and returns the recovery report.
func e12Recover(fs store.FS) (*store.Recovered, time.Duration, int64, error) {
	start := time.Now()
	st, rec, err := store.Open(store.Options{FS: fs, Dir: "data", ChainID: e12ChainID})
	if err != nil {
		return nil, 0, 0, err
	}
	elapsed := time.Since(start)
	wal := st.WALSize()
	return rec, elapsed, wal, st.Close()
}

// e12Durability runs both sweeps. Determinism violations surface as
// Match=false rows; verifyE12 turns them into a hard failure.
func e12Durability(cfg e12Config, seed int64) ([]e12RecoveryRow, []e12SyncRow, error) {
	var recovery []e12RecoveryRow
	for _, n := range cfg.ChainLengths {
		blocks, oracle, err := e12Chain(seed, n)
		if err != nil {
			return nil, nil, err
		}
		cold := store.NewMemFS()
		if err := e12Seed(cold, blocks, 0, 1); err != nil {
			return nil, nil, err
		}
		snap := store.NewMemFS()
		if err := e12Seed(snap, blocks, e12SnapshotEvery, 1); err != nil {
			return nil, nil, err
		}
		row := e12RecoveryRow{Blocks: n, Txs: n * e12TxsPerBlock, Match: true}
		for rep := 0; rep < cfg.Repeats; rep++ {
			recC, dC, wal, err := e12Recover(cold)
			if err != nil {
				return nil, nil, err
			}
			recS, dS, _, err := e12Recover(snap)
			if err != nil {
				return nil, nil, err
			}
			if rep == 0 || dC < row.Cold {
				row.Cold = dC
			}
			if rep == 0 || dS < row.Snap {
				row.Snap = dS
			}
			row.WALBytes = wal
			row.SnapHeight = recS.SnapshotHeight
			row.Replayed = recS.ReplayedBlocks
			want := oracle.Root()
			if recC.Height != uint64(n) || recS.Height != uint64(n) ||
				recC.State.Root() != want || recS.State.Root() != want {
				row.Match = false
			}
		}
		recovery = append(recovery, row)
	}

	blocks, _, err := e12Chain(seed, cfg.SyncBlocks)
	if err != nil {
		return nil, nil, err
	}
	var payload int64
	for _, blk := range blocks {
		enc, err := blk.Encode()
		if err != nil {
			return nil, nil, err
		}
		payload += int64(len(enc))
	}
	var sync []e12SyncRow
	for _, batch := range e12SyncBatches {
		row := e12SyncRow{SyncEvery: batch, Blocks: cfg.SyncBlocks, Payload: payload}
		for rep := 0; rep < cfg.Repeats; rep++ {
			meter := store.NewFaultFS(store.NewMemFS(), store.FaultConfig{})
			start := time.Now()
			if err := e12Seed(meter, blocks, e12SnapshotEvery, batch); err != nil {
				return nil, nil, err
			}
			elapsed := time.Since(start)
			if rep == 0 || elapsed < row.Elapsed {
				row.Elapsed = elapsed
			}
			row.Syncs = meter.Syncs()
			row.Written = meter.BytesWritten()
		}
		if row.Elapsed > 0 {
			row.BlocksPerSec = float64(cfg.SyncBlocks) / row.Elapsed.Seconds()
		}
		if payload > 0 {
			row.WriteAmp = float64(row.Written) / float64(payload)
		}
		sync = append(sync, row)
	}
	return recovery, sync, nil
}

// verifyE12 holds the durability bars: both recoveries of every chain
// length reproduce the committed root and did real work; the longest
// chain's fast path starts from a snapshot instead of replaying the
// whole log; group commit cuts fsyncs; and framing plus snapshots
// amplify writes above the raw payload.
func verifyE12(recovery []e12RecoveryRow, sync []e12SyncRow) error {
	for _, r := range recovery {
		if !r.Match {
			return fmt.Errorf("experiments: e12 recovery divergence at %d blocks", r.Blocks)
		}
		if r.WALBytes == 0 || r.Cold == 0 || r.Snap == 0 {
			return fmt.Errorf("experiments: e12: vacuous recovery row %+v", r)
		}
	}
	if longest := recovery[len(recovery)-1]; longest.SnapHeight == 0 || longest.Replayed >= longest.Blocks {
		return fmt.Errorf("experiments: e12: snapshot path did not accelerate: %+v", longest)
	}
	if every, batched := sync[0], sync[len(sync)-1]; every.Syncs <= batched.Syncs {
		return fmt.Errorf("experiments: e12: syncEvery=%d cost %d fsyncs, syncEvery=%d cost %d",
			every.SyncEvery, every.Syncs, batched.SyncEvery, batched.Syncs)
	}
	for _, r := range sync {
		if r.WriteAmp <= 1.0 {
			return fmt.Errorf("experiments: e12: write amplification %.2f <= 1 at syncEvery=%d", r.WriteAmp, r.SyncEvery)
		}
	}
	return nil
}

var e12RecoveryColumns = []column[e12RecoveryRow]{
	{"blocks", func(r e12RecoveryRow) string { return fmt.Sprint(r.Blocks) }},
	{"txs", func(r e12RecoveryRow) string { return fmt.Sprint(r.Txs) }},
	{"walBytes", func(r e12RecoveryRow) string { return fmt.Sprint(r.WALBytes) }},
	{"cold", func(r e12RecoveryRow) string { return fmtDur(r.Cold) }},
	{"snapshot", func(r e12RecoveryRow) string { return fmtDur(r.Snap) }},
	{"speedup", func(r e12RecoveryRow) string {
		if r.Snap == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", float64(r.Cold)/float64(r.Snap))
	}},
	{"snapHeight", func(r e12RecoveryRow) string { return fmt.Sprint(r.SnapHeight) }},
	{"replayed", func(r e12RecoveryRow) string { return fmt.Sprint(r.Replayed) }},
	{"match", func(r e12RecoveryRow) string { return fmt.Sprint(r.Match) }},
}

var e12SyncColumns = []column[e12SyncRow]{
	{"syncEvery", func(r e12SyncRow) string { return fmt.Sprint(r.SyncEvery) }},
	{"blocks", func(r e12SyncRow) string { return fmt.Sprint(r.Blocks) }},
	{"elapsed", func(r e12SyncRow) string { return fmtDur(r.Elapsed) }},
	{"blocks/s", func(r e12SyncRow) string { return fmt.Sprintf("%.0f", r.BlocksPerSec) }},
	{"fsyncs", func(r e12SyncRow) string { return fmt.Sprint(r.Syncs) }},
	{"written", func(r e12SyncRow) string { return fmt.Sprint(r.Written) }},
	{"payload", func(r e12SyncRow) string { return fmt.Sprint(r.Payload) }},
	{"writeAmp", func(r e12SyncRow) string { return fmt.Sprintf("%.2f", r.WriteAmp) }},
}

func runE12(size Size, seed int64) ([]Table, error) {
	recovery, sync, err := e12Durability(e12Sizes[size], seed)
	if err != nil {
		return nil, err
	}
	return []Table{
		tabulate("E12 Crash recovery: full WAL replay vs snapshot + suffix (recovered root must match committed root)", recovery, e12RecoveryColumns),
		tabulate("E12 Group-commit fsync batching: append throughput and write amplification vs batch size", sync, e12SyncColumns),
	}, verifyE12(recovery, sync)
}
