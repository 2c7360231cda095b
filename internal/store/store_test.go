package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"medchain/internal/canonjson/canontest"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

const testChainID = "store-test"

// buildBlocks makes n sequential blocks, one register_dataset tx each,
// with honest post-execution state roots — exactly what a committed
// chain hands the storage engine. Returns the blocks and the final
// serial state (the recovery oracle).
func buildBlocks(t testing.TB, chainID string, n int) ([]*ledger.Block, *contract.State) {
	t.Helper()
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 1
	}
	return buildChain(t, chainID, sizes)
}

// storeKey is the key every test transaction is signed with.
func storeKey(t testing.TB) *cryptoutil.KeyPair {
	t.Helper()
	kp, err := cryptoutil.DeriveKeyPair("store-test-user")
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

// buildChain is buildBlocks with sizes[i] transactions in block i+1.
func buildChain(t testing.TB, chainID string, sizes []int) ([]*ledger.Block, *contract.State) {
	t.Helper()
	kp := storeKey(t)
	state := contract.NewState()
	parent := ledger.NewGenesis(chainID)
	blocks := make([]*ledger.Block, 0, len(sizes))
	nonce := 0
	for i, size := range sizes {
		blk := &ledger.Block{
			Header: ledger.Header{
				Height: uint64(i + 1), Parent: parent.Hash(),
				Timestamp: int64(i + 1), Proposer: kp.Address(),
			},
		}
		for ; size > 0; size-- {
			args, err := json.Marshal(contract.RegisterDatasetArgs{
				ID: fmt.Sprintf("d-%d", nonce), Digest: cryptoutil.Sum([]byte{byte(nonce)}),
				Schema: "cdf/v1", Records: 10 + nonce, SiteID: "site",
			})
			if err != nil {
				t.Fatal(err)
			}
			tx := &ledger.Transaction{
				Type: ledger.TxData, Nonce: uint64(nonce), Method: "register_dataset",
				Args: args, Timestamp: int64(nonce + 1),
			}
			if err := tx.Sign(kp); err != nil {
				t.Fatal(err)
			}
			if _, err := state.Apply(tx, blk.Header.Height, blk.Header.Timestamp); err != nil {
				t.Fatal(err)
			}
			blk.Txs = append(blk.Txs, tx)
			nonce++
		}
		reroot(t, blk)
		blk.Header.StateRoot = state.Root()
		blocks = append(blocks, blk)
		parent = blk
	}
	return blocks, state
}

// reroot makes blk's header commit to the transactions it now holds.
func reroot(t testing.TB, blk *ledger.Block) {
	t.Helper()
	root, err := ledger.ComputeTxRoot(blk.Txs)
	if err != nil {
		t.Fatal(err)
	}
	blk.Header.TxRoot = root
}

// seedStore writes blocks through a Store onto fs the way a node
// does — append, execute, snapshot when due — and shuts down
// gracefully (synced before close).
func seedStore(t testing.TB, fs FS, dir string, blocks []*ledger.Block, opts Options) {
	t.Helper()
	opts.FS, opts.Dir, opts.ChainID = fs, dir, testChainID
	st, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	chain, state, receipts := rec.Chain, rec.State, rec.Receipts
	for _, blk := range blocks {
		if err := st.AppendBlock(blk); err != nil {
			t.Fatalf("append %d: %v", blk.Header.Height, err)
		}
		for _, tx := range blk.Txs {
			r, err := state.Apply(tx, blk.Header.Height, blk.Header.Timestamp)
			if err != nil {
				t.Fatal(err)
			}
			receipts = append(receipts, r)
		}
		if err := chain.Append(blk); err != nil {
			t.Fatal(err)
		}
		if _, err := st.MaybeSnapshot(chain, state, receipts, false); err != nil {
			t.Fatalf("snapshot at %d: %v", blk.Header.Height, err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// walBytes reads the raw WAL file.
func walBytes(t testing.TB, fs FS, dir string) []byte {
	t.Helper()
	b, err := ReadFile(fs, Join(dir, WALName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// corruptWAL rewrites one byte of the WAL file at off.
func corruptWAL(t testing.TB, fs FS, dir string, off int64, b byte) {
	t.Helper()
	f, err := fs.OpenFile(Join(dir, WALName), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{b}, off); err != nil {
		t.Fatal(err)
	}
}

// rewriteWAL replaces the WAL with one CRC-valid frame per block, as the
// blocks encode now — so a defect put into a block reaches Open's replay
// instead of dying at the frame checksum.
func rewriteWAL(t testing.TB, fs FS, dir string, blocks []*ledger.Block) {
	t.Helper()
	writeFrames(t, fs, dir, encodeBlocks(blocks))
}

// encodeBlocks returns each block's encoding, a WAL frame's payload.
func encodeBlocks(blocks []*ledger.Block) [][]byte {
	payloads := make([][]byte, len(blocks))
	for i, blk := range blocks {
		payloads[i], _ = blk.Encode()
	}
	return payloads
}

// writeFrames replaces the WAL with one CRC-valid frame per payload.
func writeFrames(t testing.TB, fs FS, dir string, payloads [][]byte) {
	t.Helper()
	var raw []byte
	for _, payload := range payloads {
		var hdr [frameHeaderSize]byte
		writeFrameHeader(hdr[:], payload)
		raw = append(append(raw, hdr[:]...), payload...)
	}
	if err := writeFileAtomic(fs, Join(dir, WALName), raw); err != nil {
		t.Fatal(err)
	}
}

// truncateWAL chops the WAL file to size.
func truncateWAL(t testing.TB, fs FS, dir string, size int64) {
	t.Helper()
	f, err := fs.OpenFile(Join(dir, WALName), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBlockSequencing(t *testing.T) {
	blocks, _ := buildBlocks(t, testChainID, 3)
	fs := NewMemFS()
	st, _, err := Open(Options{FS: fs, Dir: "n0", ChainID: testChainID})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.AppendBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	// Re-delivery of a stored height is idempotent, not an error.
	if err := st.AppendBlock(blocks[0]); err != nil {
		t.Fatalf("idempotent re-append errored: %v", err)
	}
	if got := st.Height(); got != 1 {
		t.Fatalf("height %d after duplicate append, want 1", got)
	}
	// A gap must be refused: the WAL's frame index IS the height.
	if err := st.AppendBlock(blocks[2]); err == nil {
		t.Fatal("gap append (height 3 after 1) accepted")
	}
	if err := st.AppendBlock(blocks[1]); err != nil {
		t.Fatal(err)
	}
}

// The snapshot fast path must land on the identical state, receipts,
// and gas as a full replay.
func TestSnapshotFastPathMatchesFullReplay(t *testing.T) {
	blocks, want := buildBlocks(t, testChainID, 9)

	full := NewMemFS()
	seedStore(t, full, "n0", blocks, Options{})
	snapped := NewMemFS()
	seedStore(t, snapped, "n0", blocks, Options{SnapshotEvery: 4})

	_, recFull, err := Open(Options{FS: full, Dir: "n0", ChainID: testChainID})
	if err != nil {
		t.Fatal(err)
	}
	_, recSnap, err := Open(Options{FS: snapped, Dir: "n0", ChainID: testChainID})
	if err != nil {
		t.Fatal(err)
	}
	if recSnap.SnapshotHeight == 0 {
		t.Fatal("snapshot store recovered without using a snapshot")
	}
	if recSnap.ReplayedBlocks >= len(blocks) || recSnap.ReplayedBlocks != int(recSnap.Height-recSnap.SnapshotHeight) {
		t.Fatalf("snapshot recovery from %d replayed %d blocks", recSnap.SnapshotHeight, recSnap.ReplayedBlocks)
	}
	if recFull.ReplayedBlocks != len(blocks) || recFull.Height != uint64(len(blocks)) || recSnap.Height != uint64(len(blocks)) {
		t.Fatalf("full replay %d blocks to height %d, snapshot path to height %d; want %d",
			recFull.ReplayedBlocks, recFull.Height, recSnap.Height, len(blocks))
	}
	if recFull.State.Root() != want.Root() || recSnap.State.Root() != want.Root() {
		t.Fatalf("recovered roots diverge: full %s snap %s want %s",
			recFull.State.Root(), recSnap.State.Root(), want.Root())
	}
	if recFull.GasUsed != recSnap.GasUsed {
		t.Fatalf("gas: full %d snap %d", recFull.GasUsed, recSnap.GasUsed)
	}
	if len(recFull.Receipts) != len(blocks) || len(recSnap.Receipts) != len(blocks) {
		t.Fatalf("receipts: full %d snap %d want %d", len(recFull.Receipts), len(recSnap.Receipts), len(blocks))
	}
	for i := range recFull.Receipts {
		a, _ := json.Marshal(recFull.Receipts[i])
		b, _ := json.Marshal(recSnap.Receipts[i])
		if string(a) != string(b) {
			t.Fatalf("receipt %d differs:\nfull %s\nsnap %s", i, a, b)
		}
	}
}

func TestSnapshotCadenceAndPruning(t *testing.T) {
	blocks, _ := buildBlocks(t, testChainID, 10)
	fs := NewMemFS()
	seedStore(t, fs, "n0", blocks, Options{SnapshotEvery: 3})
	heights, err := snapshotHeights(fs, "n0")
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots fell due at 3, 6, 9; pruning keeps the newest 2.
	if len(heights) != 2 || heights[0] != 6 || heights[1] != 9 {
		t.Fatalf("snapshot heights %v, want [6 9]", heights)
	}
}

// recoveryCase drives one entry of the edge-case table: set up a
// damaged (or empty) store directory, recover, check the outcome.
type recoveryCase struct {
	name string
	// blocks is how many committed blocks the WAL holds pre-damage.
	blocks int
	// opts used while seeding (snapshot cadence).
	seed Options
	// damage mutates the directory between shutdown and recovery.
	damage func(t *testing.T, fs FS, blocks []*ledger.Block)
	// wantErr, when true, expects recovery to fail with ErrCorrupt.
	wantErr bool
	// wantHeight is the height the CorruptError must name.
	wantHeight uint64
	// check runs on the successful recovery.
	check func(t *testing.T, rec *Recovered, blocks []*ledger.Block)
}

func TestRecoveryEdgeCases(t *testing.T) {
	cases := []recoveryCase{
		{
			name: "empty dir", blocks: 0,
			check: func(t *testing.T, rec *Recovered, _ []*ledger.Block) {
				if rec.Height != 0 || rec.ReplayedBlocks != 0 || rec.TruncatedBytes != 0 {
					t.Fatalf("empty dir recovered to height %d replay %d torn %d",
						rec.Height, rec.ReplayedBlocks, rec.TruncatedBytes)
				}
			},
		},
		{
			name: "wal only", blocks: 6,
			check: func(t *testing.T, rec *Recovered, blocks []*ledger.Block) {
				if rec.Height != 6 || rec.SnapshotHeight != 0 || rec.ReplayedBlocks != 6 {
					t.Fatalf("wal-only: height %d snap %d replayed %d", rec.Height, rec.SnapshotHeight, rec.ReplayedBlocks)
				}
				if rec.State.Root() != blocks[5].Header.StateRoot {
					t.Fatal("wal-only replay root mismatch")
				}
			},
		},
		{
			name: "snapshot only (wal deleted)", blocks: 6,
			seed: Options{SnapshotEvery: 3},
			damage: func(t *testing.T, fs FS, _ []*ledger.Block) {
				if err := fs.Remove(Join("n0", WALName)); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, rec *Recovered, _ []*ledger.Block) {
				// The WAL is the source of truth: with it gone, the
				// snapshot claims blocks that do not durably exist and
				// must be ignored — recovery lands on an empty chain
				// rather than inventing one.
				if !rec.SnapshotIgnored {
					t.Fatal("snapshot-without-wal was trusted")
				}
				if rec.Height != 0 {
					t.Fatalf("recovered to height %d from a snapshot with no wal", rec.Height)
				}
			},
		},
		{
			name: "torn final frame", blocks: 6,
			damage: func(t *testing.T, fs FS, _ []*ledger.Block) {
				raw := walBytes(t, fs, "n0")
				truncateWAL(t, fs, "n0", int64(len(raw)-3))
			},
			check: func(t *testing.T, rec *Recovered, blocks []*ledger.Block) {
				if rec.Height != 5 {
					t.Fatalf("torn tail: height %d, want 5", rec.Height)
				}
				if rec.TruncatedBytes == 0 {
					t.Fatal("torn tail not reported")
				}
				if rec.State.Root() != blocks[4].Header.StateRoot {
					t.Fatal("torn-tail replay root mismatch")
				}
			},
		},
		{
			name: "corrupt crc mid-wal", blocks: 6,
			damage: func(t *testing.T, fs FS, blocks []*ledger.Block) {
				// Flip a payload byte inside frame 1 (offset 8 is its
				// first payload byte); frames 2..6 stay intact, so this
				// is in-place damage, not a torn tail.
				raw := walBytes(t, fs, "n0")
				corruptWAL(t, fs, "n0", frameHeaderSize+4, raw[frameHeaderSize+4]^0xff)
			},
			wantErr: true, wantHeight: 1,
		},
		{
			// A CRC-valid frame whose block decodes to "txs":[null] and
			// whose header commits to exactly that: only validation can
			// refuse it, and it must do so before anything executes.
			name: "nil tx in a valid frame", blocks: 6,
			damage: func(t *testing.T, fs FS, blocks []*ledger.Block) {
				blocks[3].Txs = []*ledger.Transaction{nil}
				reroot(t, blocks[3])
				rewriteWAL(t, fs, "n0", blocks)
			},
			wantErr: true, wantHeight: 4,
		},
		{
			// A CRC-valid frame holding its block in another spelling
			// is refused like a damaged one.
			name: "non-canonical frame", blocks: 6,
			damage: func(t *testing.T, fs FS, blocks []*ledger.Block) {
				payloads := encodeBlocks(blocks)
				payloads[3] = canontest.Reordered(payloads[3])
				writeFrames(t, fs, "n0", payloads)
			},
			wantErr: true, wantHeight: 4,
		},
		{
			// A snapshot in another spelling is unusable: the WAL is
			// replayed in full.
			name: "non-canonical snapshot", blocks: 6,
			seed: Options{SnapshotEvery: 3},
			damage: func(t *testing.T, fs FS, _ []*ledger.Block) {
				h, body, err := LoadLatestSnapshot(fs, "n0")
				if err != nil || h != 6 {
					t.Fatalf("latest snapshot at %d: %v", h, err)
				}
				if err := writeSnapshot(fs, "n0", h, make([]byte, snapHeaderLen), canontest.Indented(body)); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, rec *Recovered, blocks []*ledger.Block) {
				if !rec.SnapshotIgnored || rec.SnapshotHeight != 0 || rec.ReplayedBlocks != 6 {
					t.Fatalf("ignored %v, snap %d, replayed %d; want a full replay", rec.SnapshotIgnored, rec.SnapshotHeight, rec.ReplayedBlocks)
				}
				if rec.State.Root() != blocks[5].Header.StateRoot {
					t.Fatal("replay root mismatch")
				}
			},
		},
		{
			name: "snapshot newer than wal", blocks: 6,
			seed: Options{SnapshotEvery: 3},
			damage: func(t *testing.T, fs FS, blocks []*ledger.Block) {
				// Keep only the first 4 blocks' frames: the height-6
				// snapshot now claims blocks the WAL does not hold.
				var size int64
				for _, blk := range blocks[:4] {
					b, err := blk.Encode()
					if err != nil {
						t.Fatal(err)
					}
					size += frameHeaderSize + int64(len(b))
				}
				truncateWAL(t, fs, "n0", size)
			},
			check: func(t *testing.T, rec *Recovered, blocks []*ledger.Block) {
				if !rec.SnapshotIgnored {
					t.Fatal("snapshot beyond the wal was trusted")
				}
				// Height-3 snapshot was pruned (keep=2 kept 3 and 6), so
				// this is a full replay of the 4 surviving blocks.
				if rec.Height != 4 || rec.SnapshotHeight != 0 {
					t.Fatalf("height %d snap %d, want 4/0", rec.Height, rec.SnapshotHeight)
				}
				if rec.State.Root() != blocks[3].Header.StateRoot {
					t.Fatal("replay root mismatch")
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blocks, _ := buildBlocks(t, testChainID, tc.blocks)
			fs := NewMemFS()
			if tc.blocks > 0 {
				seedStore(t, fs, "n0", blocks, tc.seed)
			}
			if tc.damage != nil {
				tc.damage(t, fs, blocks)
			}
			st, rec, err := Open(Options{FS: fs, Dir: "n0", ChainID: testChainID})
			if tc.wantErr {
				if err == nil {
					st.Close()
					t.Fatal("recovery succeeded on unrecoverable corruption")
				}
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("error %v is not a *CorruptError", err)
				}
				if ce.Height != tc.wantHeight {
					t.Fatalf("corrupt error at height %d, want %d: %v", ce.Height, tc.wantHeight, err)
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error %v does not match ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer st.Close()
			if tc.check != nil {
				tc.check(t, rec, blocks)
			}
			if err := rec.Chain.VerifyIntegrity(); err != nil {
				t.Fatalf("recovered chain integrity: %v", err)
			}
		})
	}
}

// Recovery from a torn tail must PHYSICALLY truncate the file: if the
// garbage stays on disk, the next appended frame lands inside it and a
// later recovery reads a chimera. This is the test that catches a
// mutant dropping the truncate call.
func TestTornTailTruncatedThenAppendable(t *testing.T) {
	blocks, _ := buildBlocks(t, testChainID, 6)
	fs := NewMemFS()
	seedStore(t, fs, "n0", blocks[:5], Options{})

	// Tear the tail the way a crash mid-write does: the real frame for
	// block 6, cut off halfway through its payload. The header's length
	// field points past EOF, which is exactly what scan must classify
	// as tail damage.
	full, err := blocks[5].Encode()
	if err != nil {
		t.Fatal(err)
	}
	raw := walBytes(t, fs, "n0")
	validSize := int64(len(raw))
	whole := make([]byte, frameHeaderSize+len(full))
	writeFrameHeader(whole, full)
	copy(whole[frameHeaderSize:], full)
	frame := whole[:frameHeaderSize+len(full)/2]
	f, err := fs.OpenFile(Join("n0", WALName), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(frame, validSize); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, rec, err := Open(Options{FS: fs, Dir: "n0", ChainID: testChainID})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Height != 5 || rec.TruncatedBytes != int64(len(frame)) {
		t.Fatalf("recovered height %d torn %d, want 5/%d", rec.Height, rec.TruncatedBytes, len(frame))
	}
	// The torn bytes must be gone from disk, not merely skipped.
	if got := int64(len(walBytes(t, fs, "n0"))); got != validSize {
		t.Fatalf("wal still %d bytes after recovery, want %d (torn tail not truncated)", got, validSize)
	}
	// Appending the real block 6 and re-recovering must yield all 6.
	if err := st.AppendBlock(blocks[5]); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, rec2, err := Open(Options{FS: fs, Dir: "n0", ChainID: testChainID})
	if err != nil {
		t.Fatalf("re-recover after append: %v", err)
	}
	defer st2.Close()
	if rec2.Height != 6 || rec2.TruncatedBytes != 0 {
		t.Fatalf("re-recovery height %d torn %d, want 6/0", rec2.Height, rec2.TruncatedBytes)
	}
	if rec2.State.Root() != blocks[5].Header.StateRoot {
		t.Fatal("root mismatch after append-past-torn-tail")
	}
}

// Recovering twice in a row must be byte-for-byte idempotent: the
// first recovery repairs, the second finds nothing left to repair.
func TestDoubleRecoveryIdempotent(t *testing.T) {
	blocks, _ := buildBlocks(t, testChainID, 7)
	fs := NewMemFS()
	seedStore(t, fs, "n0", blocks, Options{SnapshotEvery: 3})
	raw := walBytes(t, fs, "n0")
	truncateWAL(t, fs, "n0", int64(len(raw)-2))

	st1, rec1, err := Open(Options{FS: fs, Dir: "n0", ChainID: testChainID})
	if err != nil {
		t.Fatal(err)
	}
	st1.Close()
	if rec1.TruncatedBytes == 0 {
		t.Fatal("first recovery saw no torn tail")
	}
	wal1 := walBytes(t, fs, "n0")

	st2, rec2, err := Open(Options{FS: fs, Dir: "n0", ChainID: testChainID})
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("second recovery truncated %d more bytes", rec2.TruncatedBytes)
	}
	if rec1.Height != rec2.Height || rec1.State.Root() != rec2.State.Root() {
		t.Fatalf("double recovery diverged: %d/%s vs %d/%s",
			rec1.Height, rec1.State.Root(), rec2.Height, rec2.State.Root())
	}
	if wal2 := walBytes(t, fs, "n0"); string(wal1) != string(wal2) {
		t.Fatal("second recovery rewrote the wal")
	}
	if len(rec1.Receipts) != len(rec2.Receipts) {
		t.Fatalf("receipt counts differ: %d vs %d", len(rec1.Receipts), len(rec2.Receipts))
	}
}

// dirContents reads every file of an on-disk directory.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	names, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(names))
	for _, name := range names {
		b, err := os.ReadFile(Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(b)
	}
	return out
}

// testdata/v1 is a data directory the parent of the root-format change
// wrote (three blocks, snapshot at height 2): every header and the
// snapshot hold flat "v1" state roots and nothing records a format.
// Replaying it would fail at block 1 with a root mismatch that reads
// like disk corruption; Open must refuse it by name instead and leave
// every byte where it was.
func TestPreFormatDataDirRefused(t *testing.T) {
	dir := t.TempDir()
	for name, body := range dirContents(t, Join("testdata", "v1")) {
		if err := os.WriteFile(Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirContents(t, dir)
	if len(before) != 2 {
		t.Fatalf("fixture holds %d files, want a WAL and a snapshot", len(before))
	}

	_, _, err := Open(Options{Dir: dir, ChainID: testChainID})
	var fe *FormatError
	if !errors.As(err, &fe) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want a *FormatError that is not ErrCorrupt", err)
	}
	if fe.Have != "" || fe.Want != contract.RootFormat || fe.Dir != dir {
		t.Fatalf("FormatError = %+v", fe)
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("Open changed a directory it refused")
	}
}

// A new store is stamped with the build's root format before anything
// else is written, the stamp survives a power loss, and a stamp naming
// another format is refused by name.
func TestFormatStamp(t *testing.T) {
	blocks, _ := buildBlocks(t, testChainID, 2)
	fs := NewMemFS()
	seedStore(t, fs, "n0", blocks, Options{})
	stamp, err := ReadFile(fs, Join("n0", FormatName))
	if err != nil || string(stamp) != contract.RootFormat+"\n" {
		t.Fatalf("stamp = %q, %v", stamp, err)
	}
	fs.Crash()
	st, rec, err := Open(Options{FS: fs, Dir: "n0", ChainID: testChainID})
	if err != nil {
		t.Fatalf("reopen after power loss: %v", err)
	}
	st.Close()
	if rec.Height != 2 {
		t.Fatalf("reopen after power loss: height %d, want 2", rec.Height)
	}

	if err := writeFileAtomic(fs, Join("n0", FormatName), []byte("medchain/state-root/v9\n")); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(Options{FS: fs, Dir: "n0", ChainID: testChainID})
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Have != "medchain/state-root/v9" {
		t.Fatalf("Open = %v, want a *FormatError naming v9", err)
	}
}
