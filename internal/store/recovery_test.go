package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
	"time"

	"medchain/internal/canonjson/canontest"
	"medchain/internal/contract"
	"medchain/internal/ledger"
)

// atProcs runs fn at each GOMAXPROCS value: 1 is the inline pre-pass, 4
// the fanned-out one.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs-%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// settled fails unless the goroutine count returns to base: Open waits
// for its pre-pass, so only the last instructions of an exiting
// goroutine can still be counted, briefly.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Open returned, %d before it was called", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// Open no longer runs Chain.VerifyIntegrity over the chain it has just
// appended. Each of that pass's five checks is still made, on every WAL
// block, by Append: a CRC-valid frame carrying the defect fails
// recovery at its own height, for the reason the audit would have given.
func TestOpenRejectsEachIntegrityDefect(t *testing.T) {
	badSig := func(t *testing.T, blk *ledger.Block) {
		tx := *blk.Txs[0]
		tx.Sig[9] ^= 0x20
		blk.Txs = []*ledger.Transaction{&tx}
		reroot(t, blk) // the header commits to the forged bytes
	}
	badTxRoot := func(t *testing.T, blk *ledger.Block) { blk.Header.TxRoot[3] ^= 1 }
	type defect struct {
		at    int // 1-based height of the frame that carries it
		apply func(t *testing.T, blk *ledger.Block)
	}
	cases := []struct {
		name    string
		seed    Options
		defects []defect
		// wantReason is text of the check that must fire, at defects[0].at.
		wantReason string
	}{
		{name: "broken parent link", wantReason: ledger.ErrBadParent.Error(),
			defects: []defect{{5, func(t *testing.T, blk *ledger.Block) { blk.Header.Parent[0] ^= 1 }}}},
		{name: "wrong height", wantReason: "holds block height 12",
			defects: []defect{{5, func(t *testing.T, blk *ledger.Block) { blk.Header.Height += 7 }}}},
		{name: "wrong tx root", wantReason: ledger.ErrBadTxRoot.Error(),
			defects: []defect{{5, badTxRoot}}},
		{name: "bad signature", wantReason: ledger.ErrBadSignature.Error(),
			defects: []defect{{5, badSig}}},
		{name: "expired tx", wantReason: ledger.ErrTxExpired.Error(),
			defects: []defect{{5, func(t *testing.T, blk *ledger.Block) {
				tx := *blk.Txs[0]
				tx.Expiry = blk.Header.Height - 1
				if err := tx.Sign(storeKey(t)); err != nil {
					t.Fatal(err)
				}
				blk.Txs = []*ledger.Transaction{&tx}
				reroot(t, blk)
			}}}},
		{name: "two defective frames, the lower one is reported", wantReason: ledger.ErrBadTxRoot.Error(),
			defects: []defect{{3, badTxRoot}, {6, badSig}}},
		// Blocks a snapshot covers are not executed, and are verified all
		// the same.
		{name: "bad signature below the snapshot", seed: Options{SnapshotEvery: 4},
			wantReason: ledger.ErrBadSignature.Error(), defects: []defect{{2, badSig}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blocks, _ := buildBlocks(t, testChainID, 9)
			fs := NewMemFS()
			seedStore(t, fs, "n0", blocks, tc.seed)
			for _, d := range tc.defects {
				d.apply(t, blocks[d.at-1])
			}
			rewriteWAL(t, fs, "n0", blocks)
			atProcs(t, func(t *testing.T) {
				base := runtime.NumGoroutine()
				st, _, err := Open(Options{FS: fs, Dir: "n0", ChainID: testChainID})
				if err == nil {
					st.Close()
					t.Fatal("recovery accepted the defect")
				}
				var ce *CorruptError
				if !errors.As(err, &ce) || ce.Height != uint64(tc.defects[0].at) || !strings.Contains(ce.Reason, tc.wantReason) {
					t.Fatalf("Open = %v, want a *CorruptError at height %d naming %q", err, tc.defects[0].at, tc.wantReason)
				}
				settled(t, base)
			})
		})
	}
}

// The recovering node ECDSA-verifies every transaction in the WAL once:
// the pre-pass places each mark, Append finds it. The history is longer
// than the verified set can hold (2·8192 marks) and opens with a block
// four times ledger.VerifyWindow, so a pre-pass that ran further ahead
// than the set remembers would show up as extra verifications, and one
// that waited for room it can never get as a hang.
func TestOpenVerifiesEachTxOnce(t *testing.T) {
	sizes := []int{4 * ledger.VerifyWindow}
	if !testing.Short() {
		for i := 0; i < 220; i++ {
			sizes = append(sizes, 64)
		}
	}
	for i := 0; i < 300; i++ {
		sizes = append(sizes, 1+i%3)
	}
	blocks, want := buildChain(t, testChainID, sizes)
	total := 0
	for _, blk := range blocks {
		total += len(blk.Txs)
	}
	if !testing.Short() && total <= 2*8192 {
		t.Fatalf("history of %d transactions fits the verified set", total)
	}

	// First half, a snapshot at its head, then the second half: the next
	// Open appends blocks under the snapshot and replays blocks past it.
	half := len(blocks) / 2
	fs := NewMemFS()
	seedStore(t, fs, "n0", nil, Options{})
	rewriteWAL(t, fs, "n0", blocks[:half])
	st, rec, err := Open(Options{FS: fs, Dir: "n0", ChainID: testChainID})
	if err != nil {
		t.Fatal(err)
	}
	if wrote, err := st.MaybeSnapshot(rec.Chain, rec.State, rec.Receipts, true); err != nil || !wrote {
		t.Fatalf("snapshot: wrote %v, %v", wrote, err)
	}
	st.Close()
	rewriteWAL(t, fs, "n0", blocks)

	atProcs(t, func(t *testing.T) {
		base := runtime.NumGoroutine()
		st, rec, err := Open(Options{FS: fs, Dir: "n0", ChainID: testChainID})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if rec.SnapshotHeight != uint64(half) || rec.ReplayedBlocks != len(blocks)-half || rec.Height != uint64(len(blocks)) {
			t.Fatalf("recovered height %d from snapshot %d replaying %d, want %d / %d / %d",
				rec.Height, rec.SnapshotHeight, rec.ReplayedBlocks, len(blocks), half, len(blocks)-half)
		}
		if rec.State.Root() != want.Root() || len(rec.Receipts) != total {
			t.Fatalf("recovered root %s with %d receipts, want %s with %d",
				rec.State.Root(), len(rec.Receipts), want.Root(), total)
		}
		if v, h := rec.Chain.VerifyCounts(); v != uint64(total) || h != uint64(total) {
			t.Fatalf("verifies=%d hits=%d for %d transactions, want each verified once and found once", v, h, total)
		}
		settled(t, base)
	})
}

// restampFrames rewrites the checksum of every whole frame in raw, so
// mutated payload bytes get past the frame scan and reach the decoder,
// the pre-pass and Append.
func restampFrames(raw []byte) {
	for off := 0; len(raw)-off >= frameHeaderSize; {
		length := int(binary.BigEndian.Uint32(raw[off:]))
		end := off + frameHeaderSize + length
		if length > len(raw) || end > len(raw) {
			return
		}
		binary.BigEndian.PutUint32(raw[off+4:], crc32.Checksum(raw[off+frameHeaderSize:end], crcTable))
		off = end
	}
}

// FuzzOpen: whatever bytes a data directory holds as its WAL and its
// newest snapshot, Open returns a typed refusal or a recovered store —
// it never panics — a chain it accepts passes the full audit it no
// longer runs itself, and it never recovers from a snapshot in any
// spelling but the canonical one.
func FuzzOpen(f *testing.F) {
	blocks, _ := buildBlocks(f, testChainID, 3)
	seeded := NewMemFS()
	seedStore(f, seeded, "n0", blocks, Options{SnapshotEvery: 2})
	wal := walBytes(f, seeded, "n0")
	snapAt, snap, err := LoadLatestSnapshot(seeded, "n0")
	if err != nil || snapAt != 2 {
		f.Fatalf("seed snapshot at %d: %v", snapAt, err)
	}
	flipped := append([]byte(nil), wal...)
	flipped[frameHeaderSize+4] ^= 0xff
	frames := encodeBlocks(blocks)
	frames[1] = canontest.Reordered(frames[1])
	writeFrames(f, seeded, "n0", frames)
	reordered := walBytes(f, seeded, "n0")
	blocks[1].Txs = []*ledger.Transaction{nil}
	reroot(f, blocks[1])
	rewriteWAL(f, seeded, "n0", blocks)
	nilTx := walBytes(f, seeded, "n0")

	f.Add(wal, []byte(nil), uint8(0), false)
	f.Add(wal, snap, uint8(2), false)
	f.Add(wal[:len(wal)-3], snap, uint8(2), false)
	f.Add(flipped, []byte(nil), uint8(0), false)
	f.Add(flipped, snap, uint8(2), true)
	f.Add(nilTx, []byte(nil), uint8(0), true)
	f.Add(reordered, []byte(nil), uint8(0), false)
	f.Add(wal, canontest.Indented(snap), uint8(2), false)
	f.Add(wal, []byte(`{"chain_id":"store-test","height":2,"state":null,"receipts":[null]}`), uint8(2), false)
	f.Fuzz(func(t *testing.T, wal, snap []byte, snapAt uint8, restamp bool) {
		fs := NewMemFS()
		if restamp {
			wal = append([]byte(nil), wal...)
			restampFrames(wal)
		}
		for name, body := range map[string][]byte{FormatName: []byte(contract.RootFormat + "\n"), WALName: wal} {
			if err := writeFileAtomic(fs, Join("n0", name), body); err != nil {
				t.Fatal(err)
			}
		}
		if len(snap) > 0 {
			if err := writeSnapshot(fs, "n0", uint64(snapAt), make([]byte, snapHeaderLen), snap); err != nil {
				t.Fatal(err)
			}
		}
		st, rec, err := Open(Options{FS: fs, Dir: "n0", ChainID: testChainID})
		if err != nil {
			var ce *CorruptError
			var fe *FormatError
			if !errors.As(err, &ce) && !errors.As(err, &fe) {
				t.Fatalf("Open = %v, want a *CorruptError or a *FormatError", err)
			}
			return
		}
		defer st.Close()
		if _, err := decodeSnapshot(snap); err != nil && rec.SnapshotHeight != 0 {
			t.Fatalf("recovered from snapshot %d, which decodeSnapshot refuses: %v", rec.SnapshotHeight, err)
		}
		if rec.Height != rec.Chain.Height() {
			t.Fatalf("recovered height %d, chain height %d", rec.Height, rec.Chain.Height())
		}
		if err := rec.Chain.VerifyIntegrity(); err != nil {
			t.Fatalf("Open accepted a chain the audit refuses: %v", err)
		}
		if rec.Height > 0 && rec.State.Root() != rec.Chain.Head().Header.StateRoot {
			t.Fatal("recovered state does not match the head's committed root")
		}
	})
}
