package store

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/par"
)

// ErrCorrupt is the sentinel every unrecoverable on-disk damage error
// wraps; match with errors.Is(err, store.ErrCorrupt) and unwrap to
// *CorruptError for the offending height and byte offset.
var ErrCorrupt = errors.New("store: corrupt")

// CorruptError reports in-place damage that recovery cannot heal by
// truncation: a checksum failure with intact frames after it, a height
// gap in the frame sequence, or a replayed block whose state root
// disagrees with its committed header.
type CorruptError struct {
	// Height is the block height the damage was detected at (1-based;
	// 0 when no height applies).
	Height uint64
	// Offset is the byte offset in the WAL, -1 when not WAL damage.
	Offset int64
	// Reason describes the damage.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt at height %d offset %d: %s", e.Height, e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorrupt) true.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// FormatName is the file in a store directory that records the state-root
// format (contract.RootFormat) its block headers and snapshots were
// written under. Open writes it when it creates a store and checks it
// before it touches anything else.
const FormatName = "FORMAT"

// FormatError reports a data directory whose committed state roots were
// computed under another root format than this build's. The bytes on
// disk are intact — replaying them would only end in a root mismatch at
// the first block — so it is deliberately not a CorruptError, and Open
// leaves the directory untouched.
type FormatError struct {
	// Dir is the store directory.
	Dir string
	// Have is the format the directory records; empty for a directory
	// written before formats were recorded (the flat v1 root).
	Have string
	// Want is this build's contract.RootFormat.
	Want string
}

func (e *FormatError) Error() string {
	have := fmt.Sprintf("%q", e.Have)
	if e.Have == "" {
		have = "an unrecorded earlier format"
	}
	return fmt.Sprintf("store: %s holds state roots in %s, this build reads %q", e.Dir, have, e.Want)
}

// checkFormat compares dir's recorded root format with this build's. A
// directory that holds no store yet is stamped; one that holds a WAL or
// a snapshot but no stamp predates the stamp.
func checkFormat(fs FS, dir string) error {
	have, err := ReadFile(fs, Join(dir, FormatName))
	if err == nil {
		if got := strings.TrimSpace(string(have)); got != contract.RootFormat {
			return &FormatError{Dir: dir, Have: got, Want: contract.RootFormat}
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: read %s: %w", FormatName, err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: list %s: %w", dir, err)
	}
	for _, name := range names {
		if _, snap := snapHeight(name); snap || name == WALName {
			return &FormatError{Dir: dir, Want: contract.RootFormat}
		}
	}
	return writeFileAtomic(fs, Join(dir, FormatName), []byte(contract.RootFormat+"\n"))
}

// Options configures a Store.
type Options struct {
	// FS is the filesystem implementation (nil = the real disk).
	FS FS
	// Dir is the store directory; it is created if missing.
	Dir string
	// ChainID identifies the chain recovered from this directory.
	ChainID string
	// SyncEvery batches WAL fsyncs: one fsync per SyncEvery appended
	// blocks (<=1 = every block, the durable default).
	SyncEvery int
	// SnapshotEvery writes a state snapshot every N appended blocks
	// (0 = no automatic snapshots; MaybeSnapshot then only acts when
	// forced).
	SnapshotEvery int
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 1
	}
	return o
}

// Recovered is everything Open rebuilt from disk, ready to swap into a
// running node.
type Recovered struct {
	// Chain is the recovered ledger (genesis + every durable block).
	Chain *ledger.Chain
	// State is the contract state at Chain's head. It has no host
	// table; call AdoptHostFrom / SetHost before executing VM txs that
	// need oracles.
	State *contract.State
	// Receipts holds the receipt of every transaction in chain order.
	Receipts []*contract.Receipt
	// GasUsed is the cumulative gas of one serial execution of the
	// recovered history.
	GasUsed int64
	// Height is the recovered chain height.
	Height uint64
	// SnapshotHeight is the height of the snapshot used (0 = replayed
	// from genesis).
	SnapshotHeight uint64
	// ReplayedBlocks counts WAL blocks re-executed past the snapshot.
	ReplayedBlocks int
	// TruncatedBytes counts torn WAL tail bytes dropped.
	TruncatedBytes int64
	// SnapshotIgnored is true when a snapshot existed but claimed a
	// height beyond the durable WAL and was discarded (the WAL is the
	// source of truth).
	SnapshotIgnored bool
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration
}

// snapshotPayload is the JSON body of a snapshot file.
type snapshotPayload struct {
	ChainID   string                `json:"chain_id"`
	Height    uint64                `json:"height"`
	BlockHash cryptoutil.Digest     `json:"block_hash"`
	StateRoot cryptoutil.Digest     `json:"state_root"`
	State     *contract.StateExport `json:"state"`
	Receipts  []*contract.Receipt   `json:"receipts,omitempty"`
}

// usable reports whether a decoded snapshot body describes chainID at
// height and holds no JSON null where Open would dereference one.
func (p *snapshotPayload) usable(chainID string, height uint64) bool {
	if p.ChainID != chainID || p.Height != height || p.State == nil {
		return false
	}
	for _, r := range p.Receipts {
		if r == nil {
			return false
		}
	}
	return true
}

// Store is the durable storage engine: an open block WAL plus the
// snapshot directory. One Store owns one directory. Methods are safe
// for concurrent use; appends are serialized so WAL order always
// matches commit order.
type Store struct {
	fs   FS
	dir  string
	opts Options
	wal  *WAL

	mu sync.Mutex
	// next is the height the next appended block must have.
	next       uint64
	sinceSnap  int
	lastSnapAt uint64
	// receipts carries the receipts one snapshot encoded to the next.
	receipts receiptCache
}

// prepass is recovery's signature stage. One goroutine walks the decoded
// blocks in order, puts whole blocks of at most ledger.VerifyWindow
// transactions at a time (a larger block alone) through
// chain.VerifyTxs, and hands each finished batch to the replay loop, so
// that loop's Append finds every signature already checked — by this
// recovery, on this chain instance — while the next batch is verified on
// the other cores.
type prepass struct {
	// ready carries n: blocks[:n] are verified. It must stay unbuffered:
	// the hand-off is what keeps the stage at most one batch ahead of the
	// batch being appended (see ledger.VerifyWindow).
	ready chan int
	stop  chan struct{}
	done  chan struct{}
	// upTo is the replay loop's copy of the last n received.
	upTo int
}

func startPrepass(chain *ledger.Chain, blocks []*ledger.Block) *prepass {
	p := &prepass{ready: make(chan int), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		var txs []*ledger.Transaction
		for i := 0; i < len(blocks); {
			txs = append(txs[:0], blocks[i].Txs...)
			n := i + 1
			for n < len(blocks) && len(txs)+len(blocks[n].Txs) <= ledger.VerifyWindow {
				txs = append(txs, blocks[n].Txs...)
				n++
			}
			chain.VerifyTxs(txs)
			select {
			case p.ready <- n:
			case <-p.stop:
				return
			}
			i = n
		}
	}()
	return p
}

// wait returns once blocks[i] has been through the stage.
func (p *prepass) wait(i int) {
	for p.upTo <= i {
		p.upTo = <-p.ready
	}
}

// close stops the stage and waits for its goroutine; Open defers it so
// no return path leaves one behind.
func (p *prepass) close() {
	close(p.stop)
	<-p.done
}

// Open opens (or creates) the store directory and recovers its
// contents: it refuses a directory written under another state-root
// format (*FormatError), truncates a torn WAL tail, loads the newest valid
// snapshot, validates every block of the WAL through Chain.Append —
// linkage, height, transaction root, every signature, expiry,
// duplicates and nonces, for blocks below the snapshot too — and replays
// the suffix through the contract state machine, checking every replayed
// block's state root against its committed header. Frames are decoded,
// and signatures verified, on every core ahead of that serial loop
// (prepass); Append still renders every verdict, in block order. The
// WAL — not the snapshot — is the source of truth: a snapshot claiming
// blocks the WAL does not durably hold is ignored and the history is
// re-executed from genesis.
func Open(opts Options) (*Store, *Recovered, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("store: empty dir")
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: mkdir %s: %w", opts.Dir, err)
	}
	if err := checkFormat(opts.FS, opts.Dir); err != nil {
		return nil, nil, err
	}

	snapH, snapBody, err := LoadLatestSnapshot(opts.FS, opts.Dir)
	if err != nil {
		return nil, nil, err
	}

	wal, frames, torn, err := OpenWAL(opts.FS, Join(opts.Dir, WALName), opts.SyncEvery)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Store, *Recovered, error) {
		wal.Close()
		return nil, nil, err
	}

	blocks := make([]*ledger.Block, len(frames))
	decodeErrs := make([]error, len(frames))
	par.ForEachN(len(frames), 0, func(i int) {
		blocks[i], decodeErrs[i] = ledger.DecodeBlock(frames[i])
	})
	for i, blk := range blocks {
		if err := decodeErrs[i]; err != nil {
			return fail(&CorruptError{Height: uint64(i + 1), Offset: -1,
				Reason: fmt.Sprintf("undecodable wal frame: %v", err)})
		}
		if blk.Header.Height != uint64(i+1) {
			return fail(&CorruptError{Height: uint64(i + 1), Offset: -1,
				Reason: fmt.Sprintf("wal frame %d holds block height %d", i, blk.Header.Height)})
		}
	}

	rec := &Recovered{TruncatedBytes: torn}

	// Decide whether the snapshot is usable. It must not claim more
	// blocks than the WAL durably holds, and it must decode and match
	// this chain; any failure falls back to full replay — slower, never
	// wrong.
	var snap *snapshotPayload
	if snapBody != nil {
		if snapH > uint64(len(blocks)) {
			rec.SnapshotIgnored = true
		} else {
			if p, err := decodeSnapshot(snapBody); err == nil && p.usable(opts.ChainID, snapH) {
				snap = p
			} else {
				rec.SnapshotIgnored = true
			}
		}
	}

	chain := ledger.NewChain(opts.ChainID)
	state := contract.NewState()
	replayFrom := 0
	verified := startPrepass(chain, blocks)
	defer verified.close()
	// appendBlock is the one validation every WAL block gets, below the
	// snapshot or past it.
	appendBlock := func(i int) error {
		verified.wait(i)
		if err := chain.Append(blocks[i]); err != nil {
			return &CorruptError{Height: blocks[i].Header.Height, Offset: -1,
				Reason: fmt.Sprintf("recovered block rejected by ledger: %v", err)}
		}
		return nil
	}

	if snap != nil && snap.Height > 0 {
		for i := range blocks[:snap.Height] {
			if err := appendBlock(i); err != nil {
				return fail(err)
			}
		}
		if got := chain.Head().Hash(); got != snap.BlockHash {
			return fail(&CorruptError{Height: snap.Height, Offset: -1,
				Reason: fmt.Sprintf("snapshot block hash %s != wal block hash %s", snap.BlockHash, got)})
		}
		state = contract.ImportState(snap.State)
		if got := state.Root(); got != snap.StateRoot {
			return fail(&CorruptError{Height: snap.Height, Offset: -1,
				Reason: fmt.Sprintf("imported snapshot state root %s != recorded %s", got, snap.StateRoot)})
		}
		if hdr := chain.Head().Header; hdr.StateRoot != snap.StateRoot {
			return fail(&CorruptError{Height: snap.Height, Offset: -1,
				Reason: fmt.Sprintf("snapshot state root %s != committed header root %s", snap.StateRoot, hdr.StateRoot)})
		}
		rec.Receipts = append(rec.Receipts, snap.Receipts...)
		rec.SnapshotHeight = snap.Height
		replayFrom = int(snap.Height)
	}

	// Validate, then execute: Apply never sees a transaction Append has
	// not accepted (a nil one, a forged signature).
	for i := replayFrom; i < len(blocks); i++ {
		if err := appendBlock(i); err != nil {
			return fail(err)
		}
		blk := blocks[i]
		for _, tx := range blk.Txs {
			r, err := state.Apply(tx, blk.Header.Height, blk.Header.Timestamp)
			if err != nil {
				return fail(&CorruptError{Height: blk.Header.Height, Offset: -1,
					Reason: fmt.Sprintf("replay tx %s: %v", tx.ID(), err)})
			}
			rec.Receipts = append(rec.Receipts, r)
		}
		if got := state.Root(); got != blk.Header.StateRoot {
			return fail(&CorruptError{Height: blk.Header.Height, Offset: -1,
				Reason: fmt.Sprintf("replayed state root %s != committed header root %s", got, blk.Header.StateRoot)})
		}
		rec.ReplayedBlocks++
	}

	for _, r := range rec.Receipts {
		rec.GasUsed += r.GasUsed
	}
	rec.Chain = chain
	rec.State = state
	rec.Height = chain.Height()
	rec.Elapsed = time.Since(start)

	s := &Store{fs: opts.FS, dir: opts.Dir, opts: opts, wal: wal,
		next: rec.Height + 1, lastSnapAt: rec.SnapshotHeight}
	s.sinceSnap = int(rec.Height - rec.SnapshotHeight)
	return s, rec, nil
}

// AppendBlock writes one committed block to the WAL. Heights must be
// appended in sequence: a block at or below the already-stored height
// is a no-op (re-delivery is idempotent), a gap is an error. Whether
// the frame is fsynced immediately depends on Options.SyncEvery.
func (s *Store) AppendBlock(blk *ledger.Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if blk.Header.Height < s.next {
		return nil
	}
	if blk.Header.Height > s.next {
		return fmt.Errorf("store: append height %d, want %d (gap)", blk.Header.Height, s.next)
	}
	payload, err := blk.Encode()
	if err != nil {
		return fmt.Errorf("store: encode block %d: %w", blk.Header.Height, err)
	}
	if _, err := s.wal.Append(payload); err != nil {
		return err
	}
	s.next++
	s.sinceSnap++
	return nil
}

// MaybeSnapshot publishes a snapshot of (chain, state, receipts) when
// SnapshotEvery blocks have accumulated since the last one, or always
// when force is set. The WAL is synced first so the snapshot never
// claims blocks the WAL does not durably hold. Returns true when a
// snapshot was written. receipts is only read: the store keeps its own
// copy of the pointers, and encodes only the receipts past the prefix
// its previous snapshot encoded — a committed receipt must never change.
func (s *Store) MaybeSnapshot(chain *ledger.Chain, state *contract.State, receipts []*contract.Receipt, force bool) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if due := s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery; !force && !due {
		return false, nil
	}
	height := chain.Height()
	if height == 0 || height == s.lastSnapAt {
		return false, nil
	}
	if height >= s.next {
		return false, fmt.Errorf("store: snapshot height %d beyond stored blocks (next %d)", height, s.next)
	}
	if err := s.wal.Sync(); err != nil {
		return false, err
	}
	parts, err := snapshotParts(make([]byte, snapHeaderLen), &snapshotPayload{
		ChainID:   s.opts.ChainID,
		Height:    height,
		BlockHash: chain.Head().Hash(),
		StateRoot: state.Root(),
		State:     state.Export(),
		Receipts:  receipts,
	}, &s.receipts)
	if err != nil {
		return false, fmt.Errorf("store: encode snapshot: %w", err)
	}
	if err := writeSnapshot(s.fs, s.dir, height, parts...); err != nil {
		return false, err
	}
	s.sinceSnap = 0
	s.lastSnapAt = height
	PruneSnapshots(s.fs, s.dir)
	return true, nil
}

// Height returns the highest block height durably appended (synced or
// pending group commit).
func (s *Store) Height() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next - 1
}

// Sync forces any group-commit-pending WAL frames to disk.
func (s *Store) Sync() error { return s.wal.Sync() }

// Close releases the WAL handle WITHOUT syncing — Close models the
// process dying, which is exactly what crash recovery must survive.
// Graceful shutdown is Sync then Close.
func (s *Store) Close() error { return s.wal.Close() }
