package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// WAL frame layout: a fixed 8-byte header — 4-byte big-endian payload
// length, 4-byte CRC32C (Castagnoli) of the payload — followed by the
// payload bytes. Frames are written in a single positional write at
// the end of the file, so a crash mid-write leaves a torn tail that
// recovery detects (checksum or length cannot hold) and truncates.
const (
	frameHeaderSize = 8
	// MaxFrameSize bounds one frame's payload; a length field above it
	// is treated as tail garbage, not an allocation request.
	MaxFrameSize = 64 << 20
)

// crcTable is the Castagnoli polynomial table (CRC32C — hardware
// accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WALName is the WAL file name inside a store directory.
const WALName = "block.wal"

// writeFrameHeader fills buf's first 8 bytes with payload's frame
// header (length + CRC32C).
func writeFrameHeader(buf []byte, payload []byte) {
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
}

// WAL is an append-only checksummed frame log with batched
// group-commit fsync: SyncEvery appends share one fsync, trading a
// bounded durability window for throughput (bench/'s `recover_s` and
// `store.*` layers measure the cost; TestWALGroupCommitDurabilityWindow
// holds the window). It is safe for concurrent use.
type WAL struct {
	mu        sync.Mutex
	f         File
	size      int64 // bytes of fully-written frames
	frames    int
	unsynced  int // appends since the last successful fsync
	syncEvery int
	broken    bool // a failed append could not be erased; appends stop
}

// OpenWAL opens (or creates) the WAL at name, scans every frame,
// truncates a torn tail, and returns the WAL positioned for appends
// together with the valid frame payloads and the number of torn bytes
// dropped. Mid-log corruption — a checksummed frame that fails its CRC
// with intact frames after it — is not recoverable by truncation and
// surfaces as *CorruptError.
func OpenWAL(fs FS, name string, syncEvery int) (*WAL, [][]byte, int64, error) {
	if syncEvery <= 0 {
		syncEvery = 1
	}
	f, err := fs.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: open wal: %w", err)
	}
	frames, valid, torn, err := scanFrames(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	if torn > 0 {
		// Torn tail: a crash interrupted the last append. Drop it —
		// the block never committed durably — so new frames land on a
		// clean boundary.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
	}
	return &WAL{f: f, size: valid, frames: len(frames), syncEvery: syncEvery}, frames, torn, nil
}

// scanFrames walks the frame log from the start. It returns the valid
// payloads, the byte length of the valid prefix, and how many trailing
// bytes belong to a torn final write. A bad checksum that is NOT the
// final region of the file means the log was corrupted in place and
// cannot be healed by truncation: that is a *CorruptError.
func scanFrames(f File) (frames [][]byte, valid int64, torn int64, err error) {
	size, err := f.Size()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("store: stat wal: %w", err)
	}
	var hdr [frameHeaderSize]byte
	off := int64(0)
	for off < size {
		if size-off < frameHeaderSize {
			return frames, off, size - off, nil // torn header
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return nil, 0, 0, fmt.Errorf("store: read wal header at %d: %w", off, err)
		}
		length := int64(binary.BigEndian.Uint32(hdr[0:4]))
		wantCRC := binary.BigEndian.Uint32(hdr[4:8])
		if length > MaxFrameSize || off+frameHeaderSize+length > size {
			// The declared payload cannot fit in the file: either the
			// header itself is torn garbage or the payload write was
			// interrupted. Both are tail damage.
			return frames, off, size - off, nil
		}
		payload := make([]byte, length)
		if length > 0 {
			if _, err := f.ReadAt(payload, off+frameHeaderSize); err != nil && err != io.EOF {
				return nil, 0, 0, fmt.Errorf("store: read wal payload at %d: %w", off, err)
			}
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			if off+frameHeaderSize+length == size {
				// Final frame: header landed, payload only partially —
				// a torn tail, truncatable.
				return frames, off, size - off, nil
			}
			return nil, 0, 0, &CorruptError{
				Height: uint64(len(frames) + 1), Offset: off,
				Reason: "wal frame checksum mismatch with intact frames after it",
			}
		}
		frames = append(frames, payload)
		off += frameHeaderSize + length
	}
	return frames, off, 0, nil
}

// Append writes one frame at the end of the log and group-commits: the
// fsync happens once every syncEvery appends (call Sync for an
// explicit barrier). A failed write is erased by truncating back to
// the last good boundary; if that also fails the WAL is broken — every
// later append fails fast and recovery will truncate the torn tail.
func (w *WAL) Append(payload []byte) (int64, error) {
	if int64(len(payload)) > MaxFrameSize {
		return 0, fmt.Errorf("store: frame payload %d exceeds max %d", len(payload), MaxFrameSize)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		return 0, fmt.Errorf("store: wal broken by earlier failed append")
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	writeFrameHeader(frame, payload)
	copy(frame[frameHeaderSize:], payload)

	off := w.size
	n, err := w.f.WriteAt(frame, off)
	if err != nil || n < len(frame) {
		if err == nil {
			err = io.ErrShortWrite
		}
		// Erase the partial frame so the next append starts on a clean
		// boundary. If the disk refuses, stop appending: the torn
		// bytes stay on disk for recovery to truncate.
		if terr := w.f.Truncate(off); terr != nil {
			w.broken = true
		}
		return 0, fmt.Errorf("store: wal append at %d: %w", off, err)
	}
	w.size += int64(len(frame))
	w.frames++
	w.unsynced++
	if w.unsynced >= w.syncEvery {
		if err := w.syncLocked(); err != nil {
			return off, err
		}
	}
	return off, nil
}

// Sync flushes all appended frames to durable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.unsynced == 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal sync: %w", err)
	}
	w.unsynced = 0
	return nil
}

// Size returns the byte length of the valid frame log.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Frames returns the number of appended frames (including recovered
// ones).
func (w *WAL) Frames() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.frames
}

// Close releases the file handle WITHOUT a final sync — Close models
// the handle disappearing, not a graceful shutdown. Callers that want
// a durable shutdown call Sync first (chain.Node.Close does).
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
