package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Snapshot file layout: 4-byte magic "MSNP", 4-byte big-endian CRC32C
// of the payload, then the payload. Snapshots are written to a temp
// file, synced, and atomically renamed into place, so a snapshot file
// either exists completely or not at all — and a crash between the
// tmp write and the rename leaves only a stale tmp that recovery
// ignores. Names are height-tagged: snap-%016x.snap.
const (
	snapMagic  = "MSNP"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

// snapName returns the snapshot file name for a height.
func snapName(height uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, height, snapSuffix)
}

// snapHeight parses a snapshot file name; ok is false for other files.
func snapHeight(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	h, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 16, 64)
	if err != nil {
		return 0, false
	}
	return h, true
}

// WriteSnapshot durably publishes a height-tagged snapshot payload in
// dir.
func WriteSnapshot(fs FS, dir string, height uint64, payload []byte) error {
	buf := make([]byte, 8+len(payload))
	copy(buf[0:4], snapMagic)
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[8:], payload)
	return writeFileAtomic(fs, Join(dir, snapName(height)), buf)
}

// writeFileAtomic durably publishes buf as the file final via temp-file
// + fsync + atomic rename: final either holds all of buf or is not
// there.
func writeFileAtomic(fs FS, final string, buf []byte) error {
	tmp := final + tmpSuffix
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	if n, err := f.WriteAt(buf, 0); err != nil || n < len(buf) {
		f.Close()
		fs.Remove(tmp)
		if err == nil {
			err = fmt.Errorf("short write (%d/%d)", n, len(buf))
		}
		return fmt.Errorf("store: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return fmt.Errorf("store: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, final); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("store: publish %s: %w", final, err)
	}
	return nil
}

// snapshotHeights lists the heights of all snapshot files in dir,
// ascending.
func snapshotHeights(fs FS, dir string) ([]uint64, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: list snapshots: %w", err)
	}
	var heights []uint64
	for _, name := range names {
		if h, ok := snapHeight(name); ok {
			heights = append(heights, h)
		}
	}
	sort.Slice(heights, func(i, j int) bool { return heights[i] < heights[j] })
	return heights, nil
}

// LoadLatestSnapshot returns the payload of the newest snapshot in dir
// whose checksum verifies, skipping damaged ones (a torn snapshot is a
// recoverable condition — an older snapshot or a full WAL replay backs
// it up). height 0 with a nil payload means no usable snapshot.
func LoadLatestSnapshot(fs FS, dir string) (height uint64, payload []byte, err error) {
	heights, err := snapshotHeights(fs, dir)
	if err != nil {
		return 0, nil, err
	}
	for i := len(heights) - 1; i >= 0; i-- {
		h := heights[i]
		buf, err := ReadFile(fs, Join(dir, snapName(h)))
		if err != nil {
			continue
		}
		if len(buf) < 8 || string(buf[0:4]) != snapMagic {
			continue
		}
		body := buf[8:]
		if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(buf[4:8]) {
			continue
		}
		return h, body, nil
	}
	return 0, nil, nil
}

// snapshotKeep is how many snapshots are retained: two, so a torn
// newest snapshot always has a fallback.
const snapshotKeep = 2

// PruneSnapshots removes all but the newest snapshotKeep snapshots (and
// any stale tmp files).
func PruneSnapshots(fs FS, dir string) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			fs.Remove(Join(dir, name))
		}
	}
	heights, err := snapshotHeights(fs, dir)
	if err != nil || len(heights) <= snapshotKeep {
		return
	}
	for _, h := range heights[:len(heights)-snapshotKeep] {
		fs.Remove(Join(dir, snapName(h)))
	}
}
