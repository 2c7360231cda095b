package store

import (
	"fmt"
	"os"
	"testing"
)

func openTestWAL(t testing.TB, fs FS, syncEvery int) (*WAL, [][]byte, int64) {
	t.Helper()
	w, frames, torn, err := OpenWAL(fs, "wal/block.wal", syncEvery)
	if err != nil {
		t.Fatal(err)
	}
	return w, frames, torn
}

func TestWALRoundTrip(t *testing.T) {
	fs := NewMemFS()
	w, frames, torn := openTestWAL(t, fs, 1)
	if len(frames) != 0 || torn != 0 {
		t.Fatalf("fresh wal has %d frames, %d torn bytes", len(frames), torn)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("payload-%d-%s", i, string(make([]byte, i*7))))
		want = append(want, p)
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	// An empty payload is a legal frame too.
	want = append(want, []byte{})
	if _, err := w.Append(nil); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, got, torn := openTestWAL(t, fs, 1)
	if torn != 0 {
		t.Fatalf("clean wal reports %d torn bytes", torn)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("frame %d: got %q want %q", i, got[i], want[i])
		}
	}
}

// Group commit trades a bounded durability window for fewer fsyncs:
// with syncEvery=4, a power loss after 6 appends must recover exactly
// the 4 synced frames — and exactly 0 if the window never filled.
func TestWALGroupCommitDurabilityWindow(t *testing.T) {
	appendSix := func(w *WAL) (payload int64) {
		for i := 0; i < 6; i++ {
			p := []byte(fmt.Sprintf("frame-%d", i))
			if _, err := w.Append(p); err != nil {
				t.Fatal(err)
			}
			payload += int64(len(p))
		}
		return payload
	}
	// The control: syncEvery=1 pays one fsync per frame.
	every := NewFaultFS(NewMemFS(), FaultConfig{})
	w1, _, _ := openTestWAL(t, every, 1)
	appendSix(w1)
	w1.Close()
	if got := every.Syncs(); got != 6 {
		t.Fatalf("6 appends at syncEvery=1 fsynced %d times, want 6", got)
	}

	mem := NewMemFS()
	fault := NewFaultFS(mem, FaultConfig{}) // zero faults: write and sync meter only
	w, _, _ := openTestWAL(t, fault, 4)
	payload := appendSix(w)
	if got := fault.Syncs(); got != 1 {
		t.Fatalf("6 appends at syncEvery=4 fsynced %d times, want 1", got)
	}
	if got := fault.BytesWritten(); got <= payload {
		t.Fatalf("%d bytes reached the disk for %d bytes of payload: frames carry no header", got, payload)
	}
	w.Close() // no implicit sync: this is the crash model
	mem.Crash()

	_, frames, torn := openTestWAL(t, mem, 1)
	if len(frames) != 4 {
		t.Fatalf("after crash: %d durable frames, want the 4 group-committed", len(frames))
	}
	if torn != 0 {
		// MemFS.Crash reverts to the synced prefix exactly, so no torn
		// bytes — torn tails come from mid-write crashes (FaultFS).
		t.Fatalf("crash left %d torn bytes", torn)
	}

	// An explicit Sync closes the window.
	w2, _, _ := openTestWAL(t, mem, 8)
	if _, err := w2.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	mem.Crash()
	_, frames, _ = openTestWAL(t, mem, 1)
	if len(frames) != 5 {
		t.Fatalf("explicit sync lost frames: %d, want 5", len(frames))
	}
}

// A frame whose declared length exceeds the cap is tail garbage, not
// an allocation request.
func TestWALOversizedLengthIsTornTail(t *testing.T) {
	fs := NewMemFS()
	w, _, _ := openTestWAL(t, fs, 1)
	if _, err := w.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	size := w.Size()
	w.Close()
	f, err := fs.OpenFile("wal/block.wal", os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, frameHeaderSize)
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0xff
	if _, err := f.WriteAt(hdr, size); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, frames, torn := openTestWAL(t, fs, 1)
	if len(frames) != 1 || torn != frameHeaderSize {
		t.Fatalf("oversized header: %d frames, %d torn, want 1/%d", len(frames), torn, frameHeaderSize)
	}
}

// A failed append must leave the log positioned so the NEXT append
// lands on a clean boundary — no gap, no overlap.
func TestWALAppendAfterInjectedTornWrite(t *testing.T) {
	mem := NewMemFS()
	fault := NewFaultFS(mem, FaultConfig{Seed: 7, TornWriteProb: 1})
	w, _, _ := openTestWAL(t, fault, 1)
	if _, err := w.Append([]byte("doomed")); err == nil {
		t.Fatal("append through a 100% torn-write disk succeeded")
	}
	// Disable the fault and retry on the same WAL.
	fault.mu.Lock()
	fault.cfg.TornWriteProb = 0
	fault.mu.Unlock()
	if _, err := w.Append([]byte("survivor")); err != nil {
		t.Fatalf("append after erased torn write: %v", err)
	}
	w.Close()
	_, frames, torn := openTestWAL(t, mem, 1)
	if torn != 0 || len(frames) != 1 || string(frames[0]) != "survivor" {
		t.Fatalf("recovered %d frames (torn %d): %q", len(frames), torn, frames)
	}
}
