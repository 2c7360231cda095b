package blob

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"

	"medchain/internal/cryptoutil"
	"medchain/internal/store"
)

func mustOpen(t testing.TB, fs store.FS, chunkSize int) *Store {
	t.Helper()
	s, err := Open(fs, "blobs", chunkSize)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

func blobData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	return data
}

func TestRoundTrip(t *testing.T) {
	fs := store.NewMemFS()
	s := mustOpen(t, fs, 64)
	for i, n := range []int{0, 1, 63, 64, 65, 64 * 7, 64*7 + 13} {
		record := fmt.Sprintf("P%05d", i)
		data := blobData(n)
		m, err := s.Put(record, "hl7", data)
		if err != nil {
			t.Fatalf("put %d bytes: %v", n, err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("manifest verify: %v", err)
		}
		wantChunks := (n + 63) / 64
		if len(m.Chunks) != wantChunks {
			t.Fatalf("%d bytes: %d chunks, want %d", n, len(m.Chunks), wantChunks)
		}
		got, gm, err := s.Get(record)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if !bytes.Equal(got, data) || gm.Root != m.Root {
			t.Fatalf("round trip mismatch for %d bytes", n)
		}
	}

	// Reopen over the same FS: manifests reload and bytes verify again.
	s2 := mustOpen(t, fs, 64)
	if s2.Len() != s.Len() {
		t.Fatalf("reopen lost manifests: %d vs %d", s2.Len(), s.Len())
	}
	got, _, err := s2.Get("P00006")
	if err != nil {
		t.Fatalf("get after reopen: %v", err)
	}
	if !bytes.Equal(got, blobData(64*7+13)) {
		t.Fatal("bytes changed across reopen")
	}
}

func TestDoublePutIdempotent(t *testing.T) {
	fs := store.NewMemFS()
	s := mustOpen(t, fs, 32)
	data := blobData(100)
	m1, err := s.Put("P1", "csv", data)
	if err != nil {
		t.Fatalf("first put: %v", err)
	}
	m2, err := s.Put("P1", "csv", data)
	if err != nil {
		t.Fatalf("double put: %v", err)
	}
	if m1.Root != m2.Root || m1.Size != m2.Size || len(m1.Chunks) != len(m2.Chunks) {
		t.Fatalf("double put changed the manifest: %+v vs %+v", m1, m2)
	}
	// Superseding bytes replaces the manifest; the new content serves.
	next := blobData(150)
	m3, err := s.Put("P1", "csv", next)
	if err != nil {
		t.Fatalf("supersede put: %v", err)
	}
	if m3.Root == m1.Root {
		t.Fatal("different bytes produced the same root")
	}
	got, _, err := s.Get("P1")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(got, next) {
		t.Fatal("superseded record served stale bytes")
	}
}

// TestTornChunkWrite injects a torn chunk write (FaultFS persists a
// random prefix and errors): Put must surface the injected fault, the
// torn chunk must read back as ErrChunkCorrupt — never as silent
// partial data — and a later Put over a healthy path must detect and
// rewrite the torn bytes.
func TestTornChunkWrite(t *testing.T) {
	base := store.NewMemFS()
	torn := store.NewFaultFS(base, store.FaultConfig{Seed: 1, TornWriteProb: 1})
	s := mustOpen(t, torn, 0)
	data := blobData(5000)
	if _, err := s.Put("P1", "fhir", data); !errors.Is(err, store.ErrInjectedFault) {
		t.Fatalf("torn put error = %v, want injected fault", err)
	}
	// No manifest was published, so the record reads as typed-missing.
	if _, _, err := s.Get("P1"); !errors.Is(err, ErrManifestMissing) {
		t.Fatalf("get after torn put = %v, want ErrManifestMissing", err)
	}
	// The torn chunk file exists with prefix bytes; content addressing
	// refuses it.
	d := cryptoutil.Sum(Chunk(data, DefaultChunkSize)[0])
	if _, err := s.GetChunk(d); !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("torn chunk read = %v, want ErrChunkCorrupt", err)
	}
	// A healthy re-put verifies the existing (torn) chunk file, rewrites
	// it, and the record round-trips.
	healthy := mustOpen(t, base, 0)
	if _, err := healthy.Put("P1", "fhir", data); err != nil {
		t.Fatalf("healthy re-put: %v", err)
	}
	got, _, err := healthy.Get("P1")
	if err != nil {
		t.Fatalf("get after re-put: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("re-put served wrong bytes")
	}
}

func TestChunkCorruptAndMissing(t *testing.T) {
	fs := store.NewMemFS()
	s := mustOpen(t, fs, 32)
	data := blobData(90)
	m, err := s.Put("P1", "hl7", data)
	if err != nil {
		t.Fatalf("put: %v", err)
	}

	// Flip bytes of the middle chunk in place: Get must refuse typed.
	path := s.chunkPath(m.Chunks[1])
	f, err := fs.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open chunk: %v", err)
	}
	if _, err := f.WriteAt([]byte("XX"), 0); err != nil {
		t.Fatalf("corrupt chunk: %v", err)
	}
	f.Close()
	if _, _, err := s.Get("P1"); !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("get with corrupt chunk = %v, want ErrChunkCorrupt", err)
	}

	// Remove the chunk entirely: typed missing.
	if err := fs.Remove(path); err != nil {
		t.Fatalf("remove chunk: %v", err)
	}
	if _, _, err := s.Get("P1"); !errors.Is(err, ErrChunkMissing) {
		t.Fatalf("get with missing chunk = %v, want ErrChunkMissing", err)
	}
}

func TestManifestMismatch(t *testing.T) {
	fs := store.NewMemFS()
	s := mustOpen(t, fs, 32)
	if _, err := s.Put("P1", "csv", blobData(100)); err != nil {
		t.Fatalf("put: %v", err)
	}

	// A manifest whose root does not cover its chunk list is refused,
	// wherever it came from.
	m, err := s.Manifest("P1")
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	m.Root = cryptoutil.Sum([]byte("forged"))
	if _, err := s.GetManifest(m); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("forged-root get = %v, want ErrManifestMismatch", err)
	}

	// Tamper the stored manifest file: reopen must refuse to load it.
	good, _ := s.Manifest("P1")
	good.Root = cryptoutil.Sum([]byte("tampered"))
	raw, _ := json.Marshal(good)
	path := s.manifestPath("P1")
	f, err := fs.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open manifest: %v", err)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(fs, "blobs", 32); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("open with tampered manifest = %v, want ErrManifestMismatch", err)
	}
}

func TestChunkHelper(t *testing.T) {
	if got := Chunk(nil, 16); len(got) != 0 {
		t.Fatalf("empty data chunked into %d pieces", len(got))
	}
	chunks := Chunk(blobData(33), 16)
	if len(chunks) != 3 || len(chunks[2]) != 1 {
		t.Fatalf("bad chunking: %d chunks, last %d bytes", len(chunks), len(chunks[len(chunks)-1]))
	}
	// Manifest root is order-sensitive.
	a, b := cryptoutil.Sum([]byte("a")), cryptoutil.Sum([]byte("b"))
	if ManifestRoot([]cryptoutil.Digest{a, b}) == ManifestRoot([]cryptoutil.Digest{b, a}) {
		t.Fatal("manifest root ignores chunk order")
	}
}

// writeManifestFile stores raw as a manifest file of the store at
// "blobs", where the next Open loads it.
func writeManifestFile(t testing.TB, fs store.FS, raw []byte) {
	t.Helper()
	f, err := fs.OpenFile(store.Join("blobs", "manifests", "hostile.json"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHostileManifestSizes refuses a negative size, whether the
// manifest comes to GetManifest or from a file Open loads, and reads a
// manifest that claims far more bytes than its chunk holds without
// allocating what it claims.
func TestHostileManifestSizes(t *testing.T) {
	fs := store.NewMemFS()
	s := mustOpen(t, fs, 32)
	negative := &Manifest{Record: "P1", Size: -5, ChunkSize: 32, Root: ManifestRoot(nil)}
	if _, err := s.GetManifest(negative); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("negative size: GetManifest = %v, want ErrManifestMismatch", err)
	}
	raw, err := json.Marshal(negative)
	if err != nil {
		t.Fatal(err)
	}
	writeManifestFile(t, fs, raw)
	if _, err := Open(fs, "blobs", 32); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("negative size: Open = %v, want ErrManifestMismatch", err)
	}

	m, err := s.Put("P2", "csv", blobData(20))
	if err != nil {
		t.Fatal(err)
	}
	const claimed = 64 << 20
	huge := &Manifest{Record: "P2", Size: claimed, ChunkSize: claimed, Chunks: m.Chunks, Root: m.Root}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = s.GetManifest(huge)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("oversized claim: GetManifest = %v, want ErrManifestMismatch", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > claimed/2 {
		t.Fatalf("a %d-byte claim allocated %d bytes for a 20-byte chunk", claimed, grew)
	}
}

// FuzzBlobOpen loads arbitrary bytes as a manifest file beside two
// stored records. Open never panics: it refuses the file with
// ErrManifestMismatch, or every record it loads reads back as its
// manifest's bytes or fails with one of the package's typed errors.
func FuzzBlobOpen(f *testing.F) {
	fs := store.NewMemFS()
	s := mustOpen(f, fs, 16)
	var stored []*Manifest
	for i, n := range []int{40, 0} {
		m, err := s.Put(fmt.Sprintf("P%d", i), "hl7", blobData(n))
		if err != nil {
			f.Fatal(err)
		}
		stored = append(stored, m)
	}
	seed := func(m *Manifest) {
		raw, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed(&Manifest{Record: "P9", Size: -5, ChunkSize: 32, Root: ManifestRoot(nil)})
	for _, m := range stored {
		seed(m)
	}
	one := stored[0].Chunks[:1]
	seed(&Manifest{Record: "P9", Size: 1 << 26, ChunkSize: 1 << 26, Chunks: one, Root: ManifestRoot(one)})
	seed(&Manifest{Record: "P0", Size: 40, ChunkSize: 16, Chunks: stored[0].Chunks[:2], Root: ManifestRoot(stored[0].Chunks[:2])})
	f.Add([]byte(`{"record":"P9","size":1e30,"chunk_size":16,"chunks":[],"root":"00"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		writeManifestFile(t, fs, raw)
		loaded, err := Open(fs, "blobs", 16)
		if err != nil {
			if !errors.Is(err, ErrManifestMismatch) {
				t.Fatalf("Open refused with an untyped error: %v", err)
			}
			return
		}
		for _, id := range loaded.Records() {
			data, m, err := loaded.Get(id)
			switch {
			case err == nil:
				if int64(len(data)) != m.Size {
					t.Fatalf("record %q: %d bytes, manifest claims %d", id, len(data), m.Size)
				}
			case errors.Is(err, ErrChunkMissing), errors.Is(err, ErrChunkCorrupt),
				errors.Is(err, ErrManifestMismatch), errors.Is(err, ErrManifestMissing):
			default:
				t.Fatalf("record %q: untyped error %v", id, err)
			}
		}
	})
}
