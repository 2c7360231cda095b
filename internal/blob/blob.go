// Package blob is the content-addressed off-chain data plane: records
// are split into fixed-size chunks, each chunk stored under its own
// digest, and a per-record manifest (the ordered chunk digests plus
// their merkle root) describes how to reassemble the bytes. Only the
// manifest root is anchored on chain (contract method
// "register_manifests"); the bytes live in per-site local stores
// backed by internal/store.FS, so FaultFS gives the same torn-write
// and corruption injection the durable chain storage gets.
//
// Every read re-verifies content addressing end to end: each chunk's
// bytes must hash to the digest it is stored under (ErrChunkCorrupt),
// every chunk named by a manifest must exist (ErrChunkMissing), and
// the manifest's chunk list must hash to its merkle root
// (ErrManifestMismatch). A torn chunk write — FaultFS persisting a
// random prefix — therefore can never serve silently: the partial
// bytes no longer hash to the chunk's address.
package blob

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"medchain/internal/cryptoutil"
	"medchain/internal/merkle"
	"medchain/internal/store"
)

// DefaultChunkSize is the chunking granularity when a Store is opened
// with chunk size 0. Small enough that a multi-encounter EMR record
// spans several chunks (so manifests exercise real merkle trees),
// large enough to keep per-chunk overhead negligible.
const DefaultChunkSize = 4 << 10

// Typed integrity errors. Callers branch on these with errors.Is.
var (
	// ErrChunkMissing: a manifest names a chunk the store does not hold.
	ErrChunkMissing = errors.New("blob: chunk missing")
	// ErrChunkCorrupt: a chunk's stored bytes do not hash to its key
	// (torn write, bit rot, or tampering).
	ErrChunkCorrupt = errors.New("blob: chunk bytes do not hash to key")
	// ErrManifestMissing: no manifest is stored for the record.
	ErrManifestMissing = errors.New("blob: manifest missing")
	// ErrManifestMismatch: a manifest's chunk list does not hash to its
	// merkle root, or the reassembled bytes contradict its size.
	ErrManifestMismatch = errors.New("blob: manifest root mismatch")
)

// Manifest describes one record blob: the ordered chunk digests and
// the merkle root over them. The root is what "register_manifests"
// anchors on chain; everything else stays off chain with the bytes.
type Manifest struct {
	// Record is the record identifier (patient ID within a dataset).
	Record string `json:"record"`
	// Format is the EMR encoding of the blob (emr.FormatHL7/CSV/FHIR).
	Format string `json:"format,omitempty"`
	// Size is the total blob length in bytes.
	Size int64 `json:"size"`
	// ChunkSize is the chunking granularity the blob was written with.
	ChunkSize int `json:"chunk_size"`
	// Chunks are the content addresses of the blob's chunks, in order.
	Chunks []cryptoutil.Digest `json:"chunks"`
	// Root is merkle.RootOf over the chunk digests.
	Root cryptoutil.Digest `json:"root"`
}

// ManifestRoot computes the merkle root over an ordered chunk list —
// the value a manifest commits to and the chain anchors.
func ManifestRoot(chunks []cryptoutil.Digest) cryptoutil.Digest {
	leaves := make([][]byte, len(chunks))
	for i, c := range chunks {
		leaves[i] = c.Bytes()
	}
	return merkle.RootOf(leaves)
}

// Verify checks the manifest's internal consistency: the chunk list
// must hash to the root and the chunk count must cover the size.
func (m *Manifest) Verify() error {
	if m.ChunkSize <= 0 || m.Size < 0 {
		return fmt.Errorf("%w: record %q: chunk size %d, size %d", ErrManifestMismatch, m.Record, m.ChunkSize, m.Size)
	}
	want := m.Size / int64(m.ChunkSize)
	if m.Size%int64(m.ChunkSize) != 0 {
		want++
	}
	if int64(len(m.Chunks)) != want {
		return fmt.Errorf("%w: record %q: %d chunks cannot cover %d bytes at chunk size %d",
			ErrManifestMismatch, m.Record, len(m.Chunks), m.Size, m.ChunkSize)
	}
	if root := ManifestRoot(m.Chunks); root != m.Root {
		return fmt.Errorf("%w: record %q: chunks hash to %s, manifest claims %s",
			ErrManifestMismatch, m.Record, root.Short(), m.Root.Short())
	}
	return nil
}

// clone returns a deep copy so callers cannot mutate store internals.
func (m *Manifest) clone() *Manifest {
	cp := *m
	cp.Chunks = append([]cryptoutil.Digest(nil), m.Chunks...)
	return &cp
}

// Chunk splits data into size-byte chunks (the last one may be
// shorter). Empty data yields no chunks.
func Chunk(data []byte, size int) [][]byte {
	if size <= 0 {
		size = DefaultChunkSize
	}
	var out [][]byte
	for off := 0; off < len(data); off += size {
		end := off + size
		if end > len(data) {
			end = len(data)
		}
		out = append(out, data[off:end])
	}
	return out
}

// Store is one site's local content-addressed blob store. Chunks live
// under <dir>/chunks/<hex-prefix>/<hex>, manifests under
// <dir>/manifests/. All I/O goes through a store.FS, so the same
// store runs on disk, in memory, or under fault injection.
type Store struct {
	fs        store.FS
	dir       string
	chunkSize int

	mu        sync.RWMutex
	manifests map[string]*Manifest
}

// Open creates (or reopens) a blob store rooted at dir. chunkSize 0
// selects DefaultChunkSize. Existing manifests are loaded and
// verified against their roots; bytes are verified lazily on read.
func Open(fsys store.FS, dir string, chunkSize int) (*Store, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	s := &Store{fs: fsys, dir: dir, chunkSize: chunkSize, manifests: make(map[string]*Manifest)}
	for _, sub := range []string{s.chunkDir(), s.manifestDir()} {
		if err := fsys.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("blob: open %s: %w", dir, err)
		}
	}
	names, err := fsys.ReadDir(s.manifestDir())
	if err != nil {
		return nil, fmt.Errorf("blob: open %s: %w", dir, err)
	}
	for _, name := range names {
		raw, err := store.ReadFile(fsys, store.Join(s.manifestDir(), name))
		if err != nil {
			return nil, fmt.Errorf("blob: load manifest %s: %w", name, err)
		}
		var m Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("%w: manifest file %s: %v", ErrManifestMismatch, name, err)
		}
		if err := m.Verify(); err != nil {
			return nil, err
		}
		s.manifests[m.Record] = &m
	}
	return s, nil
}

func (s *Store) chunkDir() string    { return store.Join(s.dir, "chunks") }
func (s *Store) manifestDir() string { return store.Join(s.dir, "manifests") }

func (s *Store) chunkPath(d cryptoutil.Digest) string {
	hex := d.String()
	return store.Join(s.chunkDir(), hex[:2], hex)
}

// manifestPath hashes the record ID into the file name so record IDs
// with path separators (dataset-style names) stay single files.
func (s *Store) manifestPath(record string) string {
	return store.Join(s.manifestDir(), cryptoutil.Sum([]byte(record)).String()+".json")
}

// ChunkSize returns the store's chunking granularity.
func (s *Store) ChunkSize() int { return s.chunkSize }

// Len returns the number of records with a stored manifest.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.manifests)
}

// Records returns the stored record IDs, sorted.
func (s *Store) Records() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.manifests))
	for id := range s.manifests {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Manifest returns the stored manifest for a record.
func (s *Store) Manifest(record string) (*Manifest, error) {
	s.mu.RLock()
	m, ok := s.manifests[record]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: record %q", ErrManifestMissing, record)
	}
	return m.clone(), nil
}

// Put chunks data, stores every chunk under its content address, and
// publishes the record's manifest. Double-put of identical bytes is
// idempotent (same manifest back, no rewrites); putting different
// bytes for an existing record supersedes its manifest while shared
// chunks are reused. A chunk file that already exists but fails
// verification (a torn write from an earlier faulty Put) is rewritten.
func (s *Store) Put(record, format string, data []byte) (*Manifest, error) {
	if record == "" {
		return nil, fmt.Errorf("blob: empty record ID")
	}
	chunks := Chunk(data, s.chunkSize)
	digests := make([]cryptoutil.Digest, len(chunks))
	for i, c := range chunks {
		digests[i] = cryptoutil.Sum(c)
	}
	m := &Manifest{
		Record:    record,
		Format:    format,
		Size:      int64(len(data)),
		ChunkSize: s.chunkSize,
		Chunks:    digests,
		Root:      ManifestRoot(digests),
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.manifests[record]; ok && prev.Root == m.Root && prev.Size == m.Size && prev.Format == m.Format {
		return prev.clone(), nil // idempotent double-put
	}
	for i, c := range chunks {
		if err := s.writeChunk(digests[i], c); err != nil {
			return nil, err
		}
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("blob: encode manifest %q: %w", record, err)
	}
	if err := s.writeAtomic(s.manifestPath(record), raw); err != nil {
		return nil, fmt.Errorf("blob: write manifest %q: %w", record, err)
	}
	s.manifests[record] = m
	return m.clone(), nil
}

// writeChunk stores one chunk at its content address. An existing
// chunk file is kept only if its bytes still hash to the address —
// otherwise (torn earlier write) it is overwritten in place. Chunks
// are written directly, not via rename: content addressing makes torn
// chunk bytes detectable at every read, so atomicity is unnecessary.
func (s *Store) writeChunk(d cryptoutil.Digest, data []byte) error {
	path := s.chunkPath(d)
	if existing, err := store.ReadFile(s.fs, path); err == nil {
		if cryptoutil.Sum(existing) == d {
			return nil // content-addressed dedupe
		}
	}
	if err := s.fs.MkdirAll(store.Join(s.chunkDir(), d.String()[:2]), 0o755); err != nil {
		return fmt.Errorf("blob: chunk dir %s: %w", d.Short(), err)
	}
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("blob: create chunk %s: %w", d.Short(), err)
	}
	defer f.Close()
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("blob: truncate chunk %s: %w", d.Short(), err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		return fmt.Errorf("blob: write chunk %s: %w", d.Short(), err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("blob: sync chunk %s: %w", d.Short(), err)
	}
	return nil
}

// writeAtomic publishes data via temp-file + rename (manifests must
// never be observed half-written).
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return s.fs.Rename(tmp, path)
}

// GetChunk returns one chunk's bytes, verified against its address.
func (s *Store) GetChunk(d cryptoutil.Digest) ([]byte, error) {
	data, err := store.ReadFile(s.fs, s.chunkPath(d))
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrChunkMissing, d.Short())
	}
	if cryptoutil.Sum(data) != d {
		return nil, fmt.Errorf("%w: chunk %s", ErrChunkCorrupt, d.Short())
	}
	return data, nil
}

// Get reassembles a record's blob with full integrity verification:
// the manifest's chunk list against its root, then every chunk's
// bytes against its address, then the total size.
func (s *Store) Get(record string) ([]byte, *Manifest, error) {
	m, err := s.Manifest(record)
	if err != nil {
		return nil, nil, err
	}
	data, err := s.GetManifest(m)
	return data, m, err
}

// GetManifest reassembles the blob a manifest describes. The manifest
// may come from this store or from the chain-tailed event stream —
// verification does not trust either source.
func (s *Store) GetManifest(m *Manifest) ([]byte, error) {
	if err := m.Verify(); err != nil {
		return nil, err
	}
	// The size and chunk size are the manifest's word, so the buffer
	// grows only by the bytes the chunks hold.
	chunks := make([][]byte, len(m.Chunks))
	for i, d := range m.Chunks {
		chunk, err := s.GetChunk(d)
		if err != nil {
			return nil, fmt.Errorf("record %q: %w", m.Record, err)
		}
		chunks[i] = chunk
	}
	data := bytes.Join(chunks, nil)
	if int64(len(data)) != m.Size {
		return nil, fmt.Errorf("%w: record %q: reassembled %d bytes, manifest claims %d",
			ErrManifestMismatch, m.Record, len(data), m.Size)
	}
	return data, nil
}
