package contract

import (
	"fmt"

	"medchain/internal/cryptoutil"
	"medchain/internal/merkle"
)

// MaxManifestBatch caps the entries one "register_manifests"
// transaction may anchor, bounding tx size and per-block event volume
// the same way maxEvidenceBytes bounds audit reports.
const MaxManifestBatch = 256

// ManifestEntry anchors one off-chain record blob: the record ID and
// the merkle root of its chunk manifest (blob.Manifest.Root). The
// bytes themselves never touch the chain.
type ManifestEntry struct {
	// Record is the record identifier within the dataset.
	Record string `json:"record"`
	// Root is the manifest's merkle root over the record's chunk
	// digests.
	Root cryptoutil.Digest `json:"root"`
}

// RegisterManifestsArgs are the args of data/"register_manifests": a
// batch of record manifests anchored under one dataset. BatchRoot
// must equal ManifestBatchRoot(Entries) — the contract recomputes it,
// so a proposer cannot anchor a root the entries do not hash to.
type RegisterManifestsArgs struct {
	Dataset string `json:"dataset"`
	// Format is the EMR encoding of the anchored blobs
	// (emr.FormatHL7/CSV/FHIR); informational for indexers.
	Format    string            `json:"format,omitempty"`
	BatchRoot cryptoutil.Digest `json:"batch_root"`
	Entries   []ManifestEntry   `json:"entries"`
}

// ManifestSet is the compact per-dataset accumulator kept in state:
// the chain stores only counts and a rolling root, while the full
// entry list rides the ManifestsAnchored event for chain-tailing
// indexers. The rolling root commits to every batch in order, so two
// replicas with the same anchor history agree bit-for-bit.
type ManifestSet struct {
	// Dataset is the owning dataset ID.
	Dataset string `json:"dataset"`
	// Count is the total entries anchored across all batches.
	Count int `json:"count"`
	// Batches is how many register_manifests batches landed.
	Batches int `json:"batches"`
	// Root is the rolling commitment: hash(prevRoot, batchRoot) per
	// batch, starting from the zero digest.
	Root cryptoutil.Digest `json:"root"`
	// UpdatedAt is the chain timestamp of the latest batch.
	UpdatedAt int64 `json:"updated_at"`
}

// ManifestsAnchored is the payload of ManifestsAnchored events — the
// feed a chain-tailing indexer consumes. It carries the full entry
// list (which state does not retain) plus the post-batch accumulator
// so a tailer can detect gaps.
type ManifestsAnchored struct {
	Dataset   string            `json:"dataset"`
	Format    string            `json:"format,omitempty"`
	BatchRoot cryptoutil.Digest `json:"batch_root"`
	Entries   []ManifestEntry   `json:"entries"`
	// Batch is the 1-based batch sequence number within the dataset.
	Batch int `json:"batch"`
	// Count is the dataset's total anchored entries after this batch.
	Count int `json:"count"`
	// SetRoot is the dataset's rolling manifest-set root after this
	// batch.
	SetRoot cryptoutil.Digest `json:"set_root"`
}

// ManifestBatchRoot computes the merkle root over a batch's entries.
// Each leaf binds the record ID to its manifest root, so reordering,
// renaming, or swapping roots all change the batch root.
func ManifestBatchRoot(entries []ManifestEntry) cryptoutil.Digest {
	leaves := make([][]byte, len(entries))
	for i, e := range entries {
		leaf := make([]byte, 0, len(e.Record)+1+cryptoutil.DigestSize)
		leaf = append(leaf, e.Record...)
		leaf = append(leaf, 0)
		leaf = append(leaf, e.Root[:]...)
		leaves[i] = leaf
	}
	return merkle.RootOf(leaves)
}

// registerManifests handles data/"register_manifests": only the
// dataset owner anchors manifests, the batch must be structurally
// valid, and the claimed batch root must match the entries.
func (s *State) registerManifests(x *env, a *RegisterManifestsArgs) error {
	ds, ok := s.datasets[a.Dataset]
	if !ok {
		return fmt.Errorf("%w: dataset %q", ErrNotFound, a.Dataset)
	}
	if x.tx.From != ds.Owner {
		return fmt.Errorf("%w: only the owner anchors manifests for %q", ErrNotOwner, a.Dataset)
	}
	if len(a.Entries) == 0 {
		return fmt.Errorf("%w: empty manifest batch", ErrBadArgs)
	}
	if len(a.Entries) > MaxManifestBatch {
		return fmt.Errorf("%w: %d entries exceeds batch cap %d", ErrBadArgs, len(a.Entries), MaxManifestBatch)
	}
	for i, e := range a.Entries {
		if e.Record == "" {
			return fmt.Errorf("%w: entry %d has empty record ID", ErrBadArgs, i)
		}
	}
	if root := ManifestBatchRoot(a.Entries); root != a.BatchRoot {
		return fmt.Errorf("%w: batch root %s does not cover the entries (computed %s)",
			ErrBadArgs, a.BatchRoot.Short(), root.Short())
	}
	ms, ok := s.manifestSets[a.Dataset]
	if !ok {
		ms = &ManifestSet{Dataset: a.Dataset}
		s.manifestSets[a.Dataset] = ms
	}
	ms.Count += len(a.Entries)
	ms.Batches++
	ms.Root = cryptoutil.SumAll(ms.Root[:], a.BatchRoot[:])
	ms.UpdatedAt = x.now
	s.emit(x.r, DataContractAddr, "ManifestsAnchored", ManifestsAnchored{
		Dataset: a.Dataset, Format: a.Format, BatchRoot: a.BatchRoot,
		Entries: a.Entries, Batch: ms.Batches, Count: ms.Count, SetRoot: ms.Root,
	})
	return nil
}

// ManifestSetOf returns a copy of the dataset's manifest accumulator.
func (s *State) ManifestSetOf(dataset string) (ManifestSet, bool) {
	return manifestKind.get(s, dataset)
}

// ManifestSets returns the dataset IDs with anchored manifests, sorted.
func (s *State) ManifestSets() []string { return manifestKind.keys(s) }
