package emr

import (
	"encoding/json"
	"fmt"
	"sort"

	"medchain/internal/cryptoutil"
)

// The reference canonical form: json.Marshal of a copy whose inner
// slices sort.Slice has sorted. FuzzEncodeAs holds Record.Canonical and
// DatasetDigest to it byte for byte.

// refCanonical returns the canonical JSON encoding of the record (sorted
// inner slices), suitable for hashing.
func refCanonical(r *Record) ([]byte, error) {
	cp := *r
	cp.Encounters = append([]Encounter(nil), r.Encounters...)
	sort.Slice(cp.Encounters, func(i, j int) bool { return cp.Encounters[i].ID < cp.Encounters[j].ID })
	cp.Labs = append([]LabResult(nil), r.Labs...)
	sort.Slice(cp.Labs, func(i, j int) bool {
		if cp.Labs[i].At != cp.Labs[j].At {
			return cp.Labs[i].At < cp.Labs[j].At
		}
		return cp.Labs[i].Code < cp.Labs[j].Code
	})
	cp.Genomics = append([]GenomicMarker(nil), r.Genomics...)
	sort.Slice(cp.Genomics, func(i, j int) bool { return cp.Genomics[i].Gene < cp.Genomics[j].Gene })
	cp.Vitals = append([]VitalSample(nil), r.Vitals...)
	sort.Slice(cp.Vitals, func(i, j int) bool {
		if cp.Vitals[i].At != cp.Vitals[j].At {
			return cp.Vitals[i].At < cp.Vitals[j].At
		}
		return cp.Vitals[i].Kind < cp.Vitals[j].Kind
	})
	cp.Conditions = append([]string(nil), r.Conditions...)
	sort.Strings(cp.Conditions)
	b, err := json.Marshal(&cp)
	if err != nil {
		return nil, fmt.Errorf("emr: canonicalize record: %w", err)
	}
	return b, nil
}

// refDatasetDigest computes a deterministic digest over a set of records
// (sorted by patient ID) — the value anchored on chain when a site
// registers its data set.
func refDatasetDigest(records []*Record) (cryptoutil.Digest, error) {
	sorted := append([]*Record(nil), records...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Patient.ID < sorted[j].Patient.ID })
	parts := make([][]byte, 0, len(sorted))
	for _, r := range sorted {
		d, err := refDigest(r)
		if err != nil {
			return cryptoutil.ZeroDigest, err
		}
		parts = append(parts, d.Bytes())
	}
	return cryptoutil.SumAll(parts...), nil
}

// refDigest is the reference Record.Digest.
func refDigest(r *Record) (cryptoutil.Digest, error) {
	b, err := refCanonical(r)
	if err != nil {
		return cryptoutil.ZeroDigest, err
	}
	return cryptoutil.Sum(b), nil
}
