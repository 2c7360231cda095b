package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

// subRNG derives an independent generator per (seed, purpose), so adding
// a draw to one stream never shifts another.
func subRNG(seed int64, purpose string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("medchain/bench/%d/%s", seed, purpose)))
	return rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(h[:8]))))
}

func mustKey(seed int64, name string) *cryptoutil.KeyPair {
	kp, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("bench/%d/%s", seed, name))
	if err != nil {
		panic(err) // derivation only fails on a broken curve implementation
	}
	return kp
}

func randDigest(rng *rand.Rand) cryptoutil.Digest {
	var d cryptoutil.Digest
	rng.Read(d[:])
	return d
}

// actor is a signing identity and its next nonce on one chain.
type actor struct {
	key   *cryptoutil.KeyPair
	nonce uint64
}

// stx is a pre-signed transaction with its ID computed once.
type stx struct {
	tx *ledger.Transaction
	id cryptoutil.Digest
}

// signer builds and signs transactions with a logical clock, so a
// stream is a pure function of the seed.
type signer struct{ ts int64 }

func (s *signer) sign(a *actor, typ ledger.TxType, method string, args any) stx {
	raw, err := json.Marshal(args)
	if err != nil {
		panic(err) // argument structs are plain data
	}
	s.ts++
	tx := &ledger.Transaction{Type: typ, Nonce: a.nonce, Method: method, Args: raw, Timestamp: s.ts}
	a.nonce++
	if err := tx.Sign(a.key); err != nil {
		panic(err)
	}
	return stx{tx: tx, id: tx.ID()}
}

// streamDigest identifies a pre-signed stream: same seed, same digest.
func streamDigest(streams ...[]stx) string {
	h := sha256.New()
	for _, s := range streams {
		for _, t := range s {
			h.Write(t.id[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Hospital-mix population. Owners and researchers are split by parity
// between the two clients, so each client submits its own senders'
// transactions in nonce order without coordinating with the other.
const (
	hospOwners      = 16
	hospResearchers = 8
	hospClients     = 2
	hospTrials      = 8
	manifestEntries = 16
)

// hospital generates the chain-mix / chain-bigstate traffic: the
// working set registered in set-up and the measured streams over it.
type hospital struct {
	seed        int64
	signer      signer
	owners      [hospOwners]*actor
	researchers [hospResearchers]*actor
	enrollers   [hospClients]*actor
	datasets    int // working-set size; dataset d is owned by owner d%16 and readable by researcher d%8
	// per-client generator state
	rng       [hospClients]*rand.Rand
	openGrant [hospClients]int // dataset with an outstanding temp grant, -1 if none
	serial    [hospClients]int
}

func newHospital(seed int64, datasets int) *hospital {
	h := &hospital{seed: seed, datasets: datasets}
	for i := range h.owners {
		h.owners[i] = &actor{key: mustKey(seed, fmt.Sprintf("owner-%d", i))}
	}
	for i := range h.researchers {
		h.researchers[i] = &actor{key: mustKey(seed, fmt.Sprintf("researcher-%d", i))}
	}
	for i := range h.enrollers {
		h.enrollers[i] = &actor{key: mustKey(seed, fmt.Sprintf("enroller-%d", i))}
		h.rng[i] = subRNG(seed, fmt.Sprintf("hospital-client-%d", i))
		h.openGrant[i] = -1
	}
	return h
}

func (h *hospital) datasetID(d int) string { return fmt.Sprintf("s%d/ds-%05d", h.seed, d) }
func (h *hospital) trialID(t int) string   { return fmt.Sprintf("s%d/trial-%d", h.seed, t) }

// tempGrantee is the address grant/revoke pairs act on; it never
// requests access, so revoking it cannot fail a later request.
func (h *hospital) tempGrantee(client int) cryptoutil.Address {
	return cryptoutil.NamedAddress(fmt.Sprintf("bench/%d/temp-grantee-%d", h.seed, client))
}

// prefill returns the set-up transactions: the working set (one
// dataset registration and one standing research grant each), the
// trials, and extra further datasets that only add state.
func (h *hospital) prefill(extra int) []stx {
	rng := subRNG(h.seed, "hospital-prefill")
	out := make([]stx, 0, 2*h.datasets+hospTrials+extra)
	for d := 0; d < h.datasets+extra; d++ {
		out = append(out, h.signer.sign(h.owners[d%hospOwners], ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{
			ID: h.datasetID(d), Digest: randDigest(rng), Schema: "cdf/v1", Records: 100 + rng.Intn(900),
			SiteID: fmt.Sprintf("site-%d", d%hospOwners),
		}))
	}
	for d := 0; d < h.datasets; d++ {
		out = append(out, h.signer.sign(h.owners[d%hospOwners], ledger.TxData, "grant", contract.GrantArgs{
			Resource: "data:" + h.datasetID(d), Grantee: h.researchers[d%hospResearchers].key.Address(),
			Actions: []contract.Action{contract.ActionRead}, Purpose: "research",
		}))
	}
	for t := 0; t < hospTrials; t++ {
		out = append(out, h.signer.sign(h.enrollers[t%hospClients], ledger.TxTrial, "register_trial", contract.RegisterTrialArgs{
			ID: h.trialID(t), ProtocolDigest: randDigest(rng), PrimaryOutcomes: []string{"hba1c", "mortality"},
		}))
	}
	return out
}

// pick returns a working-set dataset whose index is congruent to want
// modulo mod.
func (h *hospital) pick(rng *rand.Rand, want, mod int) int {
	return want + mod*rng.Intn(h.datasets/mod)
}

// stream pre-signs n transactions of the hospital mix for one client:
// 40 % request_access, 20 % grant/revoke pairs, 15 % update_dataset,
// 10 % register_dataset, 10 % register_manifests, 5 % enroll.
func (h *hospital) stream(client, n int) []stx {
	rng := h.rng[client]
	out := make([]stx, 0, n)
	for len(out) < n {
		h.serial[client]++
		serial := h.serial[client]
		owner := client + hospClients*rng.Intn(hospOwners/hospClients)
		switch p := rng.Intn(100); {
		case p < 40:
			r := client + hospClients*rng.Intn(hospResearchers/hospClients)
			out = append(out, h.signer.sign(h.researchers[r], ledger.TxData, "request_access", contract.RequestAccessArgs{
				Resource: "data:" + h.datasetID(h.pick(rng, r, hospResearchers)), Action: contract.ActionRead, Purpose: "research",
			}))
		case p < 60:
			if d := h.openGrant[client]; d >= 0 {
				out = append(out, h.signer.sign(h.owners[d%hospOwners], ledger.TxData, "revoke", contract.RevokeArgs{
					Resource: "data:" + h.datasetID(d), Grantee: h.tempGrantee(client),
				}))
				h.openGrant[client] = -1
				continue
			}
			d := h.pick(rng, owner, hospOwners)
			out = append(out, h.signer.sign(h.owners[owner], ledger.TxData, "grant", contract.GrantArgs{
				Resource: "data:" + h.datasetID(d), Grantee: h.tempGrantee(client),
				Actions: []contract.Action{contract.ActionRead, contract.ActionExecute}, Purpose: "audit", MaxUses: 3,
			}))
			h.openGrant[client] = d
		case p < 75:
			out = append(out, h.signer.sign(h.owners[owner], ledger.TxData, "update_dataset", contract.RegisterDatasetArgs{
				ID: h.datasetID(h.pick(rng, owner, hospOwners)), Digest: randDigest(rng), Records: 100 + rng.Intn(900),
			}))
		case p < 85:
			out = append(out, h.signer.sign(h.owners[owner], ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{
				ID: fmt.Sprintf("s%d/new-%d-%06d", h.seed, client, serial), Digest: randDigest(rng), Schema: "cdf/v1",
				Records: 100 + rng.Intn(900), SiteID: fmt.Sprintf("site-%d", owner),
			}))
		case p < 95:
			entries := make([]contract.ManifestEntry, manifestEntries)
			for j := range entries {
				entries[j] = contract.ManifestEntry{Record: fmt.Sprintf("rec-%d-%06d-%02d", client, serial, j), Root: randDigest(rng)}
			}
			out = append(out, h.signer.sign(h.owners[owner], ledger.TxData, "register_manifests", contract.RegisterManifestsArgs{
				Dataset: h.datasetID(h.pick(rng, owner, hospOwners)), Format: "fhir",
				BatchRoot: contract.ManifestBatchRoot(entries), Entries: entries,
			}))
		default:
			out = append(out, h.signer.sign(h.enrollers[client], ledger.TxTrial, "enroll", contract.EnrollArgs{
				Trial: h.trialID(rng.Intn(hospTrials)), Patient: fmt.Sprintf("pt-%d-%06d", client, serial),
				Site: fmt.Sprintf("site-%d", owner),
			}))
		}
	}
	return out
}

// interleave merges per-client streams round-robin into one submission
// order that keeps every sender's nonces ascending.
func interleave(streams ...[]stx) []stx {
	var out []stx
	for i := 0; ; i++ {
		more := false
		for _, s := range streams {
			if i < len(s) {
				out = append(out, s[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}
