package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"medchain/internal/analytics"
	"medchain/internal/blob"
	"medchain/internal/contract"
	"medchain/internal/core"
	"medchain/internal/emr"
	"medchain/internal/indexer"
	"medchain/internal/p2p"
	"medchain/internal/query"
)

// Sizes of platform-query at -seconds 10 -scale 1.
const (
	pqSites        = 4
	pqPatients     = 500 // per site
	pqIterations   = 400 // scaled
	pqIndexedPer   = 4   // indexed counts per iteration
	pqSummaryEvery = 16
	pqIngestEvery  = 4
	pqIngestBatch  = 8
	// An index rebuild takes ~0.4 s: cheap enough to repeat more often
	// than the other workloads' recoveries, which steadies its median.
	pqRebuildRepeats = 7
)

// pqStep is one scripted iteration: a transformed query, the indexed
// counts, and on some iterations an indexed summary and an ingest batch.
type pqStep struct {
	query   pqQuery // transformed; want is checked on count queries only
	indexed [pqIndexedPer]pqQuery
	summary pqQuery       // text "" on most iterations
	ingest  []*emr.Record // nil on most iterations
}

// pqQuery is a scripted query with its ground truth: how many of the
// generated records queryable at that point it selects. The scan runs
// in set-up so that checking answers costs the measured window nothing.
type pqQuery struct {
	text string
	want int
}

type platformRig struct {
	plat       *core.Platform
	researcher *core.Account
	records    []*emr.Record // every record the sites host (what transformed queries see)
	script     []pqStep
	digest     string
	setupTxs   int
}

func platformSetup(p params) (*platformRig, error) {
	plat, err := core.NewPlatform(core.Config{
		Sites: pqSites, PatientsPerSite: p.sized(pqPatients, 20), Seed: p.seed, Index: true,
		KeySeed: p.keySeed(),
		Network: p2p.Config{BaseLatency: injectedDelay, Seed: p.seed},
	})
	if err != nil {
		return nil, err
	}
	rig := &platformRig{plat: plat}
	if rig.researcher, err = plat.Acquire("researcher"); err != nil {
		plat.Close()
		return nil, err
	}
	actions := []contract.Action{contract.ActionRead, contract.ActionExecute}
	if err := plat.GrantAll(rig.researcher, actions, ""); err != nil {
		plat.Close()
		return nil, err
	}
	for _, site := range plat.Sites() {
		_ = site.Evaluate(func(rr []*emr.Record) error {
			rig.records = append(rig.records, rr...)
			return nil
		})
	}
	rig.setupTxs = chainTxs(plat.Cluster())

	rng := subRNG(p.seed, "platform-script")
	h := sha256.New()
	nextID := 1_000_000
	var ingested []*emr.Record
	var scriptErr error
	ask := func(text string, sets ...[]*emr.Record) pqQuery {
		v, err := query.Parse(text)
		if err != nil {
			scriptErr = err
			return pqQuery{text: text}
		}
		return pqQuery{text, truth(v, sets...)}
	}
	for i := 0; i < p.count(pqIterations); i++ {
		var st pqStep
		cond, sexWord, lo, hi := pqCohort(rng)
		switch i % 3 {
		case 0:
			st.query = ask(fmt.Sprintf("count %s with %s aged %d-%d", sexWord, cond, lo, hi), rig.records)
		case 1:
			st.query.text = fmt.Sprintf("average %s for %s with %s", pqLabs[rng.Intn(len(pqLabs))], sexWord, cond)
		default:
			st.query.text = fmt.Sprintf("survival of %s with %s over %d", sexWord, cond, lo)
		}
		for k := range st.indexed {
			cond, sexWord, lo, hi := pqCohort(rng)
			st.indexed[k] = ask(fmt.Sprintf("how many %s with %s aged %d-%d", sexWord, cond, lo, hi), rig.records, ingested)
		}
		if i%pqSummaryEvery == pqSummaryEvery-1 {
			// A wide age band keeps the cohort non-empty on every seed: an
			// empty one has no lab values and the platform reports an error.
			st.summary = ask(fmt.Sprintf("average glucose for patients with %s aged 40-80", pqConditions[rng.Intn(len(pqConditions))]), rig.records, ingested)
		}
		if i%pqIngestEvery == pqIngestEvery-1 {
			st.ingest = emr.NewGenerator(emr.GenConfig{
				Seed: p.seed*1_000_003 + int64(i), Patients: pqIngestBatch, StartID: nextID,
			}).Generate()
			nextID += pqIngestBatch
			ingested = append(ingested, st.ingest...)
		}
		fmt.Fprintln(h, st.query, st.indexed, st.summary)
		for _, r := range st.ingest {
			d, err := r.Digest()
			if err != nil {
				scriptErr = err
			}
			h.Write(d[:])
		}
		rig.script = append(rig.script, st)
	}
	if scriptErr != nil {
		plat.Close()
		return nil, fmt.Errorf("script: %w", scriptErr)
	}
	rig.digest = hex.EncodeToString(h.Sum(nil)[:16])
	return rig, nil
}

type platformRun struct {
	*tally
	window      time.Duration
	queries     int
	queryMS     samples // Platform.Query durations
	authMS      samples // Elapsed - ExecElapsed
	execMS      samples
	indexedUS   samples
	summaryMS   samples
	ingestS     float64
	ingested    int
	catchupUS   samples // SyncIndex per ingest step
	lagMax      uint64
	resultBytes samples
	recover     time.Duration
}

// scripted query phrasing; every phrase maps to one vocabulary entry so
// query.Parse is deterministic.
var (
	pqConditions = []string{emr.CondDiabetes, emr.CondStroke}
	pqLabs       = []string{"glucose", "ldl", "bmi"}
	pqSexWords   = []string{"patients", "women", "men"}
)

func pqCohort(rng *rand.Rand) (cond, sexWord string, lo, hi int) {
	lo = 30 + 5*rng.Intn(8)
	return pqConditions[rng.Intn(len(pqConditions))], pqSexWords[rng.Intn(len(pqSexWords))], lo, lo + 10 + 5*rng.Intn(5)
}

// truth counts the records a compiled query selects — the ground-truth
// scan index and transformed answers are checked against.
func truth(v *query.Vector, sets ...[]*emr.Record) int {
	q := v.IndexQuery()
	n := 0
	for _, set := range sets {
		for _, r := range set {
			if q.MatchRecord(r) {
				n++
			}
		}
	}
	return n
}

func runPlatform(rig *platformRig, tr *tracer) *platformRun {
	r := &platformRun{tally: &tally{}}
	plat := rig.plat

	t0 := time.Now()
	for i, step := range rig.script {
		seq := fmt.Sprint(i)
		q := step.query.text
		r.attempt(1)
		s := time.Now()
		res, err := plat.Query(rig.researcher, q)
		e := time.Now()
		switch {
		case err != nil:
			r.fail("query %q: %v", q, err)
		case res.SitesSucceeded != pqSites || len(res.Result) == 0:
			r.fail("query %q: %d of %d sites answered", q, res.SitesSucceeded, pqSites)
		default:
			ok := true
			if i%3 == 0 {
				var got analytics.CohortCountResult
				if err := json.Unmarshal(res.Result, &got); err != nil || got.Cases != step.query.want {
					r.fail("query %q: cases %d, ground truth %d (%v)", q, got.Cases, step.query.want, err)
					ok = false
				}
			}
			if ok {
				r.queries++
				r.queryMS.add(ms(e.Sub(s)))
				r.authMS.add(ms(res.Elapsed - res.ExecElapsed))
				r.execMS.add(ms(res.ExecElapsed))
				r.resultBytes.add(float64(res.ResultBytes))
				tr.add("core.query", seq, "", s, e)
				tr.add("offchain.exec", seq, "core.query", e.Add(-res.ExecElapsed), e)
			}
		}

		for _, q := range step.indexed {
			r.attempt(1)
			s := time.Now()
			res, err := plat.QueryIndexed(rig.researcher, q.text)
			r.indexedUS.addSince(s, time.Microsecond)
			if err != nil {
				r.fail("indexed %q: %v", q.text, err)
			} else if res.Count != q.want {
				r.fail("indexed %q: count %d, ground truth %d", q.text, res.Count, q.want)
			} else {
				r.queries++
			}
		}

		if q := step.summary; q.text != "" {
			r.attempt(1)
			s := time.Now()
			res, err := plat.QueryIndexed(rig.researcher, q.text)
			e := time.Now()
			if err != nil {
				r.fail("indexed summary %q: %v", q.text, err)
			} else if res.Count != q.want {
				r.fail("indexed summary %q: %d records, ground truth %d", q.text, res.Count, q.want)
			} else {
				r.queries++
				r.summaryMS.add(ms(e.Sub(s)))
				tr.add("core.indexed_summary", seq, "", s, e)
			}
		}

		if batch := step.ingest; batch != nil {
			site := fmt.Sprintf("site-%d", (i/pqIngestEvery)%pqSites)
			r.attempt(1)
			s := time.Now()
			err := plat.IngestBlobs(site, batch)
			m := time.Now()
			if err != nil {
				r.fail("ingest at %s: %v", site, err)
				continue
			}
			indexed, tip := plat.Indexer().Lag(plat.Cluster().Node(0))
			r.lagMax = max(r.lagMax, tip-indexed)
			plat.SyncIndex()
			e := time.Now()
			r.ingestS += e.Sub(s).Seconds()
			r.ingested += len(batch)
			r.catchupUS.add(us(e.Sub(m)) / float64(len(batch)))
			tr.add("core.ingest", seq, "", s, m)
			tr.add("indexer.catchup", seq, "core.ingest", m, e)
		}
	}
	r.window = time.Since(t0)

	// Recover the read plane: rebuild the index from a full replay of
	// node 0's committed events and require the live index's digest.
	node := plat.Cluster().Node(0)
	stores := make(map[string]*blob.Store)
	for _, site := range plat.Sites() {
		stores[site.ID()+"/emr"] = site.BlobStore()
	}
	fetch := indexer.StoreFetcher(func(ds string) *blob.Store { return stores[ds] })
	var recoverS samples
	for k := 0; k < pqRebuildRepeats; k++ {
		s := time.Now()
		rebuilt := indexer.Rebuild(node.EventsSince(0), fetch, node.Height())
		recoverS.addSince(s, time.Second)
		tr.add("indexer.rebuild", "index", "", s, time.Now())
		if rebuilt.Digest() != plat.Indexer().Index().Digest() {
			r.problem("rebuilt index digest differs from the live index")
		}
		if want := len(rig.records) + r.ingested; rebuilt.Docs() != want {
			r.problem("rebuilt index holds %d docs, %d records were made queryable", rebuilt.Docs(), want)
		}
	}
	r.recover = time.Duration(recoverS.median() * float64(time.Second))
	if err := plat.Cluster().VerifyConsistency(); err != nil {
		r.problem("replicas disagree: %v", err)
	}
	return r
}
