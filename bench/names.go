package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists exactly these (bench_test.go checks it).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median the metric may worsen by
}

// End-to-end metrics. Every workload reports every one; what each means
// on each workload is in README.md. The bounds are the widest the
// contract allows: on the 2-core sandbox these repeat within 2-9 %
// (quartile spread over ten seeds) in quiet periods, and minutes-long
// slow episodes of the host push that to 18 %. The p90 latency repeated
// within 22 % — too close to the widest bound to gate on — so it is
// reported with the ungated tail as e2e.latency_p90_ms.
var endToEnd = []metricDef{
	{"goodput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// Per-layer metrics, named <module>.<metric>; proc is the process, gen
// the generator, e2e the ungated tail of the end-to-end latency. A
// workload reports 0 for a layer it bypasses.
var perLayer = []metricDef{
	// Driver spans: measured in the traced run, around the calls the
	// driver itself makes.
	layer("chain.submit_us_p50", "us", "lower"),
	layer("chain.queue_wait_ms_p50", "ms", "lower"),
	layer("chain.commit_ms_p50", "ms", "lower"),
	layer("chain.commit_ms_p95", "ms", "lower"),
	layer("chain.commit_ms_p99", "ms", "lower"),
	layer("chain.commit_us_per_tx", "us", "lower"),
	layer("chain.commit_busy_share", "ratio", "lower"),
	layer("chain.txs_per_block", "count", "higher"),
	layer("chain.blocks", "count", "lower"),
	layer("chain.restart_ms", "ms", "lower"),
	layer("chain.mempool_rejects", "count", "lower"),
	layer("chain.persist_errors", "count", "lower"),
	layer("guard.admission_rejects", "count", "lower"),
	layer("p2p.msgs_per_tx", "count", "lower"),
	layer("p2p.bytes_per_tx", "bytes", "lower"),
	layer("p2p.dropped", "count", "lower"),
	layer("store.write_bytes_per_tx", "bytes", "lower"),
	layer("store.fsyncs_per_block", "count", "lower"),
	layer("shard.pump_ms_p50", "ms", "lower"),
	layer("shard.pump_share", "ratio", "lower"),
	layer("shard.commit_round_ms_p50", "ms", "lower"),
	layer("shard.rounds_to_settle_p50", "count", "lower"),
	layer("shard.coord_txs_per_xfer", "count", "lower"),
	layer("shard.find_dataset_us_p50", "us", "lower"),
	layer("shard.anomalies", "count", "lower"),
	layer("core.authorize_ms_p50", "ms", "lower"),
	layer("offchain.exec_ms_p50", "ms", "lower"),
	layer("core.indexed_count_us_p50", "us", "lower"),
	layer("core.indexed_summary_ms_p50", "ms", "lower"),
	layer("core.ingest_ms_per_record", "ms", "lower"),
	layer("core.ingest_rec_per_s", "1/s", "higher"),
	layer("core.result_bytes_per_query", "bytes", "lower"),
	layer("indexer.catchup_us_per_record", "us", "lower"),
	layer("indexer.lag_blocks_max", "count", "lower"),
	layer("indexer.rebuild_ms", "ms", "lower"),
	layer("proc.cpu_ms_per_tx", "ms", "lower"),
	layer("proc.heap_peak_mb", "MB", "lower"),
	layer("proc.gc_pause_ms", "ms", "lower"),
	layer("proc.allocs_per_tx", "count", "lower"),
	layer("gen.busy_share", "ratio", "lower"),
	layer("gen.trace_overhead_pct", "%", "lower"),
	layer("e2e.latency_p90_ms", "ms", "lower"),
	layer("e2e.latency_p99_ms", "ms", "lower"),
	layer("e2e.latency_max_ms", "ms", "lower"),
	// Layer replay: after the traced run, node 0's committed blocks go
	// single-threaded through each layer's exported functions.
	layer("cryptoutil.sign_us", "us", "lower"),
	layer("cryptoutil.verify_us", "us", "lower"),
	layer("ledger.tx_verify_us", "us", "lower"),
	layer("ledger.tx_encode_us", "us", "lower"),
	layer("ledger.tx_decode_us", "us", "lower"),
	layer("ledger.block_encode_us_per_tx", "us", "lower"),
	layer("ledger.block_decode_us_per_tx", "us", "lower"),
	layer("ledger.txroot_us_per_tx", "us", "lower"),
	layer("ledger.validate_us_per_tx", "us", "lower"),
	layer("ledger.append_us_per_block", "us", "lower"),
	layer("chain.mempool_add_us", "us", "lower"),
	layer("chain.mempool_take_us_per_tx", "us", "lower"),
	layer("chain.mempool_remove_us_per_tx", "us", "lower"),
	layer("guard.admit_us", "us", "lower"),
	layer("consensus.sign_proposal_us", "us", "lower"),
	layer("consensus.sign_vote_us", "us", "lower"),
	layer("consensus.verify_vote_us", "us", "lower"),
	layer("consensus.verify_seal_us_per_block", "us", "lower"),
	layer("contract.access_set_us_per_tx", "us", "lower"),
	layer("contract.apply_us_per_tx", "us", "lower"),
	layer("contract.root_ms_per_block", "ms", "lower"),
	layer("contract.clone_ms_per_block", "ms", "lower"),
	layer("contract.export_ms", "ms", "lower"),
	layer("contract.import_ms", "ms", "lower"),
	layer("contract.state_keys", "count", "lower"),
	layer("parexec.exec_us_per_tx", "us", "lower"),
	layer("parexec.clean_ratio", "ratio", "higher"),
	layer("parexec.waves_per_block", "count", "lower"),
	layer("store.append_us_per_block", "us", "lower"),
	layer("store.sync_us_per_block", "us", "lower"),
	layer("store.snapshot_ms", "ms", "lower"),
	layer("store.open_recover_ms", "ms", "lower"),
	layer("store.replay_us_per_tx", "us", "lower"),
	layer("merkle.build_us_per_leaf", "us", "lower"),
	layer("merkle.prove_us", "us", "lower"),
	layer("merkle.verify_us", "us", "lower"),
	layer("blob.put_us", "us", "lower"),
	layer("blob.get_us", "us", "lower"),
	layer("emr.encode_us", "us", "lower"),
	layer("emr.decode_us", "us", "lower"),
	layer("indexer.count_us", "us", "lower"),
	layer("indexer.candidates_us", "us", "lower"),
	layer("query.parse_us", "us", "lower"),
	layer("query.decompose_us", "us", "lower"),
	layer("query.compose_us", "us", "lower"),
}

// workloadDef is one named workload.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(p params, tr *tracer) (*outcome, error)
}

var workloads = []workloadDef{
	{"chain-mix", "Small state: per-transaction work (verify, gossip, validate, apply) sets throughput; sequential 1-tx blocks expose per-block fixed cost; node recovery replays the log.", chainWorkload(0)},
	{"chain-bigstate", "Same stream as chain-mix over a state with thousands of extra datasets: only costs that scale with total state (root, clone, snapshot, recovery load) may differ.", chainWorkload(chainBigExtra)},
	{"shards-cross", "4 shards + coordination chain with cross-shard transfers: the only workload where relay, Merkle proofs, anchoring and routing work; chain-* bypass them.", shardWorkload},
	{"platform-query", "The paper's query path (decompose, authorise on chain, run off chain in parallel, compose) plus the indexed read plane and ingest; one small block per query.", platformWorkload},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
