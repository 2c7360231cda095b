package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"medchain/internal/chain"
	"medchain/internal/store"
)

// outcome is one run of one workload.
type outcome struct {
	*tally
	setup  samples            // seconds, one per set-up
	e2e    map[string]float64 // end-to-end metrics except setup_s
	layers map[string]float64 // driver-span metrics, traced runs only
	digest string             // identifies the pre-signed input streams
	note   string             // one line for the human reading stderr: what the phases did
	replay *replayInput       // traced runs only
}

// latencies fills the latency metrics every workload reports: the gated
// median and the ungated tail.
func (o *outcome) latencies(lat samples) {
	o.e2e["latency_p50_ms"] = lat.pct(50)
	o.layers["e2e.latency_p90_ms"] = lat.pct(90)
	o.layers["e2e.latency_p99_ms"] = lat.pct(99)
	o.layers["e2e.latency_max_ms"] = lat.pct(100)
}

// repeatSetup runs set-up p.setups times and keeps the last rig; the
// earlier ones only contribute their duration, so setup_s is a median.
func repeatSetup[R any](p params, o *outcome, setup func(dir string) (R, error), closeRig func(R)) (R, error) {
	var rig R
	for k := 0; k < p.setups; k++ {
		if k > 0 {
			closeRig(rig)
		}
		dir, err := freshDir(p, fmt.Sprintf("setup-%d", k))
		if err != nil {
			return rig, err
		}
		s := time.Now()
		if rig, err = setup(dir); err != nil {
			return rig, fmt.Errorf("set-up: %w", err)
		}
		o.setup.add(time.Since(s).Seconds())
	}
	return rig, nil
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layers: make(map[string]float64)}
}

// counters are the cumulative counts a deployment's public stats expose.
type counters struct {
	msgs, bytes, dropped              float64
	mempoolRejects, persistErrs       float64
	admissionRejects, written, fsyncs float64
}

func readCounters(clusters []*chain.Cluster, meters []*store.FaultFS) counters {
	var c counters
	for _, cl := range clusters {
		st := cl.Network().Stats()
		c.msgs += float64(st.MessagesSent)
		c.bytes += float64(st.BytesSent)
		c.dropped += float64(st.MessagesDropped)
		for _, n := range cl.Nodes() {
			ms := n.MempoolStats()
			c.mempoolRejects += float64(ms.Evicted + ms.DroppedExpired + ms.DroppedStale + ms.DroppedGap + ms.DroppedFull + ms.ExpiredInPool + ms.GappedByExpiry)
			c.persistErrs += float64(n.PersistErrors())
			for _, v := range n.AdmissionStats().Rejected {
				c.admissionRejects += float64(v)
			}
		}
	}
	for _, m := range meters {
		c.written += float64(m.BytesWritten())
		c.fsyncs += float64(m.Syncs())
	}
	return c
}

// layersSince writes the per-operation network and storage counts of a
// window that committed ops operations in blocks blocks (per node).
func (c counters) layersSince(before counters, ops, blocks, nodes float64, into map[string]float64) {
	into["p2p.msgs_per_tx"] = ratio(c.msgs-before.msgs, ops)
	into["p2p.bytes_per_tx"] = ratio(c.bytes-before.bytes, ops)
	into["p2p.dropped"] = c.dropped - before.dropped
	into["chain.mempool_rejects"] = c.mempoolRejects - before.mempoolRejects
	into["chain.persist_errors"] = c.persistErrs - before.persistErrs
	into["guard.admission_rejects"] = c.admissionRejects - before.admissionRejects
	into["store.write_bytes_per_tx"] = ratio(c.written-before.written, ops*nodes)
	into["store.fsyncs_per_block"] = ratio(c.fsyncs-before.fsyncs, blocks*nodes)
}

// procMeter measures the process over a window: CPU time, allocations,
// GC pauses and the heap's high-water mark (sampled). A nil meter is
// the untraced run.
type procMeter struct {
	cpu0 time.Duration
	mem0 runtime.MemStats
	stop chan struct{}
	done sync.WaitGroup
	peak uint64 // written by the sampler, read after it exits
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startProc(on bool) *procMeter {
	if !on {
		return nil
	}
	m := &procMeter{cpu0: cpuTime(), stop: make(chan struct{})}
	runtime.ReadMemStats(&m.mem0)
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				m.peak = max(m.peak, ms.HeapInuse)
			}
		}
	}()
	return m
}

// finish stops sampling and writes the proc.* layers for a window of
// ops operations.
func (m *procMeter) finish(ops float64, into map[string]float64) {
	if m == nil {
		return
	}
	close(m.stop)
	m.done.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	into["proc.cpu_ms_per_tx"] = ratio(float64(cpuTime()-m.cpu0)/float64(time.Millisecond), ops)
	into["proc.heap_peak_mb"] = float64(max(m.peak, ms.HeapInuse)) / (1 << 20)
	into["proc.gc_pause_ms"] = float64(ms.PauseTotalNs-m.mem0.PauseTotalNs) / 1e6
	into["proc.allocs_per_tx"] = ratio(float64(ms.Mallocs-m.mem0.Mallocs), ops)
}

// totalHeight sums node 0's height over the clusters: the blocks a
// deployment has committed.
func totalHeight(clusters []*chain.Cluster) int {
	n := 0
	for _, c := range clusters {
		n += int(c.Node(0).Height())
	}
	return n
}

func chainWorkload(extra int) func(p params, tr *tracer) (*outcome, error) {
	return func(p params, tr *tracer) (*outcome, error) {
		o := newOutcome()
		rig, err := repeatSetup(p, o,
			func(dir string) (*chainRig, error) { return chainSetup(p, extra, dir, tr.on()) },
			func(r *chainRig) { r.cluster.Close() })
		if err != nil {
			return nil, err
		}
		defer rig.cluster.Close()
		o.digest = streamDigest(rig.phaseA[0], rig.phaseA[1], rig.phaseB)
		windowFrom := rig.cluster.Node(0).Height() + 1

		r := runChain(p, rig, tr, o.layers)
		o.tally = r.tally
		o.e2e["goodput_per_s"] = ratio(float64(r.okA), r.windowA.Seconds())
		o.e2e["recover_s"] = r.recover.Seconds()
		o.latencies(r.latencyB)
		o.note = fmt.Sprintf("phase A %d txs in %d blocks, %.2fs (%d snapshots); recover %.2fs; phase B %d txs in %d blocks",
			r.okA, r.blocksA, r.windowA.Seconds(), len(r.snapshotMS), r.recover.Seconds(), r.txsB, r.blocksB)
		if !tr.on() {
			return o, nil
		}
		l := o.layers
		l["chain.submit_us_p50"] = tr.durations("chain.submit", time.Microsecond).pct(50)
		l["chain.queue_wait_ms_p50"] = tr.durations("chain.queue", time.Millisecond).pct(50)
		l["chain.commit_ms_p50"] = r.commitB.pct(50)
		l["chain.commit_ms_p95"] = r.commitB.pct(95)
		l["chain.commit_ms_p99"] = r.commitB.pct(99)
		l["chain.commit_us_per_tx"] = ratio(r.commitA.sum()*1000, float64(r.okA))
		l["chain.commit_busy_share"] = ratio(r.commitA.sum(), ms(r.windowA))
		l["chain.txs_per_block"] = ratio(float64(r.okA), float64(r.blocksA))
		l["chain.blocks"] = float64(r.blocksA + r.blocksB)
		l["chain.restart_ms"] = r.restartMS
		l["gen.busy_share"] = ratio(r.busy.Seconds(), r.windowA.Seconds()*hospClients)
		o.replay = &replayInput{
			chainID: "medchain", keySeed: p.keySeed(), nodes: chainNodes,
			blocks: nodeBlocks(rig.cluster.Node(0)), windowFrom: windowFrom,
		}
		return o, nil
	}
}

func shardWorkload(p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	rig, err := repeatSetup(p, o,
		func(dir string) (*shardRig, error) { return shardSetup(p, dir, tr.on()) },
		func(r *shardRig) { r.sys.Close() })
	if err != nil {
		return nil, err
	}
	sys := rig.sys
	defer sys.Close()
	o.digest = streamDigest(rig.streams()...)
	windowFrom := sys.Shard(0).Node(0).Height() + 1
	clusters := []*chain.Cluster{sys.Coord()}
	for i := 0; i < xShards; i++ {
		clusters = append(clusters, sys.Shard(i))
	}
	var meters []*store.FaultFS
	for _, m := range rig.meters {
		meters = append(meters, m)
	}
	before := readCounters(clusters, meters)
	blocks0 := totalHeight(clusters)
	pm := startProc(tr.on())

	r := runShards(p, rig, tr)
	o.tally = r.tally
	o.e2e["goodput_per_s"] = ratio(float64(r.okTxs), r.window.Seconds())
	o.e2e["recover_s"] = r.recover.Seconds()
	o.latencies(r.settleMS)
	o.note = fmt.Sprintf("%d registrations and transfers (%d transfers) in %d rounds, %.2fs, pump share %.2f; settle p50 %.0f rounds; recover %.2fs",
		r.okTxs, r.transfers, len(r.pumpMS), r.window.Seconds(), ratio(r.pumpMS.sum(), ms(r.window)), r.settleRnd.pct(50), r.recover.Seconds())
	if !tr.on() {
		return o, nil
	}
	l := o.layers
	ops := float64(r.okTxs)
	pm.finish(ops, l)
	blocks := float64(totalHeight(clusters) - blocks0)
	readCounters(clusters, meters).layersSince(before, ops, blocks, xNodes, l)
	l["chain.blocks"] = blocks
	l["chain.txs_per_block"] = ratio(ops+float64(r.coordTxs), blocks)
	l["shard.pump_ms_p50"] = r.pumpMS.pct(50)
	l["shard.pump_share"] = ratio(r.pumpMS.sum(), ms(r.window))
	l["shard.commit_round_ms_p50"] = r.commitMS.pct(50)
	l["shard.rounds_to_settle_p50"] = r.settleRnd.pct(50)
	l["shard.coord_txs_per_xfer"] = ratio(float64(r.coordTxs), float64(r.transfers))
	l["shard.find_dataset_us_p50"] = r.findUS.pct(50)
	l["shard.anomalies"] = float64(len(sys.Anomalies()))
	l["gen.busy_share"] = ratio(r.submitting.Seconds(), r.window.Seconds())
	o.replay = &replayInput{
		chainID: "shard-0", keySeed: sys.Config().KeySeed + "/shard-0", nodes: xNodes,
		blocks: nodeBlocks(sys.Shard(0).Node(0)), windowFrom: windowFrom,
	}
	return o, nil
}

func platformWorkload(p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	rig, err := repeatSetup(p, o,
		func(string) (*platformRig, error) { return platformSetup(p) },
		func(r *platformRig) { r.plat.Close() })
	if err != nil {
		return nil, err
	}
	plat := rig.plat
	defer plat.Close()
	o.digest = rig.digest
	cluster := plat.Cluster()
	windowFrom := cluster.Node(0).Height() + 1
	before := readCounters([]*chain.Cluster{cluster}, nil)
	pm := startProc(tr.on())

	r := runPlatform(rig, tr)
	o.tally = r.tally
	o.e2e["goodput_per_s"] = ratio(float64(r.queries), r.window.Seconds())
	o.e2e["recover_s"] = r.recover.Seconds()
	o.latencies(r.queryMS)
	o.note = fmt.Sprintf("%d queries in %.2fs; %d records ingested at %.0f rec/s; index rebuild %.2fs",
		r.queries, r.window.Seconds(), r.ingested, ratio(float64(r.ingested), r.ingestS), r.recover.Seconds())
	if !tr.on() {
		return o, nil
	}
	l := o.layers
	ops := float64(r.queries)
	pm.finish(ops, l)
	blocks := float64(cluster.Node(0).Height()+1) - float64(windowFrom)
	readCounters([]*chain.Cluster{cluster}, nil).layersSince(before, ops, blocks, pqSites, l)
	l["chain.blocks"] = blocks
	l["chain.txs_per_block"] = ratio(float64(chainTxs(cluster)-rig.setupTxs), blocks)
	l["core.authorize_ms_p50"] = r.authMS.pct(50)
	l["offchain.exec_ms_p50"] = r.execMS.pct(50)
	l["core.indexed_count_us_p50"] = r.indexedUS.pct(50)
	l["core.indexed_summary_ms_p50"] = r.summaryMS.pct(50)
	l["core.ingest_ms_per_record"] = ratio(r.ingestS*1000, float64(r.ingested))
	l["core.ingest_rec_per_s"] = ratio(float64(r.ingested), r.ingestS)
	l["core.result_bytes_per_query"] = r.resultBytes.mean()
	l["indexer.catchup_us_per_record"] = r.catchupUS.mean()
	l["indexer.lag_blocks_max"] = float64(r.lagMax)
	l["indexer.rebuild_ms"] = ms(r.recover)
	l["gen.busy_share"] = 1 // one closed-loop client: it is inside a platform call for the whole window
	o.replay = &replayInput{
		chainID: "medchain", keySeed: p.keySeed(), nodes: pqSites,
		blocks: nodeBlocks(cluster.Node(0)), windowFrom: windowFrom, records: rig.records,
	}
	return o, nil
}
