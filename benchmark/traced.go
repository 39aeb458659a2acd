package main

import (
	"fmt"
	"strings"
	"time"

	"rftp/internal/spans"
	"rftp/internal/telemetry"
)

// stallCauses maps the per-layer metric suffix to the cause's counter
// infix in the registry (stall_<infix>_ns).
var stallCauses = [][2]string{
	{"wire_bound", "wire_bound"},
	{"credit_starved", "credit_starved"},
	{"load_pending", "load_pending"},
	{"store_pending", "store_pending"},
	{"advert_starved", "advertise_starved"},
}

// pathStages are the block-lifecycle stages of spans.Decomposition:
// the first four on the source, the rest on the sink. Each share is of
// its own side's attributed time.
var pathStages = []string{"load", "credit_wait", "send_queue", "wire", "credit", "reassembly", "store"}

// layerShares are the estimated shares of a workload's ns/block.
var layerShares = []string{"core_wire", "netfabric", "chanfabric", "storage", "simfabric"}

// layerDefs lists the metrics of the layers stage in report order.
func layerDefs() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, higher: unit == "1/s"})
		}
	}
	add("ns", "wire.ctrl_encode_ns", "wire.ctrl_decode_ns", "wire.grant16_encode_ns", "wire.grant16_decode_ns", "wire.blockhdr_ns")
	add("count", "wire.ctrl_encode_allocs", "wire.ctrl_decode_allocs", "wire.grant16_encode_allocs", "wire.grant16_decode_allocs")
	add("ns", "verbs.cq_dispatch_ns", "verbs.mr_register_1m_ns", "verbs.mrcache_hit_ns")
	add("ns", "chanfabric.loop_post_ns", "chanfabric.write_8k_ns", "chanfabric.send_64_ns")
	add("count", "chanfabric.write_8k_allocs")
	for _, op := range []string{"write_8k", "write_1m", "read_64k", "send_64"} {
		add("ns", "netfabric."+op+"_ns")
		add("count", "netfabric."+op+"_allocs")
		add("B", "netfabric."+op+"_copied_b")
	}
	add("1/s", "sim.events_per_s")
	add("count", "sim.allocs_per_event", "simfabric.write_allocs")
	add("ns", "simfabric.write_ns")
	add("ns", "storage.load_1m_ns", "storage.store_1m_ns", "storage.engine_hop_ns")
	add("ns", "telemetry.counter_add_ns", "telemetry.hist_observe_ns", "trace.emit_off_ns", "trace.emit_on_ns",
		"spans.transition_off_ns", "spans.transition_sampled_ns", "ringq.push_pop_ns", "bufpool.get_put_ns")
	add("B", "core.retained_b_per_idle_session")
	return defs
}

// perLayer lists every per-layer metric: the layers stage, then what
// the traced run adds.
func perLayer() []metricDef {
	defs := layerDefs()
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit})
		}
	}
	add("count", "netfabric.frames_per_syscall")
	add("ns", "netfabric.wire_queue_p50_ns", "netfabric.wire_rtt_p50_ns")
	add("ns", "core.added_ns_per_block")
	add("count", "core.ctrl_msgs_per_block", "core.grant_batch_mean", "core.credit_stalls_per_kblock", "core.retries")
	add("us", "core.block_transit_p50_us", "core.block_transit_p99_us", "core.load_gap_p50_us", "core.session_open_us", "core.session_close_us")
	for _, c := range stallCauses {
		add("%", "core.stall_share_"+c[0])
	}
	for _, s := range pathStages {
		add("%", "core.path_share_"+s)
	}
	for _, l := range layerShares {
		add("%", "layer_share."+l)
	}
	add("%", "trace.overhead_pct")
	return defs
}

// sumCounters adds up the named counter over a snapshot tree.
func sumCounters(snap *telemetry.Snapshot, name string) int64 {
	if snap == nil {
		return 0
	}
	total := snap.Counters[name]
	for _, c := range snap.Children {
		total += sumCounters(c, name)
	}
	return total
}

// medianNsPerBlock is the median over segments of wall time per block.
func medianNsPerBlock(segs []segment) float64 {
	return perSegment("ns", segs, segment.nsPerBlock).Value
}

// stallShares sums every stall_<cause>_ns counter of a snapshot tree
// and returns each cause's share of the total, by counter name.
func stallShares(snap *telemetry.Snapshot) map[string]float64 {
	ns := make(map[string]int64)
	var walk func(*telemetry.Snapshot)
	walk = func(s *telemetry.Snapshot) {
		if s == nil {
			return
		}
		for name, v := range s.Counters {
			if strings.HasPrefix(name, "stall_") && strings.HasSuffix(name, "_ns") {
				ns[name] += v
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(snap)
	var total int64
	for _, v := range ns {
		total += v
	}
	if total == 0 {
		return nil
	}
	shares := make(map[string]float64, len(ns))
	for name, v := range ns {
		shares[name] = float64(v) / float64(total)
	}
	return shares
}

// rawOpOf names the layers-stage metric that is the fabric's bare
// operation at each workload's block size and depth.
var rawOpOf = map[string]string{
	"loop_bulk_1m": "netfabric.write_1m_ns", "loop_small_8k": "netfabric.write_8k_ns",
	"loop_pull_64k": "netfabric.read_64k_ns", "chan_small_8k": "chanfabric.write_8k_ns",
	"loop_sessions_32k": rawWrite32k, "file_tmpfs_1m": "netfabric.write_1m_ns",
	"sim_wan_900g": "simfabric.write_ns",
}

// measureTraced runs the traced pass: the workload untraced and then
// with the harness spans and the repository's own instrumentation on,
// and the layers stage; it reports every per-layer metric.
func measureTraced(w workload, opt options) (*result, error) {
	r, err := newRunner(w, opt)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	share := time.Duration(opt.seconds * 0.3 * float64(time.Second))
	_, plain, err := timedSegments(r, false, share)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	_, tracedSegs, err := timedSegments(r, true, share)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	res := &result{Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Traced: true, Env: readEnvironment()}
	res.StartupS = r.firstTimed.Seconds()

	// Everything the traced connection says about itself, read before
	// it is closed. The counters cover its whole life, warm-up included.
	snap := r.simLast.snap
	var src, snk counters
	if r.st != nil {
		snap = r.st.snapshot()
		src, snk = r.st.stats()
	}
	var tstats traceStats
	if r.tr != nil {
		blocks, sessions, err := r.tr.join()
		if err != nil {
			return nil, err
		}
		tstats = analyze(blocks, sessions)
		// Little's law on the harness's own boundary: the mean number
		// of blocks between Load and Store-done cannot exceed what the
		// two pools hold, and a working pipeline holds at least one.
		inSystem := tstats.meanResidenceNs * float64(tstats.blocks) / float64(r.trWall)
		if limit := float64(3 * ioDepth); inSystem < 1 || inSystem > limit {
			return nil, fmt.Errorf("trace: mean residence %.0f ns x %.0f blocks/s = %.2f blocks in the system, outside [1, %g]",
				tstats.meanResidenceNs, float64(tstats.blocks)/r.trWall.Seconds(), inSystem, limit)
		}
		if err := writeTrace(tracePath(opt.outDir, w.name), blocks, sessions); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	res.Retries = closeOut(r)
	res.tally(r)
	r.cleanup() // free the connection before the layers stage times bare fabrics

	m, err := runLayers(opt.outDir, opt.layerDiv)
	if err != nil {
		return nil, fmt.Errorf("layers stage: %w", err)
	}
	res.Metrics = m
	absent := func(unit string, names ...string) {
		for _, n := range names {
			m[n] = summary{Unit: unit, Absent: true}
		}
	}

	// netfabric's own counters, both devices.
	if batches := sumCounters(snap, "tx_batches"); w.fabric == fabNet && batches > 0 {
		m.put("netfabric.frames_per_syscall", "count", float64(sumCounters(snap, "tx_frames"))/float64(batches))
		fab := snap.Find("source", "fabric")
		m.put("netfabric.wire_queue_p50_ns", "ns", float64(fab.Histogram("wire_queue_ns").Quantile(0.5)))
		m.put("netfabric.wire_rtt_p50_ns", "ns", float64(fab.Histogram("wire_rtt_ns").Quantile(0.5)))
	} else {
		absent("count", "netfabric.frames_per_syscall")
		absent("ns", "netfabric.wire_queue_p50_ns", "netfabric.wire_rtt_p50_ns")
	}

	// core: what the protocol adds to the fabric's bare operation, and
	// its control-plane ledger.
	nsPlain, nsTraced := medianNsPerBlock(plain), medianNsPerBlock(tracedSegs)
	rawNs := m[rawOpOf[w.name]].Value
	delete(m, rawWrite32k)
	m.put("core.added_ns_per_block", "ns", nsPlain-rawNs)
	if w.fabric == fabSim {
		sim := r.simLast
		m.put("core.ctrl_msgs_per_block", "count", sim.ctrlPerBlock)
		m.put("core.grant_batch_mean", "count", sim.grantBatchMean)
		m.put("core.credit_stalls_per_kblock", "count", 1000*float64(sim.creditStalls)/float64(sim.blocks))
		absent("count", "core.retries") // bench.RunRFTP does not report them
	} else {
		m.put("core.ctrl_msgs_per_block", "count", float64(src.ctrlMsgs+snk.ctrlMsgs)/float64(src.blocks))
		if snk.grantMsgs > 0 {
			m.put("core.grant_batch_mean", "count", float64(snk.creditsGranted)/float64(snk.grantMsgs))
		} else {
			absent("count", "core.grant_batch_mean") // pull mode grants no credits
		}
		m.put("core.credit_stalls_per_kblock", "count", 1000*float64(src.creditStalls)/float64(src.blocks))
		m.put("core.retries", "count", float64(src.retries))
	}
	if tstats.blocks > 0 {
		m.put("core.block_transit_p50_us", "us", percentile(tstats.transitUs, 50))
		m.put("core.block_transit_p99_us", "us", percentile(tstats.transitUs, 99))
		m.put("core.load_gap_p50_us", "us", percentile(tstats.loadGapUs, 50))
		m.put("core.session_open_us", "us", percentile(tstats.sessionOpenUs, 50))
		m.put("core.session_close_us", "us", percentile(tstats.sessionCloseUs, 50))
	} else { // the simulator owns its loads and stores: no harness boundary to span
		absent("us", "core.block_transit_p50_us", "core.block_transit_p99_us", "core.load_gap_p50_us",
			"core.session_open_us", "core.session_close_us")
	}

	// The repository's own attribution, read back from the registry.
	stalls := stallShares(snap)
	for _, c := range stallCauses {
		if stalls == nil {
			absent("%", "core.stall_share_"+c[0])
			continue
		}
		m.put("core.stall_share_"+c[0], "%", 100*stalls["stall_"+c[1]+"_ns"])
	}
	paths := map[string]float64{}
	for _, side := range []string{"source", "sink"} {
		for stage, v := range spans.Decomposition(snap.Find(side)) {
			paths[stage] = v
		}
	}
	for _, s := range pathStages {
		if v, ok := paths[s]; ok {
			m.put("core.path_share_"+s, "%", 100*v)
		} else {
			absent("%", "core.path_share_"+s)
		}
	}

	// Estimated shares of the workload's ns/block: the fabric's bare
	// operation, the storage calls the file workload makes per block,
	// and what is left, which is core and wire. The parts overlap in the
	// pipeline, so they are normalized by their sum.
	parts := map[string]float64{w.fabric.String(): rawNs}
	if w.file {
		parts["storage"] = m["storage.load_1m_ns"].Value + m["storage.store_1m_ns"].Value
	}
	parts["core_wire"] = nsPlain - rawNs - parts["storage"]
	if parts["core_wire"] < 0 {
		parts["core_wire"] = 0
	}
	var sum float64
	for _, v := range parts {
		sum += v
	}
	for _, l := range layerShares {
		m.put("layer_share."+l, "%", 100*parts[l]/sum)
	}
	m.put("trace.overhead_pct", "%", 100*(nsTraced-nsPlain)/nsPlain)
	return res, nil
}
