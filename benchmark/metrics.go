package main

import "math"

// metricDef names one reported number. Bound is the share of the base
// value by which an end-to-end metric may worsen before -compare (and
// the PR driver) call it a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see, measured on
// the untraced pass. On ddwrite and ddread one op is a 1 MiB extent, so
// there ops_per_s is MiB/s. The bounds are what the reference box's noise
// allows: ten runs with ten seeds spread (interquartile range ÷ median)
// by 4 to 10 %, op_p99_us by up to 17 %, and a bound has to be a few
// spreads wide before a run beyond it means something.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics: T ones from the traced pass
// (counter deltas and spans around the timed phase), L ones from the
// micro-ledger (ledger.go).
var perLayer = []metricDef{
	{Name: "client.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "client.rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "client.readahead_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "client.payload_mib_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "client.op_p999_us", Unit: "us", Better: "lower"},
	{Name: "oncrpc.null_rtt_us", Unit: "us", Better: "lower"},
	{Name: "oncrpc.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "oncrpc.rpc_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "oncrpc.rpc_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "oncrpc.retransmits", Unit: "count", Better: "lower"},
	{Name: "xdr.small_msg_ns", Unit: "ns", Better: "lower"},
	{Name: "xdr.opaque_ns_per_kib", Unit: "ns", Better: "lower"},
	{Name: "nfsproto.parse_call_ns", Unit: "ns", Better: "lower"},
	{Name: "nfsproto.bulk_codec_ns_per_kib", Unit: "ns", Better: "lower"},
	{Name: "nfsproto.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "netsim.hop_ns_128b", Unit: "ns", Better: "lower"},
	{Name: "netsim.hop_ns_32k", Unit: "ns", Better: "lower"},
	{Name: "netsim.datagrams_per_op", Unit: "count", Better: "lower"},
	{Name: "netsim.bytes_per_payload_byte", Unit: "ratio", Better: "lower"},
	{Name: "netsim.dropped", Unit: "count", Better: "lower"},
	{Name: "netsim.pool_miss_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.rtt_us_128b", Unit: "us", Better: "lower"},
	{Name: "wire.rtt_us_32k", Unit: "us", Better: "lower"},
	{Name: "wire.records_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "wire.drops", Unit: "count", Better: "lower"},
	{Name: "proxy.handle_ns_request", Unit: "ns", Better: "lower"},
	{Name: "proxy.handle_ns_reply", Unit: "ns", Better: "lower"},
	{Name: "proxy.handle_allocs", Unit: "count", Better: "lower"},
	{Name: "proxy.intercept_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "proxy.decode_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "proxy.rewrite_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "proxy.softstate_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "proxy.pkts_per_op", Unit: "count", Better: "lower"},
	{Name: "proxy.attr_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "proxy.name_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "proxy.absorbed_share", Unit: "ratio", Better: "higher"},
	{Name: "route.io_target_ns", Unit: "ns", Better: "lower"},
	{Name: "route.name_target_ns", Unit: "ns", Better: "lower"},
	{Name: "front.resolve_ns", Unit: "ns", Better: "lower"},
	{Name: "dirsrv.lookup_rtt_us", Unit: "us", Better: "lower"},
	{Name: "dirsrv.create_rtt_us", Unit: "us", Better: "lower"},
	{Name: "dirsrv.ops_per_op", Unit: "count", Better: "lower"},
	{Name: "dirsrv.cross_site_share", Unit: "ratio", Better: "lower"},
	{Name: "smallfile.write_4k_ns", Unit: "ns", Better: "lower"},
	{Name: "smallfile.read_4k_ns", Unit: "ns", Better: "lower"},
	{Name: "smallfile.frag_reuse_share", Unit: "ratio", Better: "higher"},
	{Name: "smallfile.grows_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.write_32k_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.read_32k_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.bytes_written_per_payload_byte", Unit: "ratio", Better: "lower"},
	{Name: "storage.bytes_read_per_payload_byte", Unit: "ratio", Better: "lower"},
	{Name: "storage.node_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "coord.intend_complete_us", Unit: "us", Better: "lower"},
	{Name: "coord.intentions_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.append_sync_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.syncs_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "wal.appends_per_sync", Unit: "count", Better: "higher"},
	{Name: "ensemble.alloc_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "ensemble.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "ensemble.alloc_bytes_per_payload_byte", Unit: "ratio", Better: "lower"},
	{Name: "ensemble.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "ensemble.peak_rss_mib", Unit: "MiB", Better: "lower"},
	{Name: "ensemble.ledger_sum_us_per_op", Unit: "us", Better: "lower"},
	{Name: "ensemble.ledger_residual_share", Unit: "ratio", Better: "lower"},
	{Name: "ensemble.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "host.kernel_ms", Unit: "ms", Better: "lower"},
}

// ratio is a/b, and 0 where the denominator is 0: a layer that did no
// work on a workload reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues computes the end-to-end metrics of an untraced pass.
// Each is the median over the slices of the timed phase (pass.go), each
// slice scaled by the host factor measured around it (host.go): rates up,
// times down when the host ran slower than the reference. Slices in which
// no op ended (a smoke test's) carry no latency or CPU figure and are
// skipped for those. raw_ops_per_s and host_factor are printed beside
// them so the scaling can be undone by eye.
func endToEndValues(p *passResult) map[string]float64 {
	var rate, raw, host, p50, p99, cpu []float64
	for _, w := range p.windows {
		rate, raw, host = append(rate, w.rate*w.host), append(raw, w.rate), append(host, w.host)
		if w.ops > 0 {
			p50, p99 = append(p50, w.p50/1e3/w.host), append(p99, w.p99/1e3/w.host)
			cpu = append(cpu, w.cpuS*1e6/float64(w.ops)/w.host)
		}
	}
	return map[string]float64{
		"ops_per_s":     median(rate),
		"op_p50_us":     median(p50),
		"op_p99_us":     median(p99),
		"cpu_us_per_op": median(cpu),
		"setup_s":       p.setupS,
		"raw_ops_per_s": median(raw),
		"host_factor":   median(host),
	}
}

// perLayerValues computes the per-layer metrics: the T ones from the
// traced pass t, trace_overhead_share against the untraced pass u of the
// same length, and the L ones copied from the ledger.
func perLayerValues(u, t *passResult, ledger map[string]float64) map[string]float64 {
	c := t.counters
	ops := float64(t.ok())
	payload := float64(t.payload)
	te := endToEndValues(t)
	m := map[string]float64{
		"client.self_us_per_op":      ratio(float64(t.selfNS)/1e3, float64(t.attempted)),
		"client.rpcs_per_op":         ratio(float64(t.sends), ops),
		"client.readahead_hit_share": ratio(float64(t.raHits), float64(t.reads)),
		"client.payload_mib_per_s":   payload / (1 << 20) / t.timedS,
		"client.op_p999_us":          percentile(t.lat, 0.999) / 1e3,

		"oncrpc.rpc_rtt_p50_us": percentile(t.rtts, 0.50) / 1e3,
		"oncrpc.rpc_rtt_p99_us": percentile(t.rtts, 0.99) / 1e3,
		"oncrpc.retransmits":    c["oncrpc.retransmits"],

		"netsim.datagrams_per_op":       ratio(c["netsim.sent"], ops),
		"netsim.bytes_per_payload_byte": ratio(c["netsim.bytes"], payload),
		"netsim.dropped":                c["netsim.dropped"],
		"netsim.pool_miss_share":        ratio(c["netsim.pool_news"], c["netsim.pool_gets"]),

		"wire.records_per_op": ratio(c["wire.records"], ops),
		"wire.bytes_per_op":   ratio(c["wire.bytes"], ops),
		"wire.drops":          c["wire.drops"],

		"proxy.intercept_ns_per_pkt": ratio(c["proxy.intercept_ns"], c["proxy.pkts"]),
		"proxy.decode_ns_per_pkt":    ratio(c["proxy.decode_ns"], c["proxy.pkts"]),
		"proxy.rewrite_ns_per_pkt":   ratio(c["proxy.rewrite_ns"], c["proxy.pkts"]),
		"proxy.softstate_ns_per_pkt": ratio(c["proxy.softstate_ns"], c["proxy.pkts"]),
		"proxy.pkts_per_op":          ratio(c["proxy.pkts"], ops),
		"proxy.attr_hit_share":       ratio(c["proxy.attr_hits"], c["proxy.attr_hits"]+c["proxy.attr_misses"]),
		"proxy.name_hit_share":       ratio(c["proxy.name_hits"], c["proxy.name_hits"]+c["proxy.name_misses"]),
		"proxy.absorbed_share":       ratio(c["proxy.absorbed"], c["proxy.requests"]+c["proxy.absorbed"]),

		"dirsrv.ops_per_op":       ratio(c["dirsrv.ops"], ops),
		"dirsrv.cross_site_share": ratio(c["dirsrv.cross_site"], c["dirsrv.ops"]),

		"smallfile.frag_reuse_share": ratio(c["smallfile.frag_reuses"], c["smallfile.frag_allocs"]),
		"smallfile.grows_per_op":     ratio(c["smallfile.grows"], ops),

		"storage.bytes_written_per_payload_byte": ratio(c["storage.bytes_written"], payload),
		"storage.bytes_read_per_payload_byte":    ratio(c["storage.bytes_read"], payload),
		"storage.node_imbalance":                 nodeImbalance(c),

		"coord.intentions_per_op": ratio(c["coord.intentions"], ops),

		"wal.syncs_per_op":     ratio(c["wal.syncs"], ops),
		"wal.bytes_per_op":     ratio(c["wal.bytes"], ops),
		"wal.appends_per_sync": ratio(c["wal.dir_appends"], c["wal.dir_syncs"]),

		"ensemble.alloc_bytes_per_op":           ratio(c["go.alloc_bytes"], ops),
		"ensemble.allocs_per_op":                ratio(c["go.allocs"], ops),
		"ensemble.alloc_bytes_per_payload_byte": ratio(c["go.alloc_bytes"], payload),
		"ensemble.gc_pause_ms":                  c["go.gc_pause_ns"] / 1e6,
		"ensemble.peak_rss_mib":                 peakRSSMiB(),
		"ensemble.trace_overhead_share":         1 - ratio(te["ops_per_s"], endToEndValues(u)["ops_per_s"]),
		"host.kernel_ms":                        te["host_factor"] * refKernelSeconds * 1e3,
	}
	for k, v := range ledger {
		m[k] = v
	}
	sum := ledgerSumUS(m, c, ops)
	m["ensemble.ledger_sum_us_per_op"] = sum
	m["ensemble.ledger_residual_share"] = 1 - ratio(sum, ratio(t.cpuS*1e6, ops))
	return m
}

// nodeImbalance is max ÷ mean of the bytes each storage node moved.
func nodeImbalance(c map[string]float64) float64 {
	var max, sum float64
	n := 0
	for i := 0; ; i++ {
		v, ok := c[nodeKey(i)]
		if !ok {
			break
		}
		max, sum, n = math.Max(max, v), sum+v, n+1
	}
	return ratio(max*float64(n), sum)
}

// ledgerSumUS composes the ledger's unit costs with the traced pass's
// per-op counts into an estimate of CPU µs per op: what the layers cost
// alone, added up. The difference from the measured cpu_us_per_op is the
// residual — scheduling, GC, the generator, and whatever the layers cost
// only when composed. WAL appends are inside the dirsrv, smallfile and
// coord entries already and are not added again.
func ledgerSumUS(m, c map[string]float64, ops float64) float64 {
	rpcs := m["client.rpcs_per_op"]
	perOp := func(counter string) float64 { return ratio(c[counter], ops) }
	// Every client RPC: encode+decode of a small message on each side,
	// the µproxy's request and reply handling, and a bare call's round
	// trip through oncrpc and the fabric.
	ns := rpcs * (2*m["xdr.small_msg_ns"] + m["nfsproto.parse_call_ns"] +
		m["proxy.handle_ns_request"] + m["proxy.handle_ns_reply"] +
		m["route.name_target_ns"] + m["front.resolve_ns"])
	us := ns/1e3 + rpcs*m["oncrpc.null_rtt_us"]
	// Server work behind the µproxy.
	us += m["dirsrv.ops_per_op"] * m["dirsrv.lookup_rtt_us"]
	us += (perOp("smallfile.reads")*m["smallfile.read_4k_ns"] + perOp("smallfile.writes")*m["smallfile.write_4k_ns"]) / 1e3
	us += m["coord.intentions_per_op"] * m["coord.intend_complete_us"]
	us += m["wire.records_per_op"] / 2 * m["wire.rtt_us_128b"]
	// Bulk payload, per 32 KiB chunk: codec, two fabric hops' worth of
	// copies, the store.
	chunkNS := 32*(m["xdr.opaque_ns_per_kib"]+m["nfsproto.bulk_codec_ns_per_kib"]) +
		2*(m["netsim.hop_ns_32k"]-m["netsim.hop_ns_128b"])
	readChunks, writeChunks := perOp("storage.bytes_read")/chunk, perOp("storage.bytes_written")/chunk
	us += (readChunks*(chunkNS+m["storage.read_32k_ns"]) + writeChunks*(chunkNS+m["storage.write_32k_ns"])) / 1e3
	return us
}
