package main

import (
	"fmt"
	"runtime"
	"syscall"

	"slice/internal/netsim"
	"slice/internal/wal"
)

// snapshot reads every exported counter of the deployment into one flat
// map, so the traced pass can take the same reading at both boundaries
// of the timed phase and work on the differences. Nothing here reaches
// inside a layer: it is Net.Stats, PoolStats, Gateway.Stats,
// Proxy.Stats/ShardStats, dirsrv Counters and Log().Stats, smallfile and
// storage Stats, coord Stats, the WAL MemStores, and the Go runtime.
func snapshot(d *deployment) map[string]float64 {
	e := d.e
	c := map[string]float64{}
	add := func(k string, v uint64) { c[k] += float64(v) }

	ns := e.Net.Stats()
	add("netsim.sent", ns.Sent)
	add("netsim.delivered", ns.Delivered)
	add("netsim.bytes", ns.Bytes)
	add("netsim.dropped", ns.Dropped+ns.Lost+ns.Faulted)
	ps := netsim.PoolStats()
	add("netsim.pool_gets", ps.Gets)
	add("netsim.pool_news", ps.News)

	for _, g := range e.Gateways {
		gs := g.Stats()
		add("wire.records", gs.RxRecords+gs.TxRecords)
		add("wire.bytes", gs.RxBytes+gs.TxBytes)
		add("wire.drops", gs.Drops)
	}

	st := e.Proxy.Stats()
	add("proxy.pkts", st.Intercepted)
	add("proxy.requests", st.Requests)
	add("proxy.absorbed", st.Absorbed)
	add("proxy.intercept_ns", st.InterceptNS)
	add("proxy.decode_ns", st.DecodeNS)
	add("proxy.rewrite_ns", st.RewriteNS)
	add("proxy.softstate_ns", st.SoftStateNS)
	for _, sh := range e.Proxy.ShardStats() {
		add("proxy.attr_hits", sh.AttrHits)
		add("proxy.attr_misses", sh.AttrMisses)
		add("proxy.name_hits", sh.NameHits)
		add("proxy.name_misses", sh.NameMisses)
	}

	// Only the directory servers export their wal.Log; the small-file
	// and coordinator journals are visible as MemStores, which count
	// syncs and hold the appended bytes.
	for _, s := range e.Dirs {
		ct := s.Counters()
		add("dirsrv.ops", ct.Ops)
		add("dirsrv.cross_site", ct.CrossSite)
		ls := s.Log().Stats()
		add("wal.dir_appends", ls.Appends)
		add("wal.dir_syncs", ls.Syncs)
		add("wal.syncs", ls.Syncs)
		add("wal.bytes", ls.Bytes)
	}
	memLog := func(m *wal.MemStore) {
		add("wal.syncs", m.Syncs())
		if buf, err := m.Contents(); err == nil {
			add("wal.bytes", uint64(len(buf)))
		}
	}
	for _, m := range e.SmallLogs {
		memLog(m)
	}
	memLog(e.CoordLog)

	for _, s := range e.Small {
		ss := s.Store().Stats()
		add("smallfile.reads", ss.Reads)
		add("smallfile.writes", ss.Writes)
		add("smallfile.frag_allocs", ss.FragAllocs)
		add("smallfile.frag_reuses", ss.FragReuses)
		add("smallfile.grows", ss.Grows)
	}
	for i, n := range e.Storage {
		ss := n.Store().Stats()
		add("storage.bytes_read", ss.BytesRead)
		add("storage.bytes_written", ss.BytesWritten)
		add(nodeKey(i), ss.BytesRead+ss.BytesWritten)
	}
	add("coord.intentions", e.Coord.Stats().Intentions)

	for _, l := range d.lanes {
		add("oncrpc.retransmits", l.c.Retransmissions())
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	add("go.alloc_bytes", ms.TotalAlloc)
	add("go.allocs", ms.Mallocs)
	add("go.gc_pause_ns", ms.PauseTotalNs)
	return c
}

func nodeKey(i int) string { return fmt.Sprintf("storage.node%d_bytes", i) }

// delta returns after − before, key by key.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// selfUsage reads the process's resource usage. getrusage(RUSAGE_SELF)
// fails only on a bad pointer, so the error is dropped.
func selfUsage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time so far. Every layer
// runs in this process, so its difference over a slice of the timed phase
// is the whole system's CPU cost.
func cpuSeconds() float64 {
	ru := selfUsage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's high-water resident set (ru_maxrss is KiB
// on Linux).
func peakRSSMiB() float64 { return float64(selfUsage().Maxrss) / 1024 }
