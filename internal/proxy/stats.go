package proxy

import "sync/atomic"

// StageStats breaks down µproxy CPU time by processing stage, mirroring
// the iprobe measurement of Table 3 in the paper:
//
//	packet interception — matching datagrams against the virtual server
//	packet decode       — locating RPC/NFS fields in the raw bytes
//	redirection/rewrite — address/port replacement and checksum repair
//	soft state logic    — pending records, attribute updates, response
//	                      pairing
//
// Times are accumulated in nanoseconds with atomics, from the laps of the
// one stage clock each packet carries (obs.go); the benchmark harness
// reports each stage as a fraction of total CPU.
type StageStats struct {
	Intercepted uint64 // datagrams examined by the tap
	Requests    uint64 // requests consumed and routed
	Responses   uint64 // responses consumed and returned to clients
	Initiated   uint64 // requests the µproxy initiated itself
	Absorbed    uint64 // requests absorbed (answered without forwarding)
	Dropped     uint64 // malformed or unroutable datagrams, and replies from off the path or already counted, dropped

	InterceptNS uint64
	DecodeNS    uint64
	RewriteNS   uint64
	SoftStateNS uint64
}

// stage indexes Table 3's four rows: the one taxonomy the cumulative
// counters, the stage.* histograms and the trace spans all report.
type stage uint8

const (
	stIntercept stage = iota
	stDecode
	stRewrite
	stSoftState
	numStages
)

// stageNames are the histogram suffixes (stage.intercept, ...).
var stageNames = [numStages]string{"intercept", "decode", "rewrite", "softstate"}

// stageCounters is the internal atomic form of StageStats.
type stageCounters struct {
	intercepted atomic.Uint64
	requests    atomic.Uint64
	responses   atomic.Uint64
	initiated   atomic.Uint64
	absorbed    atomic.Uint64
	dropped     atomic.Uint64

	ns [numStages]atomic.Uint64
}

func (c *stageCounters) snapshot() StageStats {
	return StageStats{
		Intercepted: c.intercepted.Load(),
		Requests:    c.requests.Load(),
		Responses:   c.responses.Load(),
		Initiated:   c.initiated.Load(),
		Absorbed:    c.absorbed.Load(),
		Dropped:     c.dropped.Load(),
		InterceptNS: c.ns[stIntercept].Load(),
		DecodeNS:    c.ns[stDecode].Load(),
		RewriteNS:   c.ns[stRewrite].Load(),
		SoftStateNS: c.ns[stSoftState].Load(),
	}
}

// TotalNS returns the µproxy CPU time across all stages.
func (s StageStats) TotalNS() uint64 {
	return s.InterceptNS + s.DecodeNS + s.RewriteNS + s.SoftStateNS
}

// ShardStat is the occupancy and hit accounting of one soft-state shard:
// its slice of the pending-request table and of the attribute cache. Skew
// across shards indicates a hot spot (a client or file population hashing
// unevenly); uniformly high occupancy indicates the cache is undersized.
type ShardStat struct {
	Pending     int    // in-flight request records
	AttrEntries int    // resident attribute-cache entries
	AttrHits    uint64 // attribute-cache hits since start
	AttrMisses  uint64 // attribute-cache misses since start
	// NameHits and NameMisses are always zero: the name cache they counted
	// is gone, and they stay only until a benchmark PR may stop reading
	// them for proxy.name_hit_share (benchmark/ is frozen to other PRs).
	NameHits   uint64
	NameMisses uint64
}

// ShardStats snapshots every soft-state shard. The slice is indexed by
// shard number.
func (p *Proxy) ShardStats() []ShardStat {
	out := make([]ShardStat, numShards)
	for i := range out {
		s := &p.shards[i]
		s.mu.Lock()
		out[i].Pending = len(s.pend)
		s.mu.Unlock()

		as := &p.attrs.shards[i]
		as.mu.Lock()
		out[i].AttrEntries = len(as.entries)
		as.mu.Unlock()
		out[i].AttrHits = as.hits.Load()
		out[i].AttrMisses = as.misses.Load()
	}
	return out
}
