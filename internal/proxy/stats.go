package proxy

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// StageStats breaks down µproxy CPU time by processing stage, mirroring
// the iprobe measurement of Table 3 in the paper:
//
//	packet interception — matching datagrams against the virtual server
//	packet decode       — locating RPC/NFS fields in the raw bytes
//	redirection/rewrite — address/port replacement and checksum repair
//	soft state logic    — pending records, attribute updates, response
//	                      pairing
//
// The counts are exact. The times are sampled, as iprobe sampled them: the
// stage clock (obs.go) takes the laps of 1 call in 16, picked by xid, and
// each *NS field estimates the total over all packets as the sampled laps
// × Intercepted ÷ the intercepted packets in the sample — exact when every
// packet is in it. The benchmark harness reports each stage per packet
// and as a fraction of total CPU.
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

	// sampled counts the intercepted packets in the stage clock's sample
	// and ns sums their laps.
	sampled atomic.Uint64
	ns      [numStages]atomic.Uint64
}

func (c *stageCounters) snapshot() StageStats {
	n, t := c.intercepted.Load(), c.sampled.Load()
	return StageStats{
		Intercepted: n,
		Requests:    c.requests.Load(),
		Responses:   c.responses.Load(),
		Initiated:   c.initiated.Load(),
		Absorbed:    c.absorbed.Load(),
		Dropped:     c.dropped.Load(),
		InterceptNS: estimate(c.ns[stIntercept].Load(), n, t),
		DecodeNS:    estimate(c.ns[stDecode].Load(), n, t),
		RewriteNS:   estimate(c.ns[stRewrite].Load(), n, t),
		SoftStateNS: estimate(c.ns[stSoftState].Load(), n, t),
	}
}

// estimate scales sum, taken over t of n packets, to all n.
func estimate(sum, n, t uint64) uint64 {
	if t == 0 || t >= n {
		return sum
	}
	hi, lo := bits.Mul64(sum, n)
	if hi >= t {
		return math.MaxUint64
	}
	q, _ := bits.Div64(hi, lo, t)
	return q
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
