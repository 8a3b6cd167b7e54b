package proxy

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/attr"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/replica"
	"slice/internal/xdr"
)

// This file is the µproxy's observability wiring: the stage clock, the
// per-stage and per-hop latency histograms, pooled per-request trace
// spans keyed by the client xid, and the absorbed stats RPC program that
// lets slicectl aggregate a live ensemble over the wire.
//
// The discipline matches the pooled data path: histogram pointers are
// resolved once at construction (the registry's map and lock are never
// touched per request), a span is a pool object stamped and recycled by
// the tracer, and the request path stops writing the obs fields of a
// pending record when it releases the shard lock it published the record
// under — so the response path, which owns the record exclusively after
// pairing, never races the request path.

// lapClock is the one stage clock a packet carries through the µproxy,
// read once per stage boundary: a reading closes the lap of the stage just
// finished (Table 3's four, stats.go) and opens the next, so a packet's
// laps sum to the time between its first and last readings with no gap
// and no overlap. settle pays closed laps out to the cumulative counters,
// the stage.* histograms and the trace span alike; nothing else in the
// µproxy times a stage.
//
// Laps are taken for timed calls only, as iprobe sampled the paper's
// Table 3: for the calls timed picks by xid, whose laps alone the
// counters and stage.* histograms take (StageStats scales them to every
// packet), and for the calls the µproxy always times, whose own RPCs dwarf
// the clock (MOUNT, COMMIT, REMOVE, a truncating SETATTR), whose laps go to
// their spans only.
//
// The readings double as the request's other timestamps, and an untimed
// call reads the clock for these alone — four times a request/reply pair.
// A call's clock moves into its pending record: its first reading is the
// request's start and the reading that closes the request half (finalLap)
// is the forward time. The reply's clock is spliced onto it when the two
// pair: the reply's first reading ends the hop, its last (finalLap again)
// ends the request end to end.
//
// A lap is closed only where the work on both sides of the boundary costs
// more than reading the clock, so a call's header match (Handle) and the
// source restore of a passed-through reply (passThrough) ride in a
// neighbour's lap. Waiting is no stage: skip restarts the clock after a
// blocking RPC, and injection is outside it.
type lapClock struct {
	start int64             // first reading
	last  int64             // latest reading
	ns    [numStages]uint64 // closed laps not yet settled

	timed   bool // laps are taken
	sampled bool // the packet's xid is in the sample: its laps are counted
}

// sampleBits sets the sample: 1 call in 1<<sampleBits is timed.
const sampleBits = 4

// timed reports whether the call with transaction id xid is in the stage
// clock's sample, which takes both halves of 1 call in 16. The xid is
// hashed (its product with 2³²/φ, top bits), not masked: a client's xids
// run in sequence, and a workload's fixed cycle of operations over
// sequential xids would alias with a mask, timing one operation of the
// cycle always and another never.
func timed(xid uint32) bool { return (xid*0x9E3779B9)>>(32-sampleBits) == 0 }

// startClock starts a packet's clock, timed when the packet is in the
// sample.
func (p *Proxy) startClock(sampled bool) lapClock {
	now := p.now()
	return lapClock{start: now, last: now, timed: sampled, sampled: sampled}
}

// lap closes the lap of stage s: the time since the clock's last reading.
// An untimed clock is not read.
func (p *Proxy) lap(c *lapClock, s stage) {
	if c.timed {
		p.finalLap(c, s)
	}
}

// finalLap closes the last lap of a packet's stay, stage s, just before
// the packet leaves; it reads the clock whether the call is timed or not,
// for the reading is the call's forward time or its end.
func (p *Proxy) finalLap(c *lapClock, s stage) {
	now := p.now()
	if c.timed {
		c.ns[s] += uint64(now - c.last)
	}
	c.last = now
}

// skip moves a timed clock past time no stage is charged for.
func (p *Proxy) skip(c *lapClock) {
	if c.timed {
		c.last = p.now()
	}
}

// settle pays c's closed laps out — to the cumulative counters and one
// sample per stage to the histograms when the packet is in the sample, and
// to the span when the packet belongs to one — and zeroes them. It reads
// no clock.
func (p *Proxy) settle(c *lapClock, sp *obs.Span) {
	if !c.timed {
		return
	}
	if c.sampled {
		for s, ns := range c.ns {
			if ns == 0 {
				continue
			}
			p.st.ns[s].Add(ns)
			if p.hists != nil {
				p.hists.stage[s].Record(ns)
			}
		}
	}
	if sp != nil {
		sp.InterceptNS += c.ns[stIntercept]
		sp.DecodeNS += c.ns[stDecode]
		sp.RewriteNS += c.ns[stRewrite]
		sp.SoftStateNS += c.ns[stSoftState]
	}
	c.ns = [numStages]uint64{}
}

// wallTime converts a clock reading to a wire timestamp. Wall time is
// New's plus the monotonic time since: it follows the host's clock except
// across a step, which a µproxy that stamps only soft state can afford.
func (p *Proxy) wallTime(reading int64) attr.Time {
	return attr.FromGo(time.Unix(0, p.wall0+reading))
}

// proxyHists caches direct histogram pointers for the data path.
type proxyHists struct {
	stage [numStages]*obs.Histogram
	hop   [obs.HopMount + 1]*obs.Histogram
	e2e   [nfsproto.ProcCommit + 1]*obs.Histogram
	mount *obs.Histogram

	// Replica-layer counters (nil when the array is unreplicated):
	// dirtyOcc samples dirty-set occupancy at each write fan-out, pinned
	// counts reads pinned to a primary by a dirty object, and
	// readSpread[g][m] counts spread reads sent to member m of group g —
	// the per-replica read balance slicectl reports. The table is copied
	// on write (readHist), so a group or member a Grow adds gets its
	// histogram on its first read, and a read loads it without a lock.
	dirtyOcc   *obs.Histogram
	pinned     *obs.Histogram
	readSpread atomic.Pointer[[][]*obs.Histogram]
	reg        *obs.Registry
	spreadMu   sync.Mutex // serializes readSpread's writers
}

func newProxyHists(reg *obs.Registry, replicas *replica.Map) *proxyHists {
	h := &proxyHists{mount: reg.Hist("e2e.mount.mnt"), reg: reg}
	for s, name := range stageNames {
		h.stage[s] = reg.Hist("stage." + name)
	}
	for k := obs.HopDirsrv; k <= obs.HopMount; k++ {
		h.hop[k] = reg.Hist("hop." + k.String())
	}
	for proc := range h.e2e {
		h.e2e[proc] = reg.Hist("e2e." + obs.OpName(nfsproto.Program, uint32(proc)))
	}
	if replicas.Replicated() {
		h.dirtyOcc = reg.Hist("replica.dirty_occupancy")
		h.pinned = reg.Hist("replica.pinned_reads")
		// One histogram per member, named group.member so slicectl can
		// report per-group balance without knowing the topology; those
		// of the groups there are now are registered up front.
		for _, g := range replicas.Groups() {
			h.readHist(g.ID, len(g.Members)-1)
		}
	}
	return h
}

// readHist returns the histogram counting spread reads sent to member m
// of group g, registering it (and any before it in the table) on first
// use.
func (h *proxyHists) readHist(g uint32, m int) *obs.Histogram {
	if t := h.readSpread.Load(); t != nil && int(g) < len(*t) && m < len((*t)[g]) {
		return (*t)[g][m]
	}
	h.spreadMu.Lock()
	defer h.spreadMu.Unlock()
	var t [][]*obs.Histogram
	if old := h.readSpread.Load(); old != nil {
		t = slices.Clone(*old)
	}
	for int(g) >= len(t) {
		t = append(t, nil)
	}
	row := slices.Clone(t[g])
	for i := len(row); i <= m; i++ {
		row = append(row, h.reg.Hist(fmt.Sprintf("replica.read[%d.%d]", g, i)))
	}
	t[g] = row
	h.readSpread.Store(&t)
	return row[m]
}

// histE2E returns the end-to-end histogram for a request's op class.
func (p *Proxy) histE2E(prog uint32, proc nfsproto.Proc) *obs.Histogram {
	if prog == mountProgram {
		return p.hists.mount
	}
	if int(proc) < len(p.hists.e2e) {
		return p.hists.e2e[proc]
	}
	return nil
}

// recordHop attributes the forwarded hop's round trip — forward time to
// hopEnd, the first reading of the reply that completed it — when its
// (last) reply pairs, and the server's time for the call, read from the
// reply header, to the span. The caller owns pd exclusively.
func (p *Proxy) recordHop(pd *pendingReq, hopEnd int64, serverNS uint64) {
	if p.hists == nil && pd.span == nil {
		return
	}
	total := uint64(hopEnd - pd.clk.last)
	if pd.span != nil {
		pd.span.AddHop(pd.hop, total, serverNS)
	}
	if p.hists != nil {
		if h := p.hists.hop[pd.hop]; h != nil {
			h.Record(total)
		}
	}
}

// endObs closes out a request at its clock's last reading: settles the
// response half's laps, records the end-to-end latency and archives the
// span. The caller owns pd exclusively.
func (p *Proxy) endObs(pd *pendingReq) {
	p.settle(&pd.clk, pd.span)
	if p.hists != nil {
		if h := p.histE2E(pd.prog, pd.proc); h != nil {
			h.Record(uint64(pd.clk.last - pd.clk.start))
		}
	}
	if pd.span != nil {
		p.tracer.Finish(pd.span, p.wall0+pd.clk.last)
		pd.span = nil
	}
}

// dropPending recycles a pending record on a request-path error,
// returning its span (never archived: the request crossed no hop).
func (p *Proxy) dropPending(pd *pendingReq) {
	if pd.span != nil {
		p.tracer.Abort(pd.span)
		pd.span = nil
	}
	putPending(pd)
}

// hopForSite classifies a data-site address for hop attribution.
func (p *Proxy) hopForSite(addr netsim.Addr) obs.HopKind {
	if p.cfg.IO.SmallFile != nil {
		for _, a := range p.cfg.IO.SmallFile.Physical() {
			if a == addr {
				return obs.HopSmallfile
			}
		}
	}
	return obs.HopStorage
}

// obsCall wraps a µproxy-originated RPC to dst (zero: the coordinator):
// it times the round trip and records the hop, with the server's time for
// the call from the reply header.
func (p *Proxy) obsCall(sp *obs.Span, hop obs.HopKind, dst netsim.Addr, prog, vers, proc uint32, args func(*xdr.Encoder)) ([]byte, error) {
	c, err := p.rpc.Get()
	if err != nil {
		return nil, err
	}
	t0 := p.now()
	rep, err := c.CallTo(dst, prog, vers, proc, args)
	total := uint64(p.now() - t0)
	if sp != nil {
		sp.AddHop(hop, total, rep.ServerNS)
	}
	if p.hists != nil {
		if h := p.hists.hop[hop]; h != nil {
			h.Record(total)
		}
	}
	return rep.Body, err
}

// answerStats serves one absorbed stats-program call (obs.Program) from
// the configured StatsFn, replying as the virtual server, on the sender's
// goroutine.
func (p *Proxy) answerStats(client netsim.Addr, xid, proc, arg uint32) {
	out := p.cfg.StatsFn(proc, arg)
	accept, res := uint32(oncrpc.AcceptSuccess), func(e *xdr.Encoder) { e.PutOpaque(out) }
	if out == nil {
		accept, res = oncrpc.AcceptProcUnavail, nil
	}
	// An oversized snapshot (beyond the fabric MTU) fails BuildReply and
	// is counted as dropped; the caller times out and can ask for less
	// (fewer traces) rather than the µproxy fragmenting.
	d, err := oncrpc.BuildReply(p.cfg.Virtual, client, xid, accept, res)
	if err != nil {
		p.st.dropped.Add(1)
		return
	}
	p.st.absorbed.Add(1)
	p.st.responses.Add(1)
	_ = p.cfg.Net.Inject(d)
}
