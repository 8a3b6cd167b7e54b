package proxy

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/replica"
	"slice/internal/route"
	"slice/internal/xdr"
)

// mountProgram mirrors dirsrv.MountProgram without importing the package
// (the µproxy layers below the servers); mountSite is the directory site
// that serves it.
const (
	mountProgram = 100005
	mountSite    = 0
)

// serviceQueue bounds the paced service loop's ingress queue. Requests
// arriving at a full queue are dropped — an overloaded router sheds load
// and clients retransmit, as §2.1 prescribes.
const serviceQueue = 256

// capFieldOffset is the byte offset of the CellKey/capability field within
// a marshalled file handle (see fhandle.Handle layout).
const capFieldOffset = 16

// Config configures a µproxy.
type Config struct {
	// Net is the fabric the µproxy taps.
	Net *netsim.Network
	// Host is the host address the µproxy binds its own client port on.
	Host uint32
	// Virtual is the virtual NFS server address presented to clients.
	Virtual netsim.Addr
	// ID is this instance's stable fleet identity (route.ProxyMember.ID).
	// A single-proxy deployment leaves it 0.
	ID uint32
	// ServiceTime, when positive, meters the request path through a
	// single paced service loop at one request per ServiceTime — a
	// capacity model for a µproxy core: one instance saturates at
	// 1/ServiceTime forwarded ops/s, so fleet scaling is measurable on
	// any host, independent of how many real CPUs back the simulation.
	// Zero (the default) keeps the inline fast path: requests are
	// processed on the sender's goroutine with no added cost.
	ServiceTime time.Duration
	// IO routes read/write/commit traffic.
	IO *route.IOPolicy
	// Names routes name-space and attribute traffic.
	Names *route.NamePolicy
	// Coord resolves the block-service coordinator's address before
	// every transmission, so a call in flight across a coordinator
	// restart follows it to its new host; nil disables intention logging.
	Coord oncrpc.Resolver
	// WritebackInterval bounds attribute drift: dirty attributes are
	// pushed to the directory servers at this period. Zero disables the
	// background flusher (tests drive writeback explicitly).
	WritebackInterval time.Duration
	// CapKey, when set, is the storage-service capability key: the
	// µproxy stamps a keyed fingerprint into the handle of every request
	// it routes to a storage node (in place, with an incremental
	// checksum fix), authorizing the access under the §2.2 secure-object
	// model. Clients that bypass the µproxy cannot mint capabilities and
	// are refused by the storage nodes.
	CapKey []byte
	// Obs, when set, receives the µproxy's per-stage, per-hop, and
	// end-to-end latency histograms. Histogram pointers are resolved at
	// construction; recording is one atomic add per sample.
	Obs *obs.Registry
	// Tracer, when set, archives a pooled per-request span for every
	// routed request: per-stage µproxy costs plus per-hop round-trip and
	// server time.
	Tracer *obs.Tracer
	// StatsFn, when set, answers the stats program (obs.Program) sent to
	// the virtual server: the µproxy absorbs the call and replies with
	// the returned bytes as an opaque result (nil = proc unavailable).
	// The ensemble points this at its cluster-wide obs.Collector.
	StatsFn func(proc, arg uint32) []byte
}

// pendKey identifies a pending request record: the client endpoint plus
// the RPC transaction id.
type pendKey struct {
	client netsim.Addr
	xid    uint32
}

// pendHash mixes a pending-request identity for shard selection.
func pendHash(k pendKey) uint64 {
	h := uint64(k.client.Host)<<32 ^ uint64(k.client.Port)<<16 ^ uint64(k.xid)
	h *= 0x9E3779B97F4A7C15
	return h
}

// pendingReq is the soft-state record of one in-flight request. Records
// are pooled: the steady-state forward path recycles them instead of
// allocating.
type pendingReq struct {
	proc nfsproto.Proc
	prog uint32
	info nfsproto.RequestInfo

	// targets are the physical servers the request was routed to, kept
	// so client retransmissions are re-forwarded along the same path
	// (the servers' duplicate-request caches absorb the repeats). For
	// the common fan-outs it aliases targetsBuf, so recording the path
	// costs no allocation.
	targets    []netsim.Addr
	targetsBuf [4]netsim.Addr

	// expect is the number of replies still awaited (a fanned-out write
	// expects one per target); replied dedups per-target replies, since
	// retransmissions make servers replay theirs.
	expect  int
	replied map[netsim.Addr]bool
	// errReply holds the first non-OK reply body of a multi-target
	// request so the worst outcome is what the client sees.
	errReply []byte

	// routeVer is the combined routing-table version the path was
	// resolved under. A retransmission arriving after the tables changed
	// (failover republished a server) re-resolves instead of replaying
	// the recorded — possibly dead — path.
	routeVer uint64

	// onOK runs when a successful reply arrives, before it is forwarded;
	// orchestration hooks use it. Responses with a hook are finished on
	// a helper goroutine because hooks issue blocking RPCs.
	onOK func()

	// Replica bookkeeping (nil dirty set disables all of it). dirtyMark
	// says this record holds one dirty-set count on dirtyKey, released
	// only when every replica acknowledged success; readSlot is 1 + the
	// load-array slot charged for a spread read (0: none).
	dirtyMark bool
	dirtyKey  fhandle.Key
	readSlot  int32

	// attrBuf is scratch for encoding the attributes patched into a
	// bulk READ reply; living in the pooled record keeps that path free
	// of allocation.
	attrBuf [attr.EncodedSize]byte

	// Observability state (see obs.go). The request path writes it until
	// it releases the shard lock it published the record under; after
	// pairing, the response path owns the record exclusively. clk is the
	// request's stage clock: its first reading is the request's start, the
	// reading that closes the request half is the forward time, and the
	// paired reply's own clock is spliced onto it.
	span *obs.Span   // pooled trace span, nil when tracing is off
	clk  lapClock    // the stage clock (obs.go)
	hop  obs.HopKind // where the request was forwarded
}

var pendPool = sync.Pool{New: func() any { return new(pendingReq) }}

// getPending returns a zeroed pending record from the pool.
func getPending() *pendingReq { return pendPool.Get().(*pendingReq) }

// putPending recycles a record. Callers own pd exclusively: it must
// already be out of the pending table.
func putPending(pd *pendingReq) {
	*pd = pendingReq{}
	pendPool.Put(pd)
}

// pendShard is one lock's worth of the pending-request table.
type pendShard struct {
	mu   sync.Mutex
	pend map[pendKey]*pendingReq
}

// Proxy is one interposed request router.
type Proxy struct {
	cfg Config

	// shards holds the pending-request table, split so that concurrent
	// clients contend only when they hash to the same shard.
	shards [numShards]pendShard

	attrs *attrCache

	// dirty is the per-object dirty set of the replica layer: an object
	// is dirty while a fanned-out WRITE to its group is in flight, and
	// its reads pin to the primary. nil when the array is unreplicated.
	// loads counts this µproxy's outstanding spread reads per member
	// slot, the weights of the power-of-two-choices read placement.
	dirty *replica.DirtySet
	loads []atomic.Int64

	// rpc is the one client every RPC the µproxy originates goes out on,
	// bound on first use: CallTo names each data site, and its zero site
	// is the coordinator, through cfg.Coord.
	rpc func() (*oncrpc.Client, error)

	// workCh feeds the paced service loop; nil when ServiceTime is 0
	// and requests are processed inline.
	workCh chan []byte

	// now reads the stage clock: nanoseconds since New on the monotonic
	// clock (a field so a test can count the reads). wall0 is New's
	// wall-clock time in Unix nanoseconds; wall0 plus a reading stamps
	// spans and attribute times without a second clock read.
	now   func() int64
	wall0 int64

	tapTok    *netsim.TapToken
	st        stageCounters
	hists     *proxyHists // nil when cfg.Obs is nil
	tracer    *obs.Tracer // nil when cfg.Tracer is nil
	stopCh    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New creates a µproxy and registers it as a tap on the network.
func New(cfg Config) *Proxy {
	base := time.Now()
	p := &Proxy{
		cfg:    cfg,
		attrs:  newAttrCache(),
		rpc:    oncrpc.LazyClient(cfg.Net, cfg.Host, oncrpc.ClientConfig{Resolve: cfg.Coord}),
		now:    func() int64 { return int64(time.Since(base)) },
		wall0:  base.UnixNano(),
		stopCh: make(chan struct{}),
		tracer: cfg.Tracer,
	}
	if cfg.IO != nil && cfg.IO.Replicas.Replicated() {
		p.dirty = replica.NewDirtySet()
		p.loads = make([]atomic.Int64, cfg.IO.Replicas.Slots())
	}
	if cfg.Obs != nil {
		var rm *replica.Map
		if cfg.IO != nil {
			rm = cfg.IO.Replicas
		}
		p.hists = newProxyHists(cfg.Obs, rm)
	}
	for i := range p.shards {
		p.shards[i].pend = make(map[pendKey]*pendingReq)
	}
	if cfg.ServiceTime > 0 {
		p.workCh = make(chan []byte, serviceQueue)
		p.wg.Add(1)
		go p.serviceLoop()
	}
	p.tapTok = cfg.Net.AddTap(p)
	if cfg.WritebackInterval > 0 {
		p.wg.Add(1)
		go p.writebackLoop()
	}
	return p
}

// Close detaches the µproxy from the network and stops its helpers.
// It is idempotent.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		p.cfg.Net.RemoveTap(p.tapTok)
		close(p.stopCh)
		p.wg.Wait()
		if c, err := p.rpc(); err == nil {
			c.Close()
		}
	})
}

// routeVersion folds the versions of every table the µproxy forwards by;
// it changes exactly when a failover republishes some server's address.
func (p *Proxy) routeVersion() uint64 {
	v := p.cfg.Names.Dirs.Version() + p.cfg.IO.Storage.Version() +
		p.cfg.IO.Replicas.Version()
	if p.cfg.IO.SmallFile != nil {
		v += p.cfg.IO.SmallFile.Version()
	}
	return v
}

// RouteVersion exposes the folded routing-table version. Every proxy in
// a fleet shares the same Table objects, so a reconfiguration Swap moves
// all of them to the new version in one atomic store — the coordinated
// retarget the shared-nothing design gets for free.
func (p *Proxy) RouteVersion() uint64 { return p.routeVersion() }

// Stats returns a snapshot of the per-stage CPU accounting.
func (p *Proxy) Stats() StageStats { return p.st.snapshot() }

// shardFor returns the pending-table shard for key.
func (p *Proxy) shardFor(key pendKey) *pendShard {
	return &p.shards[shardIndex(pendHash(key))]
}

// forgetPend discards every pending record, as a crash does. In-flight
// replies for the dropped records pass through with their server's source
// address, the client's peer check discards them, and the client recovers
// by retransmission, as §2.1 requires.
func (p *Proxy) forgetPend() {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.pend = make(map[pendKey]*pendingReq)
		s.mu.Unlock()
	}
}

// flushAge is how old a pending record must be for a flush to drop it. A
// reply follows its call within milliseconds; a record that has waited a
// second belongs to a call whose client gave up or retransmits, and a
// retransmission opens a fresh record.
const flushAge = time.Second

// agePend is a flush's pass over the pending table: it drops the records
// of abandoned calls and keeps the rest pairing their replies, stripped of
// the replica bookkeeping that belonged to the dirty set and read loads
// resetReplica just emptied. Run after resetReplica.
func (p *Proxy) agePend() {
	cutoff := p.now() - int64(flushAge)
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for k, pd := range s.pend {
			if pd.clk.start <= cutoff {
				delete(s.pend, k)
				continue
			}
			pd.dirtyMark, pd.readSlot = false, 0
		}
		s.mu.Unlock()
	}
}

// FlushSoftState discards the µproxy's caches — attributes, and over a
// replicated array the dirty set and read loads — and the records of calls
// that have waited a second or more. The dirty attributes among those
// discarded are pushed to the directory servers, so no size the µproxy
// acknowledged is lost with them. A call in flight keeps its record: the
// record pairs the reply with the client that sent the call and finishes
// it as its procedure requires, which an address alone cannot (a WRITE's
// growth is recorded from the offset in the call; a READ's EOF is
// corrected against the file's size). DESIGN.md §6 has why that record is
// still soft state.
func (p *Proxy) FlushSoftState() {
	p.resetReplica()
	p.agePend()
	for _, e := range p.attrs.drain() {
		p.push(nil, e)
	}
}

// DropSoftState discards all soft state without writeback, simulating a
// µproxy crash: pending records are forgotten with everything else, and
// uncommitted attribute updates are lost, as §4.1 permits.
func (p *Proxy) DropSoftState() {
	p.forgetPend()
	p.attrs.drain()
	p.resetReplica()
}

// resetReplica clears the dirty set and the read-load counters along
// with the rest of the soft state. A fresh (or rebooted) µproxy starts
// with no dirtiness knowledge: a write in flight marks its object again
// only if its record was lost and a retransmission opens a new one, and
// until then the object may be read from any member — the same window
// §2.1 accepts for every other piece of lost soft state, closed for
// committed data by the COMMIT barrier.
func (p *Proxy) resetReplica() {
	if p.dirty == nil {
		return
	}
	p.dirty.Reset()
	for i := range p.loads {
		p.loads[i].Store(0)
	}
}

// DirtyLen reports the dirty-set size (0 when unreplicated).
func (p *Proxy) DirtyLen() int {
	if p.dirty == nil {
		return 0
	}
	return p.dirty.Len()
}

// ObjectDirty reports whether fh's object currently has a write in
// flight (or an over-approximated leftover mark) pinning its reads.
func (p *Proxy) ObjectDirty(fh fhandle.Handle) bool {
	return p.dirty != nil && p.dirty.Dirty(fh.Ident())
}

// CachedAttr exposes the attribute cache for tests and for the client-side
// of attribute patching.
func (p *Proxy) CachedAttr(fh fhandle.Handle) (bool, uint64) {
	at, ok := p.attrs.get(fh)
	return ok, at.Size
}

// consumeDrop disposes of a datagram the µproxy consumed but cannot
// process (malformed or unroutable).
func (p *Proxy) consumeDrop(d []byte) netsim.Verdict {
	p.st.dropped.Add(1)
	netsim.FreeBuf(d)
	return netsim.Consumed
}

// Handle implements netsim.Tap: the packet-filter entry point. It runs on
// the sender's goroutine and processes the fast path inline — no
// per-packet goroutine, no allocation in the steady state. Only
// operations that must block (commit absorption, remove orchestration,
// response hooks) are handed to helper goroutines.
//
// Interception is timed where it does work: every reply on the fabric is
// probed against the pending table, hit or miss. A call is claimed or
// dismissed by the header match alone — three loads and two compares,
// less than one reading of the clock — so its clock starts with decode.
func (p *Proxy) Handle(d []byte) netsim.Verdict {
	p.st.intercepted.Add(1)
	if len(d) < netsim.HeaderSize+oncrpc.ReplyHeader {
		return netsim.Pass
	}
	dst := netsim.Addr{
		Host: binary.BigEndian.Uint32(d[netsim.OffDstHost:]),
		Port: binary.BigEndian.Uint16(d[netsim.OffDstPort:]),
	}
	payload := d[netsim.HeaderSize:]
	switch binary.BigEndian.Uint32(payload[oncrpc.OffMsgType:]) {
	case oncrpc.MsgCall:
		if dst != p.cfg.Virtual {
			return netsim.Pass
		}
		if p.workCh != nil {
			// Paced mode: hand the request to the service loop. A full
			// queue means the router is saturated; shed the request and
			// let the client's retransmission find capacity.
			select {
			case p.workCh <- d:
			default:
				return p.consumeDrop(d)
			}
			return netsim.Consumed
		}
		return p.handleRequest(d)
	case oncrpc.MsgReply:
		clk := p.startClock()
		key := pendKey{client: dst, xid: binary.BigEndian.Uint32(payload[oncrpc.OffXid:])}
		s := p.shardFor(key)
		s.mu.Lock()
		pd, ok := s.pend[key]
		verify := ok && !pd.clientVerifies()
		s.mu.Unlock()
		p.lap(&clk, stIntercept)
		if ok {
			return p.handleResponse(d, key, clk, verify)
		}
		p.settle(&clk, nil)
	}
	return netsim.Pass
}

// newPending opens the pending record of a freshly decoded call — info
// holds an NFS call's routing fields, nil for another program — hands it
// the call's clock, and closes the decode lap: decode runs from the call's
// arrival until it sits, decoded, in a record.
func (p *Proxy) newPending(clk lapClock, call *oncrpc.Call, info *nfsproto.RequestInfo) *pendingReq {
	pd := getPending()
	pd.prog = call.Program
	pd.expect = 1
	if info != nil {
		pd.proc = info.Proc
		pd.info = *info
	}
	pd.clk = clk
	if p.tracer != nil {
		pd.span = p.tracer.Start(uint64(call.Xid), call.Proc, p.wall0+clk.start)
		pd.span.Prog = call.Program
	}
	p.lap(&pd.clk, stDecode)
	return pd
}

// handleRequest classifies and routes one intercepted call. It always
// takes ownership of d: every path forwards it, frees it, or hands it to
// a helper goroutine.
func (p *Proxy) handleRequest(d []byte) netsim.Verdict {
	clk := p.startClock()
	h, err := netsim.ParseHeader(d)
	if err != nil {
		return p.consumeDrop(d)
	}
	call, err := oncrpc.ParseCall(netsim.Payload(d))
	if err != nil {
		return p.consumeDrop(d)
	}
	proc := nfsproto.Proc(call.Proc)
	// READ and WRITE are forwarded in place, and every edit the µproxy
	// makes to them repairs the checksum differentially, leaving a corrupt
	// datagram's error for the server's Recv to catch: their payload is
	// never read here. Every other call is small and is absorbed,
	// orchestrated or routed by more of its bytes, so it is verified.
	checked := !inPlace(call.Program, proc)
	if checked && !netsim.VerifyChecksum(d) {
		return p.consumeDrop(d)
	}
	var info nfsproto.RequestInfo
	if call.Program == nfsproto.Program {
		if info, err = nfsproto.ParseCall(proc, call.Body); err != nil {
			return p.consumeDrop(d)
		}
	}
	key := pendKey{client: h.Src, xid: call.Xid}
	if v, replayed := p.retransmit(d, key, &call, &info, checked, &clk); replayed {
		return v
	}

	if call.Program == mountProgram {
		pd := p.newPending(clk, &call, nil)
		pd.hop = obs.HopMount
		addr, err := p.cfg.Names.Dirs.Lookup(mountSite)
		if err != nil {
			p.dropPending(pd)
			return p.consumeDrop(d)
		}
		return p.forward(d, key, pd, addr)
	}
	if call.Program == obs.Program {
		// The stats program is absorbed: the µproxy answers it from the
		// ensemble's collector so slicectl aggregates a live deployment
		// over the same wire the NFS traffic uses. Snapshotting walks
		// registries under their locks, so it runs off the sender's
		// goroutine.
		if p.cfg.StatsFn == nil {
			return p.consumeDrop(d)
		}
		var arg uint32
		if len(call.Body) >= 4 {
			arg = binary.BigEndian.Uint32(call.Body)
		}
		p.lap(&clk, stDecode)
		p.settle(&clk, nil)
		src, xid, proc := h.Src, call.Xid, call.Proc
		netsim.FreeBuf(d)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.answerStats(src, xid, proc, arg)
		}()
		return netsim.Consumed
	}
	if call.Program != nfsproto.Program {
		return p.consumeDrop(d)
	}
	pd := p.newPending(clk, &call, &info)

	switch proc {
	case nfsproto.ProcCommit:
		// Commit is absorbed: the µproxy coordinates multi-site commit
		// itself and answers the client (§3.3.2, §4.1). That is a chain
		// of blocking RPCs, so it runs off the sender's goroutine; the
		// request datagram itself is no longer needed. The span, if any,
		// moves to the absorbing goroutine with the request identity.
		sp, start := pd.span, pd.clk.start
		p.settle(&pd.clk, sp)
		pd.span = nil
		putPending(pd)
		netsim.FreeBuf(d)
		src, xid := h.Src, call.Xid
		ci := info // case-local copy: capturing info itself would heap-allocate it on every request
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.absorbCommit(src, xid, ci, sp, start)
		}()
		return netsim.Consumed
	case nfsproto.ProcRemove:
		// Remove orchestration resolves the victim's handle first with a
		// LOOKUP of its own: run it off the sender's goroutine, which
		// owns d until it is forwarded.
		pd.hop = obs.HopDirsrv
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.routeRemove(d, key, pd)
		}()
		return netsim.Consumed
	case nfsproto.ProcSetAttr:
		pd.hop = obs.HopDirsrv
		return p.routeSetAttr(d, key, pd)
	case nfsproto.ProcRead, nfsproto.ProcWrite:
		return p.routeIO(d, key, pd)
	default:
		addr, err := p.cfg.Names.AddrFor(&pd.info)
		if err != nil {
			p.dropPending(pd)
			return p.consumeDrop(d)
		}
		pd.hop = obs.HopDirsrv
		return p.forward(d, key, pd, addr)
	}
}

// inPlace reports whether calls of proc are forwarded in place without the
// µproxy verifying them — READ and WRITE (handleRequest) — so a pending
// record of one was built from bytes nobody has verified yet.
func inPlace(prog uint32, proc nfsproto.Proc) bool {
	return prog == nfsproto.Program && (proc == nfsproto.ProcRead || proc == nfsproto.ProcWrite)
}

// retransmit handles a call whose key already has a pending record and
// reports whether it did; otherwise the caller routes the call fresh.
//
// Retransmission while the original is in flight: the forwarded packet or
// its reply may have been lost past the µproxy, so the retransmission must
// be re-forwarded along the recorded path; the servers' duplicate-request
// caches absorb genuine repeats. (A µproxy that swallowed retransmissions
// would turn one lost packet into a permanently stuck request — the
// end-to-end recovery of §2.1 depends on the µproxy staying transparent to
// retries.) The recorded path is copied out under the shard lock: the
// record is pooled and may be recycled the moment the lock is released.
//
// A READ's or WRITE's record was built from unverified bytes, so its
// retransmission is verified (checked says whether handleRequest already
// did) and must agree with it in procedure, handle and offset — what the
// record was routed, stamped and will account the reply by. One that does
// not came from a corrupt first transmission, which every server's Recv
// dropped: it is discarded — its load slot, dirty mark and span released —
// and the retransmission routed fresh rather than along a wrong path with
// a capability for the wrong handle.
func (p *Proxy) retransmit(d []byte, key pendKey, call *oncrpc.Call, info *nfsproto.RequestInfo, checked bool, clk *lapClock) (netsim.Verdict, bool) {
	s := p.shardFor(key)
	s.mu.Lock()
	pd := s.pend[key]
	if pd != nil && !checked && inPlace(pd.prog, pd.proc) {
		s.mu.Unlock()
		if !netsim.VerifyChecksum(d) {
			return p.consumeDrop(d), true
		}
		s.mu.Lock()
		pd = s.pend[key]
	}
	if pd == nil {
		s.mu.Unlock()
		return 0, false
	}
	if inPlace(pd.prog, pd.proc) && (pd.prog != call.Program || pd.proc != nfsproto.Proc(call.Proc) ||
		pd.info.FH != info.FH || pd.info.Offset != info.Offset) {
		delete(s.pend, key)
		s.mu.Unlock()
		if p.dirty != nil {
			p.settleReplica(pd, nil)
		}
		p.dropPending(pd)
		return 0, false
	}
	var tbuf [4]netsim.Addr
	var targets []netsim.Addr
	if len(pd.targets) <= len(tbuf) {
		targets = tbuf[:copy(tbuf[:], pd.targets)]
	} else {
		targets = append([]netsim.Addr(nil), pd.targets...)
	}
	rec := pd.info
	prog, proc, ver := pd.prog, pd.proc, pd.routeVer
	s.mu.Unlock()
	p.lap(clk, stDecode)
	p.settle(clk, nil)
	// If the routing tables changed since the path was recorded, the
	// recorded servers may be dead (crashed and republished at new
	// addresses): re-resolve the path so the client's end-to-end retries —
	// the §2.1 recovery mechanism — reach the survivors, and re-arm the
	// record to await a reply from each target of the new path.
	if cur := p.routeVersion(); ver != cur {
		if fresh, ok := p.retargets(prog, proc, rec); ok {
			targets = fresh
			s.mu.Lock()
			if pd2 := s.pend[key]; pd2 != nil {
				if len(fresh) <= len(pd2.targetsBuf) {
					pd2.targets = pd2.targetsBuf[:copy(pd2.targetsBuf[:], fresh)]
				} else {
					pd2.targets = append([]netsim.Addr(nil), fresh...)
				}
				pd2.routeVer = cur
				p.arm(pd2, len(fresh))
			}
			s.mu.Unlock()
		}
	}
	// Storage-bound retransmissions need the capability re-stamped: the
	// client resends the raw handle.
	if len(p.cfg.CapKey) > 0 && inPlace(prog, proc) && !p.cfg.IO.SmallFileTarget(rec.Offset) {
		capVal := fhandle.Capability(p.cfg.CapKey, rec.FH)
		off := netsim.HeaderSize + oncrpc.CallHeader + rec.FHOffset + capFieldOffset
		_ = netsim.RewriteUint64(d, off, capVal)
	}
	p.injectToAll(d, targets)
	return netsim.Consumed, true
}

// routeIO directs a read or write at the small-file server or the storage
// array per the threshold and striping policies (§3.1).
func (p *Proxy) routeIO(d []byte, key pendKey, pd *pendingReq) netsim.Verdict {
	info := &pd.info
	io := p.cfg.IO

	if io.SmallFileTarget(info.Offset) {
		addr, err := io.SmallFileServer(info.FH)
		if err != nil {
			p.dropPending(pd)
			return p.consumeDrop(d)
		}
		pd.hop = obs.HopSmallfile
		return p.forward(d, key, pd, addr)
	}

	// Requests bound for storage nodes carry a capability: rewrite the
	// handle's capability field in the raw datagram and repair the
	// checksum incrementally (same mechanism as address redirection).
	if len(p.cfg.CapKey) > 0 {
		capVal := fhandle.Capability(p.cfg.CapKey, info.FH)
		off := netsim.HeaderSize + oncrpc.CallHeader + info.FHOffset + capFieldOffset
		if err := netsim.RewriteUint64(d, off, capVal); err != nil {
			p.dropPending(pd)
			return p.consumeDrop(d)
		}
	}

	pd.hop = obs.HopStorage
	stripe := io.StripeIndex(info.Offset)
	if info.Proc == nfsproto.ProcWrite {
		// Resolve the full target set: one node for a plain write, the
		// whole replica group when replicated, both bindings' targets
		// while a topology transition is open (double-write). Anything
		// beyond one target fans out and completes only when every
		// target replied.
		targets, err := io.WriteTargets(info.FH, stripe)
		if err != nil || len(targets) == 0 {
			p.dropPending(pd)
			return p.consumeDrop(d)
		}
		if len(targets) > 1 {
			p.arm(pd, len(targets))
			return p.forwardMulti(d, key, pd, targets)
		}
		return p.forward(d, key, pd, targets[0])
	}

	addr, err := io.ReadTarget(info.FH, stripe)
	if err == nil && p.dirty != nil {
		addr = p.spreadRead(pd, key, addr, stripe)
	}
	if err != nil {
		p.dropPending(pd)
		return p.consumeDrop(d)
	}
	return p.forward(d, key, pd, addr)
}

// arm makes pd await one reply from each of its n targets: the count, an
// empty set of targets heard from, and, for a WRITE fanned out over a
// replicated array, a dirty mark on the object — taken before the packets
// leave, so that a read racing the fan-out sees the object dirty and pins
// to the primary. Re-arming a record for a retargeted path takes the new
// mark before it releases the old one, so the object never reads clean in
// between.
func (p *Proxy) arm(pd *pendingReq, n int) {
	pd.expect, pd.replied = n, nil
	held := pd.dirtyMark
	pd.dirtyMark = p.dirty != nil && n > 1 && pd.proc == nfsproto.ProcWrite
	if pd.dirtyMark {
		pd.dirtyKey = pd.info.FH.Ident()
		p.dirty.MarkWrite(pd.dirtyKey)
		if p.hists != nil {
			p.hists.dirtyOcc.Record(uint64(p.dirty.Len()))
		}
	}
	if held {
		p.dirty.ClearWrite(pd.dirtyKey)
	}
}

// spreadRead picks the replica-group member to serve a read that the
// placement resolved to primary. A dirty object pins to the primary —
// its reply order defines the file's contents while writes are in
// flight; a clean object goes to the less loaded of two member slots
// drawn from the request hash (power-of-two-choices over this µproxy's
// own outstanding spread reads).
func (p *Proxy) spreadRead(pd *pendingReq, key pendKey, primary netsim.Addr, stripe uint64) netsim.Addr {
	g, ok := p.cfg.IO.Replicas.GroupOf(primary)
	if !ok || len(g.Members) <= 1 {
		return primary
	}
	if p.dirty.Dirty(pd.info.FH.Ident()) {
		if p.hists != nil {
			p.hists.pinned.Record(1)
		}
		return g.Members[0]
	}
	h := pendHash(key) ^ (stripe+1)*0x9E3779B97F4A7C15
	i, j := replica.Pick2(len(g.Members), h)
	slot := g.Slot0 + i
	if alt := g.Slot0 + j; alt < len(p.loads) && slot < len(p.loads) &&
		p.loads[alt].Load() < p.loads[slot].Load() {
		i, slot = j, alt
	}
	if slot >= len(p.loads) { // topology outgrew the load array: stay safe
		return primary
	}
	p.loads[slot].Add(1)
	pd.readSlot = int32(slot + 1)
	if p.hists != nil && slot < len(p.hists.readSpread) {
		p.hists.readSpread[slot].Record(1)
	}
	return g.Members[i]
}

// retargets re-resolves the forwarding path of a retransmitted request
// after a routing-table change. Resolution is deterministic (mkdir
// switching hashes the parent handle and name), so a recomputed path
// agrees with the original whenever the responsible logical site is
// unchanged — only the physical address moves.
func (p *Proxy) retargets(prog uint32, proc nfsproto.Proc, info nfsproto.RequestInfo) ([]netsim.Addr, bool) {
	if prog == mountProgram {
		a, err := p.cfg.Names.Dirs.Lookup(mountSite)
		if err != nil {
			return nil, false
		}
		return []netsim.Addr{a}, true
	}
	if proc == nfsproto.ProcRead || proc == nfsproto.ProcWrite {
		if p.cfg.IO.SmallFileTarget(info.Offset) {
			a, err := p.cfg.IO.SmallFileServer(info.FH)
			if err != nil {
				return nil, false
			}
			return []netsim.Addr{a}, true
		}
		stripe := p.cfg.IO.StripeIndex(info.Offset)
		if proc == nfsproto.ProcWrite {
			// Keep the full resolved fan-out: replica members must all
			// converge, and a write retransmitted across a transition
			// boundary must reach the pending binding too.
			ts, err := p.cfg.IO.WriteTargets(info.FH, stripe)
			if err != nil || len(ts) == 0 {
				return nil, false
			}
			return ts, true
		}
		a, err := p.cfg.IO.ReadTarget(info.FH, stripe)
		if err != nil {
			return nil, false
		}
		return []netsim.Addr{a}, true
	}
	// Name-space and attribute operations route by the name policy.
	a, err := p.cfg.Names.AddrFor(&info)
	if err != nil {
		return nil, false
	}
	return []netsim.Addr{a}, true
}

// forward rewrites the destination in place (incremental checksum
// update), publishes the pending record, and reinjects the datagram.
func (p *Proxy) forward(d []byte, key pendKey, pd *pendingReq, target netsim.Addr) netsim.Verdict {
	netsim.RewriteDst(d, target)
	pd.targetsBuf[0] = target
	pd.targets = pd.targetsBuf[:1]
	p.publish(key, pd)
	_ = p.cfg.Net.Inject(d)
	return netsim.Consumed
}

// forwardMulti replicates the datagram to several targets (replica-group
// and double-written transition writes). Each copy keeps the client's source address and xid so replies
// pair with the same pending record. The copies are cut after the record
// is published, outside the stage clock like the injection they feed.
func (p *Proxy) forwardMulti(d []byte, key pendKey, pd *pendingReq, targets []netsim.Addr) netsim.Verdict {
	if len(targets) <= len(pd.targetsBuf) {
		pd.targets = pd.targetsBuf[:copy(pd.targetsBuf[:], targets)]
	} else {
		pd.targets = targets
	}
	p.publish(key, pd)
	p.injectToAll(d, targets)
	return netsim.Consumed
}

// publish closes the request half of pd's clock and makes the record
// pairable: everything since decode was redirection (route resolution and
// the rewrite), and the last lap — soft state — brackets the insert
// itself, so it is read and settled under the shard lock. Once the lock
// drops, a reply may pair with the record and own it.
func (p *Proxy) publish(key pendKey, pd *pendingReq) {
	p.lap(&pd.clk, stRewrite)
	p.settle(&pd.clk, pd.span)
	pd.routeVer = p.routeVersion()
	s := p.shardFor(key)
	s.mu.Lock()
	s.pend[key] = pd
	p.lap(&pd.clk, stSoftState)
	p.settle(&pd.clk, pd.span)
	s.mu.Unlock()
	p.st.requests.Add(1)
}

// injectToAll sends d to every target, duplicating it from the buffer
// pool for all but the first. Ownership of d transfers to the network.
func (p *Proxy) injectToAll(d []byte, targets []netsim.Addr) {
	if len(targets) == 0 {
		netsim.FreeBuf(d)
		return
	}
	// Every copy is cut BEFORE the original is injected anywhere: Inject
	// hands the buffer to the network, which may deliver, free, and
	// recycle it while this loop is still running — copying from d after
	// its first injection would mirror whatever the pool reused it for.
	for _, target := range targets[1:] {
		dup := netsim.GetBuf(len(d))
		copy(dup, d)
		netsim.RewriteDst(dup, target)
		_ = p.cfg.Net.Inject(dup)
	}
	netsim.RewriteDst(d, targets[0])
	_ = p.cfg.Net.Inject(d)
}

// nfsCall issues an NFS call the µproxy originates itself (lookups for
// remove orchestration, setattr writeback, commit fan-out). The call is
// attributed to span sp (nil for background work) as a hop of the given
// kind.
func (p *Proxy) nfsCall(sp *obs.Span, hop obs.HopKind, addr netsim.Addr, proc nfsproto.Proc, args nfsproto.Msg, res nfsproto.Msg) error {
	p.st.initiated.Add(1)
	body, err := p.obsCall(sp, hop, addr, nfsproto.Program, nfsproto.Version, uint32(proc), args.Encode)
	if err != nil {
		return err
	}
	return res.Decode(xdr.NewDecoder(body))
}

// serviceLoop is the paced request worker: one request per ServiceTime,
// metered against an absolute deadline (next += S) so the loop tracks
// its nominal rate instead of accumulating scheduler drift — under
// saturation it forwards exactly 1/ServiceTime ops/s.
func (p *Proxy) serviceLoop() {
	defer p.wg.Done()
	var next time.Time
	for {
		select {
		case <-p.stopCh:
			for {
				select {
				case d := <-p.workCh:
					netsim.FreeBuf(d)
				default:
					return
				}
			}
		case d := <-p.workCh:
			// Bounded catch-up credit: sleep overshoot (timer slack is
			// coarser than ServiceTime) leaves next behind the clock, and
			// the deficit is repaid by serving queued requests back to
			// back. The credit is capped so an idle proxy cannot bank an
			// unlimited burst.
			now := time.Now()
			if floor := now.Add(-32 * p.cfg.ServiceTime); next.Before(floor) {
				next = floor
			} else if wait := next.Sub(now); wait > 0 {
				time.Sleep(wait)
			}
			next = next.Add(p.cfg.ServiceTime)
			p.handleRequest(d)
		}
	}
}

func (p *Proxy) writebackLoop() {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.WritebackInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-tick.C:
			p.WritebackAttrs()
		}
	}
}
