package proxy

import (
	"encoding/binary"
	"slices"
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
	// end-to-end latency histograms, and the events of every timed call
	// (obs.go) in its ring. Histogram pointers are resolved at
	// construction; recording is one atomic add per sample.
	Obs *obs.Registry
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

// callID is the key of the events of the call k names.
func (k pendKey) callID() obs.CallID {
	return obs.CallID{Host: k.client.Host, Port: k.client.Port, Xid: k.xid}
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
	// info is the call's routing view. Its names alias the datagram being
	// routed and are cleared once route has read them: a record outlives
	// the datagram it was parsed from.
	info nfsproto.RequestInfo

	// targets is the path the call's last transmission was routed along:
	// the servers whose replies the record awaits. arm sets it, for the
	// first transmission and again for every retransmission, which is
	// routed afresh (route). For the common fan-outs it aliases
	// targetsBuf, so recording the path costs no allocation.
	targets    []netsim.Addr
	targetsBuf [4]netsim.Addr

	// heard has bit i set once targets[i] replied: each server on the
	// path counts once, though retransmissions make servers replay their
	// replies, and the record completes when every bit is set.
	heard uint64
	// errReply holds the first non-OK reply body of a multi-target
	// request so the worst outcome is what the client sees.
	errReply []byte

	// onOK runs when a successful reply arrives, before it is forwarded;
	// orchestration hooks use it. It blocks on RPCs of the µproxy's own,
	// on the goroutine that delivered the reply.
	onOK func()

	// Replica bookkeeping (nil dirty set disables it). dirtyMark says
	// this record holds one dirty-set count on dirtyKey, released only
	// when every replica acknowledged success.
	dirtyMark bool
	dirtyKey  fhandle.Key

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
	clk lapClock    // the stage clock (obs.go)
	hop obs.HopKind // where the request was forwarded
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
	// It is the only state read spreading keeps (spreadRead).
	dirty *replica.DirtySet

	// rpc is the one client every RPC the µproxy originates goes out on,
	// bound on first use: CallTo names each data site, and its zero site
	// is the coordinator, through cfg.Coord.
	rpc *oncrpc.LazyClient

	// now reads the stage clock, obs.Now (a field so a test can count the
	// reads): one reading stamps events and, through wallTime, attribute
	// times without a second clock read.
	now func() int64

	tapTok *netsim.TapToken
	st     stageCounters
	hists  *proxyHists // nil when cfg.Obs is nil

	// orchestrating counts the orchestrations in flight, plus closing
	// once Close has begun; the one that leaves the count at closing
	// closes drained, on which Close waits. wg counts the writeback loop.
	orchestrating atomic.Int64
	drained       chan struct{}
	drainOnce     sync.Once
	stopCh        chan struct{}
	closeOnce     sync.Once
	wg            sync.WaitGroup
}

const closing = 1 << 62 // marks the orchestration count once Close has begun

// New creates a µproxy and registers it as a tap on the network.
func New(cfg Config) *Proxy {
	p := &Proxy{
		cfg:     cfg,
		attrs:   newAttrCache(),
		rpc:     oncrpc.NewLazyClient(cfg.Net, cfg.Host, oncrpc.ClientConfig{Resolve: cfg.Coord}),
		now:     obs.Now,
		drained: make(chan struct{}),
		stopCh:  make(chan struct{}),
	}
	if cfg.IO != nil && cfg.IO.Replicas.Replicated() {
		p.dirty = replica.NewDirtySet()
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
	p.tapTok = cfg.Net.AddTap(p)
	if cfg.WritebackInterval > 0 {
		p.wg.Add(1)
		go p.writebackLoop()
	}
	return p
}

// Close detaches the µproxy from the network, stops its loops and waits
// for the orchestrations in flight, each bounded by its client's retry
// ladder; later ones are refused. It must not be called from one, and is
// idempotent.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		p.cfg.Net.RemoveTap(p.tapTok)
		close(p.stopCh)
		if p.orchestrating.Add(closing) != closing {
			<-p.drained
		}
		p.wg.Wait()
		p.rpc.Close()
	})
}

// orchestrate runs fn — work on a sender's goroutine that blocks on RPCs
// of the µproxy's own — and reports whether it ran: once Close has begun,
// it refuses.
func (p *Proxy) orchestrate(fn func()) bool {
	ran := p.orchestrating.Add(1)&closing == 0
	if ran {
		fn()
	}
	if p.orchestrating.Add(-1) == closing {
		p.drainOnce.Do(func() { close(p.drained) })
	}
	return ran
}

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
// the dirty marks that belonged to the set resetReplica just emptied. Run
// after resetReplica.
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
			pd.dirtyMark = false
		}
		s.mu.Unlock()
	}
}

// FlushSoftState discards the µproxy's caches — attributes, and over a
// replicated array the dirty set — and the records of calls that have
// waited a second or more. The dirty attributes among those discarded are
// pushed to the directory servers, so no size the µproxy acknowledged is
// lost with them. A call in flight keeps its record: the record pairs the
// reply with the client that sent the call and finishes it as its
// procedure requires, which an address alone cannot (a WRITE's growth is
// recorded from the offset in the call; a READ's EOF is corrected against
// the file's size). DESIGN.md §6 has why that record is still soft state.
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

// resetReplica clears the dirty set along with the rest of the soft state.
// A fresh (or rebooted) µproxy starts with no dirtiness knowledge: a write
// in flight marks its object again at its next retransmission, which
// re-arms its record (or opens a new one where the record was lost), and
// until then the object may be read from any member — the same window §2.1
// accepts for every other piece of lost soft state, closed for committed
// data by the COMMIT barrier.
func (p *Proxy) resetReplica() {
	if p.dirty == nil {
		return
	}
	p.dirty.Reset()
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
// process (malformed or unroutable) or must not count (a reply from a
// server off its record's path, or one already heard from).
func (p *Proxy) consumeDrop(d []byte) netsim.Verdict {
	p.st.dropped.Add(1)
	netsim.FreeBuf(d)
	return netsim.Consumed
}

// Handle implements netsim.Tap: the packet-filter entry point. It runs on
// the sender's goroutine and does all its work there — no per-packet
// goroutine, no allocation in the steady state; an operation the µproxy
// coordinates itself blocks it on RPCs of its own (orchestrate.go).
//
// Interception is timed where it does work: every reply on the fabric is
// probed against the pending table, hit or miss. A call is claimed or
// dismissed by the header match alone — three loads and two compares,
// less than one reading of the clock — so its clock starts with decode.
// Every packet whose xid is in the stage clock's sample counts toward the
// sample's size, a packet that does no timed work included.
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
	xid := binary.BigEndian.Uint32(payload[oncrpc.OffXid:])
	sampled := obs.Sampled(xid)
	if sampled {
		p.st.sampled.Add(1)
	}
	switch binary.BigEndian.Uint32(payload[oncrpc.OffMsgType:]) {
	case oncrpc.MsgCall:
		if dst != p.cfg.Virtual {
			return netsim.Pass
		}
		return p.handleRequest(d, sampled)
	case oncrpc.MsgReply:
		// An untimed reply reads the clock only once it has found its
		// record: the reading ends the forwarded hop.
		var clk lapClock
		if sampled {
			clk = p.startClock(true)
		}
		key := pendKey{client: dst, xid: xid}
		s := p.shardFor(key)
		s.mu.Lock()
		pd, ok := s.pend[key]
		verify := ok && !pd.clientVerifies()
		timedCall := ok && pd.clk.timed
		s.mu.Unlock()
		if sampled {
			p.lap(&clk, stIntercept)
		} else if ok {
			clk = p.startClock(false)
			clk.timed = timedCall
		}
		clk.id = key.callID()
		if ok {
			return p.handleResponse(d, key, clk, verify)
		}
		p.settle(&clk)
	}
	return netsim.Pass
}

// newPending opens the pending record of a freshly decoded call — info
// holds an NFS call's routing fields, nil for another program — hands it
// the call's clock, and closes the decode lap: decode runs from the call's
// arrival until it sits, decoded, in a record. A timed call's first event
// is its arrival.
func (p *Proxy) newPending(clk lapClock, call *oncrpc.Call, info *nfsproto.RequestInfo) *pendingReq {
	pd := getPending()
	pd.prog = call.Program
	if info != nil {
		pd.proc = info.Proc
		pd.info = *info
	}
	pd.clk = clk
	p.event(&pd.clk, obs.KindRecv, uint8(call.Proc), clk.start, uint64(call.Program))
	p.lap(&pd.clk, stDecode)
	return pd
}

// handleRequest classifies and routes one intercepted call, timed when
// sampled says its xid is in the sample or the µproxy orchestrates it. It
// always takes ownership of d: every path forwards it or frees it.
func (p *Proxy) handleRequest(d []byte, sampled bool) netsim.Verdict {
	clk := p.startClock(sampled)
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
	clk.id = key.callID()
	if v, replayed := p.retransmit(d, key, &call, &info, checked, &clk); replayed {
		return v
	}

	if call.Program == mountProgram {
		clk.timed = true
		return p.forward(d, key, p.newPending(clk, &call, nil))
	}
	if call.Program == obs.Program {
		// The stats program is absorbed: the µproxy answers it from the
		// ensemble's collector so slicectl aggregates a live deployment
		// over the same wire the NFS traffic uses.
		if p.cfg.StatsFn == nil {
			return p.consumeDrop(d)
		}
		var arg uint32
		if len(call.Body) >= 4 {
			arg = binary.BigEndian.Uint32(call.Body)
		}
		p.lap(&clk, stDecode)
		p.settle(&clk)
		netsim.FreeBuf(d)
		p.answerStats(h.Src, call.Xid, call.Proc, arg)
		return netsim.Consumed
	}
	if call.Program != nfsproto.Program {
		return p.consumeDrop(d)
	}
	// The calls the µproxy orchestrates are always timed: their own RPCs
	// dwarf the clock.
	var sattr nfsproto.SetAttrArgs
	switch proc {
	case nfsproto.ProcCommit, nfsproto.ProcRemove:
		clk.timed = true
	case nfsproto.ProcSetAttr:
		if sattr.Decode(xdr.NewDecoder(call.Body)) != nil {
			return p.consumeDrop(d)
		}
		clk.timed = clk.timed || sattr.Sattr.SetSize
	}
	pd := p.newPending(clk, &call, &info)

	switch proc {
	case nfsproto.ProcCommit:
		// Commit is absorbed: the µproxy coordinates the multi-site
		// commit and answers the client itself (§3.3.2, §4.1).
		netsim.FreeBuf(d)
		if !p.orchestrate(func() { p.absorbCommit(key, pd) }) {
			p.st.dropped.Add(1)
			putPending(pd)
		}
		return netsim.Consumed
	case nfsproto.ProcRemove:
		if !p.orchestrate(func() { p.routeRemove(d, key, pd) }) {
			putPending(pd)
			return p.consumeDrop(d)
		}
		return netsim.Consumed
	case nfsproto.ProcSetAttr:
		return p.routeSetAttr(d, key, pd, &sattr)
	default:
		return p.forward(d, key, pd)
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
// The forwarded packet or its reply may have been lost past the µproxy, so
// a retransmission is forwarded again — and routed like a call: the path
// is resolved from the tables as they are now, and the record re-armed to
// await that path, under the shard lock the record is published under.
// A server that moved is reached at its new address, a write that a
// transition widened reaches the new binding too, and a fanned-out WRITE
// whose dirty mark a flush stripped marks its object again. The servers'
// outcome tables absorb genuine repeats. (A µproxy that
// swallowed retransmissions would turn one lost packet into a permanently
// stuck request — the end-to-end recovery of §2.1 depends on the µproxy
// staying transparent to retries.)
//
// A READ's or WRITE's record was built from unverified bytes, so its
// retransmission is verified (checked says whether handleRequest already
// did) and must agree with it in procedure, handle and offset — what the
// record was routed, stamped and will account the reply by. One that does
// not came from a corrupt first transmission, which every server's Recv
// dropped: it is discarded — its dirty mark released —
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
		putPending(pd)
		return 0, false
	}
	// A name-space call is routed by names the record does not keep
	// (route): this transmission's, which alias d.
	pd.info.Name, pd.info.Name2 = info.Name, info.Name2
	var buf [len(pendingReq{}.targetsBuf)]netsim.Addr
	path, ok := p.route(d, key, pd, buf[:0])
	s.mu.Unlock()
	p.lap(clk, stDecode)
	p.settle(clk)
	if !ok {
		return p.consumeDrop(d), true
	}
	p.injectToAll(d, path)
	return netsim.Consumed, true
}

// maxPath bounds a call's path: heard has one bit per server on it.
const maxPath = 64

// route resolves the path pd's call takes now and arms pd to await it;
// the first transmission and every retransmission go through it. The
// path is where the policies of §3 put the call: the mount site; the name
// policy's site for name-space and attribute calls (REMOVE's and
// SETATTR's forwards included); for a READ or WRITE the small-file server
// below the threshold, and otherwise the storage array — one node for a
// read, spread over a replica group (spreadRead); every node holding the
// stripe for a write, a transition's double-write included. It stamps the
// capability into d's handle when the path leads to storage nodes and
// addresses d to the path's first server. The path is appended to buf,
// which a write's fan-out outgrows only past len(pd.targetsBuf) servers.
// route reports false, leaving pd armed as it was, when the
// tables cannot place the call. A retransmission calls it under the shard lock of
// the published record.
func (p *Proxy) route(d []byte, key pendKey, pd *pendingReq, buf []netsim.Addr) ([]netsim.Addr, bool) {
	info, io := &pd.info, p.cfg.IO
	var path []netsim.Addr
	var a netsim.Addr
	var err error
	switch {
	case pd.prog == mountProgram:
		pd.hop = obs.HopMount
		a, err = p.cfg.Names.Dirs.Lookup(mountSite)
	case !inPlace(pd.prog, pd.proc):
		pd.hop = obs.HopDirsrv
		a, err = p.cfg.Names.AddrFor(info)
		// The names alias d, which goes to the network next: the record
		// keeps no copy of them, and a retransmission brings its own.
		info.Name, info.Name2 = "", ""
	case io.SmallFileTarget(info.Offset):
		pd.hop = obs.HopSmallfile
		a, err = io.SmallFileServer(info.FH)
	default:
		// Requests bound for storage nodes carry a capability: rewrite the
		// handle's capability field in the raw datagram and repair the
		// checksum incrementally (same mechanism as address redirection).
		if len(p.cfg.CapKey) > 0 {
			capVal := fhandle.Capability(p.cfg.CapKey, info.FH)
			off := netsim.HeaderSize + oncrpc.CallHeader + info.FHOffset + capFieldOffset
			if netsim.RewriteUint64(d, off, capVal) != nil {
				return nil, false
			}
		}
		pd.hop = obs.HopStorage
		stripe := io.StripeIndex(info.Offset)
		if info.Proc == nfsproto.ProcWrite {
			if path, err = io.AppendWriteTargets(buf, info.FH, stripe); len(path) > maxPath {
				return nil, false
			}
		} else if a, err = io.ReadTarget(info.FH, stripe); err == nil && p.dirty != nil {
			a = p.spreadRead(pd, key, a, stripe)
		}
	}
	if err != nil {
		return nil, false
	}
	if path == nil {
		path = append(buf, a)
	}
	p.arm(pd, path)
	netsim.RewriteDst(d, path[0])
	return path, true
}

// arm makes pd await one reply from each server on path, none heard from
// yet. A WRITE fanned out over a replicated array takes a dirty mark on
// its object — before the packets leave, so that a read racing the
// fan-out sees the object dirty and pins to the primary. Re-arming a
// record takes the new mark before it releases the old one, so the object
// never reads clean in between.
func (p *Proxy) arm(pd *pendingReq, path []netsim.Addr) {
	if len(path) <= len(pd.targetsBuf) {
		pd.targets = pd.targetsBuf[:copy(pd.targetsBuf[:], path)]
	} else {
		pd.targets = slices.Clone(path) // a copy: path may live in the caller's frame
	}
	pd.heard = 0
	held := pd.dirtyMark
	pd.dirtyMark = p.dirty != nil && len(path) > 1 && pd.proc == nfsproto.ProcWrite
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
// placement resolved to primary, from the request and the tables alone:
// the dirty set is the only state it reads. A dirty object pins to the
// primary — its reply order defines the file's contents while writes are
// in flight. A clean object goes to the member the request hash names,
// and a retransmission whose last path was one member of the group goes
// to the member after it, so a member that did not answer is not asked
// again while another can be. (pd.targets still holds the last path: arm
// runs after.)
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
	h := (pendHash(key) ^ (stripe+1)*0x9E3779B97F4A7C15) * 0x9E3779B97F4A7C15
	i := int((h >> 32) % uint64(len(g.Members)))
	if len(pd.targets) == 1 {
		if last := slices.Index(g.Members, pd.targets[0]); last >= 0 {
			i = (last + 1) % len(g.Members)
		}
	}
	if p.hists != nil {
		p.hists.readHist(g.ID, i).Record(1)
	}
	return g.Members[i]
}

// forward routes the first transmission of pd's call, publishes its
// record and sends d along the path. It owns d: it forwards or frees it.
func (p *Proxy) forward(d []byte, key pendKey, pd *pendingReq) netsim.Verdict {
	var buf [len(pendingReq{}.targetsBuf)]netsim.Addr
	path, ok := p.route(d, key, pd, buf[:0])
	if !ok {
		putPending(pd)
		return p.consumeDrop(d)
	}
	p.publish(key, pd)
	p.injectToAll(d, path)
	return netsim.Consumed
}

// publish closes the request half of pd's clock and makes the record
// pairable: everything since decode was redirection (route resolution and
// the rewrite), and the last lap — soft state — brackets the insert
// itself, so it is read and settled, and the forward's event written,
// under the shard lock. Once the lock drops, a reply may pair with the
// record and own it.
func (p *Proxy) publish(key pendKey, pd *pendingReq) {
	p.lap(&pd.clk, stRewrite)
	p.settle(&pd.clk)
	s := p.shardFor(key)
	s.mu.Lock()
	s.pend[key] = pd
	p.finalLap(&pd.clk, stSoftState)
	p.settle(&pd.clk)
	p.event(&pd.clk, obs.KindForward, uint8(pd.hop), pd.clk.last, 0)
	s.mu.Unlock()
	p.st.requests.Add(1)
}

// injectToAll sends d, which route addressed to path[0], to every server
// on path, duplicating it from the buffer pool for the rest; the copies
// are cut outside the stage clock, like the injection they feed. Each
// copy keeps the client's source address and xid, so every reply pairs
// with the same pending record. Ownership of d transfers to the network.
func (p *Proxy) injectToAll(d []byte, path []netsim.Addr) {
	// Every copy is cut BEFORE the original is injected anywhere: Inject
	// hands the buffer to the network, which may deliver, free, and
	// recycle it while this loop is still running — copying from d after
	// its first injection would mirror whatever the pool reused it for.
	for _, target := range path[1:] {
		dup := netsim.GetBuf(len(d))
		copy(dup, d)
		netsim.RewriteDst(dup, target)
		_ = p.cfg.Net.Inject(dup)
	}
	_ = p.cfg.Net.Inject(d)
}

// nfsCall issues an NFS call the µproxy originates itself (lookups for
// remove orchestration, setattr writeback, commit fan-out), a sub-call of
// the call whose clock is clk (nil for background work), as a hop of the
// given kind.
func (p *Proxy) nfsCall(clk *lapClock, hop obs.HopKind, addr netsim.Addr, proc nfsproto.Proc, args nfsproto.Msg, res nfsproto.Msg) error {
	p.st.initiated.Add(1)
	body, err := p.obsCall(clk, hop, addr, nfsproto.Program, nfsproto.Version, uint32(proc), args.Encode)
	if err != nil {
		return err
	}
	return res.Decode(xdr.NewDecoder(body))
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
