package wire

import (
	"bufio"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/netsim"
	"slice/internal/obs"
)

const (
	// synthHostBase is the base of the synthetic client host range; the
	// allocator pre-increments, so the first peer host is synthHostBase+1.
	synthHostBase = 0x7F000000

	// connPlaceholderHost is the fabric host a client-side Conn reports in
	// Addr(). It sits below synthHostBase, so it can never collide with a
	// gateway-allocated peer host.
	connPlaceholderHost = 0x7E000001

	// maxDatagram is the largest payload a UDP datagram can carry (65535
	// minus IP and UDP headers). Datagram read buffers are sized to it,
	// not to netsim.MaxDatagram: jumbo fabric datagrams never ride UDP.
	maxDatagram = 65507

	// IdleTimeout is how long a datagram peer may stay quiet before its
	// fabric port and its two goroutines are reclaimed. A stream peer needs
	// no timer: its connection closing is the signal.
	IdleTimeout = 2 * time.Minute

	// injectQueue is how many of a datagram peer's records may wait for
	// its injector; one more is dropped, as a full socket buffer drops
	// it, and RPC retransmission recovers. A client keeps at most a
	// window of bulk calls (16 by default) in flight.
	injectQueue = 128

	// datagramReadBuffer is the receive buffer a datagram gateway asks
	// its socket for. The kernel's default (net.core.rmem_default, about
	// 208 KiB on Linux) is smaller than one client's window of bulk WRITE
	// datagrams, so the kernel dropped part of every burst unseen and each
	// one waited out a retransmission: two clients wrote 56 files of
	// 256 KiB a second through the default and 3 214 with 4 MiB. The
	// kernel caps the request at net.core.rmem_max.
	datagramReadBuffer = 4 << 20
)

// synthHosts allocates synthetic peer hosts process-wide — not per
// gateway and not per framing: a fleet runs up to two gateways per member
// over one shared fabric, and independent counters would hand peers of
// different gateways the same host. Since netsim recycles ephemeral ports
// after close, two distinct remote clients could then end up with
// identical {host, port} fabric addresses — which poisons the servers'
// outcome tables across clients. Monotonic process-wide hosts
// keep every peer's fabric address unique for the life of the process.
var synthHosts atomic.Uint32

// Stats counts gateway activity; a datagram counts as one record. Drops
// are invisible to both endpoints (they look like network loss, and RPC
// retransmission recovers), so each cause is counted rather than silently
// discarded. Record maxima are what the conformance tests assert: a
// transfer whose records exceed the old 96 KiB datagram cap proves the
// stream path is not datagram-bound.
type Stats struct {
	Conns       int    // live peers: stream connections or datagram remotes
	TotalConns  uint64 // peers ever admitted
	RxRecords   uint64 // records read from clients
	TxRecords   uint64 // records written to clients
	RxBytes     uint64
	TxBytes     uint64
	MaxRxRecord uint64 // largest single record received
	MaxTxRecord uint64 // largest single record sent
	Drops       uint64 // DropNoPeer + DropInject + DropWrite
	DropNoPeer  uint64 // inbound: no fabric endpoint could be allocated
	DropInject  uint64 // inbound: fabric send failed, or a datagram peer's queue was full
	DropWrite   uint64 // outbound: socket write failed
	Evicted     uint64 // datagram peers reclaimed by idle eviction
}

// event indexes the rare-event counters: the three drop causes and idle
// eviction.
type event int

const (
	dropNoPeer event = iota
	dropInject
	dropWrite
	evicted
	numEvents
)

var eventHists = [numEvents]string{
	obs.HistWireDropNoPeer, obs.HistWireDropInject, obs.HistWireDropWrite, obs.HistWireEvicted,
}

// gwHists are the obs histograms a gateway records into. The events are
// counters in histogram clothing (every sample is 1, the count is the
// value), which is how drops reach `slicectl stats`.
type gwHists struct {
	rxRecord *obs.Histogram // bytes per received record
	txRecord *obs.Histogram // bytes per sent record
	connRx   *obs.Histogram // bytes per stream connection lifetime, inbound
	connTx   *obs.Histogram // bytes per peer lifetime, outbound
	connNS   *obs.Histogram // peer lifetime in nanoseconds
	events   [numEvents]*obs.Histogram
}

// Gateway gives real-socket clients a synthetic address on the netsim
// fabric: every record a remote peer sends is injected toward the virtual
// server from that address, so it traverses the interposed µproxy exactly
// like in-fabric traffic, and replies are pumped back to the peer's
// socket. It serves one of two framings — record-marked ONC-RPC streams
// or bare UDP datagrams — which differ only in how a peer is
// demultiplexed, how records are delimited and when a peer ends.
type Gateway struct {
	sock    io.Closer    // the TCP listener or the UDP socket
	addr    net.Addr     // where it listens
	pc      *net.UDPConn // datagram framing, else nil
	fabric  *netsim.Network
	virtual netsim.Addr

	hists atomic.Pointer[gwHists]

	totalConns  atomic.Uint64
	rxRecords   atomic.Uint64
	txRecords   atomic.Uint64
	rxBytes     atomic.Uint64
	txBytes     atomic.Uint64
	maxRxRecord atomic.Uint64
	maxTxRecord atomic.Uint64
	events      [numEvents]atomic.Uint64

	mu     sync.Mutex
	peers  map[netip.AddrPort]*peer // by remote socket address
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// peer is one remote client: its socket address, its synthetic fabric
// endpoint and, for datagram peers, the queue its injector drains and
// when it last moved a datagram in either direction (for idle eviction).
type peer struct {
	remote   netip.AddrPort
	port     *netsim.Port
	tcp      net.Conn     // stream framing, else nil
	in       chan []byte  // datagram framing, else nil; closed under Gateway.mu
	lastUsed atomic.Int64 // UnixNano; datagram framing only
}

func (p *peer) touch() { p.lastUsed.Store(time.Now().UnixNano()) }

func (p *peer) close() {
	if p.tcp != nil {
		p.tcp.Close()
	}
	p.port.Close()
}

// NewGateway starts a gateway accepting record-marked ONC-RPC connections
// on the given TCP address, forwarding to the fabric's virtual server
// address.
func NewGateway(listen string, fabric *netsim.Network, virtual netsim.Addr) (*Gateway, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	g := newGateway(ln, ln.Addr(), fabric, virtual)
	g.wg.Add(1)
	go g.acceptLoop(ln)
	return g, nil
}

// NewDatagramGateway starts a gateway relaying bare RPC datagrams on the
// given UDP address, forwarding to the fabric's virtual server address.
func NewDatagramGateway(listen string, fabric *netsim.Network, virtual netsim.Addr) (*Gateway, error) {
	pc, err := net.ListenPacket("udp", listen)
	if err != nil {
		return nil, err
	}
	g := newGateway(pc, pc.LocalAddr(), fabric, virtual)
	g.pc = pc.(*net.UDPConn)
	_ = g.pc.SetReadBuffer(datagramReadBuffer) // best effort: a smaller buffer only drops more
	g.wg.Add(2)
	go g.datagramLoop()
	go g.janitor()
	return g, nil
}

func newGateway(sock io.Closer, addr net.Addr, fabric *netsim.Network, virtual netsim.Addr) *Gateway {
	return &Gateway{
		sock:    sock,
		addr:    addr,
		fabric:  fabric,
		virtual: virtual,
		peers:   make(map[netip.AddrPort]*peer),
		stop:    make(chan struct{}),
	}
}

// SetObs attaches an obs registry for the gateway's histograms.
func (g *Gateway) SetObs(r *obs.Registry) {
	h := &gwHists{
		rxRecord: r.Hist(obs.HistWireRxRecord),
		txRecord: r.Hist(obs.HistWireTxRecord),
		connRx:   r.Hist(obs.HistWireConnRx),
		connTx:   r.Hist(obs.HistWireConnTx),
		connNS:   r.Hist(obs.HistWireConnNS),
	}
	for ev, name := range eventHists {
		h.events[ev] = r.Hist(name)
	}
	g.hists.Store(h)
}

// Addr returns the socket address the gateway listens on.
func (g *Gateway) Addr() net.Addr { return g.addr }

// Port returns the TCP or UDP port the gateway listens on.
func (g *Gateway) Port() uint32 {
	ap, _ := netip.ParseAddrPort(g.addr.String())
	return uint32(ap.Port())
}

// Stats returns a snapshot of the gateway counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	conns := len(g.peers)
	g.mu.Unlock()
	s := Stats{
		Conns:       conns,
		TotalConns:  g.totalConns.Load(),
		RxRecords:   g.rxRecords.Load(),
		TxRecords:   g.txRecords.Load(),
		RxBytes:     g.rxBytes.Load(),
		TxBytes:     g.txBytes.Load(),
		MaxRxRecord: g.maxRxRecord.Load(),
		MaxTxRecord: g.maxTxRecord.Load(),
		DropNoPeer:  g.events[dropNoPeer].Load(),
		DropInject:  g.events[dropInject].Load(),
		DropWrite:   g.events[dropWrite].Load(),
		Evicted:     g.events[evicted].Load(),
	}
	s.Drops = s.DropNoPeer + s.DropInject + s.DropWrite
	return s
}

// Close stops the gateway and tears down every peer.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	close(g.stop)
	for _, p := range g.peers {
		g.dropLocked(p)
		p.close()
	}
	g.mu.Unlock()
	g.sock.Close()
	g.wg.Wait()
}

// admit allocates a new peer's synthetic fabric endpoint and starts its
// reply pump, with g.mu held. A datagram peer gets an injector too; a
// stream peer's reader, started by acceptLoop, injects its records.
func (g *Gateway) admit(remote netip.AddrPort, tcp net.Conn) (*peer, error) {
	if g.closed {
		return nil, netsim.ErrClosed
	}
	port, err := g.fabric.BindAny(synthHostBase + synthHosts.Add(1))
	if err != nil {
		return nil, err
	}
	p := &peer{remote: remote, port: port, tcp: tcp}
	p.touch()
	g.peers[remote] = p
	g.totalConns.Add(1)
	g.wg.Add(1)
	go g.pumpOut(p)
	if tcp == nil {
		p.in = make(chan []byte, injectQueue)
		g.wg.Add(1)
		go g.injectLoop(p)
	}
	return p, nil
}

// retire removes a peer; idempotent across its reader and its pump. The
// table entry is deleted only while it is still this peer: the kernel may
// already have handed the remote address to a successor.
func (g *Gateway) retire(p *peer) {
	g.mu.Lock()
	if g.peers[p.remote] == p {
		g.dropLocked(p)
	}
	g.mu.Unlock()
	p.close()
}

// dropLocked removes a peer from the table, with g.mu held, and closes a
// datagram peer's queue: records are queued only under g.mu and only to a
// peer in the table, so none can follow the close, and the injector ends
// once it has drained the rest.
func (g *Gateway) dropLocked(p *peer) {
	delete(g.peers, p.remote)
	if p.in != nil {
		close(p.in)
	}
}

// count records n occurrences of a rare event.
func (g *Gateway) count(ev event, n uint64) {
	g.events[ev].Add(n)
	if h := g.hists.Load(); h != nil {
		for ; n > 0; n-- {
			h.events[ev].Record(1)
		}
	}
}

// inject sends one received record onto the fabric toward the virtual
// server from the peer's synthetic address, so the µproxy fleet intercepts
// it like any client datagram. The record is the payload of d, a pooled
// buffer with netsim.HeaderSize bytes of room in front, which Send seals
// in place and takes ownership of; a failure (e.g. a record larger than
// the fabric MTU) is counted, and RPC retransmission recovers exactly as
// for datagram loss.
func (g *Gateway) inject(p *peer, d []byte) {
	n := uint64(len(netsim.Payload(d)))
	g.rxRecords.Add(1)
	g.rxBytes.Add(n)
	maxUp(&g.maxRxRecord, n)
	if h := g.hists.Load(); h != nil {
		h.rxRecord.Record(n)
	}
	if err := p.port.Send(g.virtual, d); err != nil {
		g.count(dropInject, 1)
	}
}

func (g *Gateway) acceptLoop(ln net.Listener) {
	defer g.wg.Done()
	for {
		tcp, err := ln.Accept()
		if err != nil {
			return
		}
		g.mu.Lock()
		p, err := g.admit(tcp.RemoteAddr().(*net.TCPAddr).AddrPort(), tcp)
		g.mu.Unlock()
		if err != nil {
			g.count(dropNoPeer, 1)
			tcp.Close()
			continue
		}
		g.wg.Add(1)
		go g.streamReader(p)
	}
}

// streamReader reassembles records off a peer's TCP stream and injects
// each. The connection ending is what retires a stream peer.
func (g *Gateway) streamReader(p *peer) {
	defer g.wg.Done()
	defer g.retire(p)

	var connRx uint64
	defer func() {
		if h := g.hists.Load(); h != nil {
			h.connRx.Record(connRx)
		}
	}()

	br := bufio.NewReaderSize(p.tcp, 64<<10)
	for {
		// Reassembled behind room for the datagram header, the record
		// goes onto the fabric in the buffer it was read into.
		d, err := readRecord(br, netsim.HeaderSize)
		if err != nil {
			return
		}
		connRx += uint64(len(netsim.Payload(d)))
		g.inject(p, d)
	}
}

// datagramLoop reads UDP datagrams (bare RPC payloads) and queues a copy
// of each, sized to it, to its peer: a datagram's length is known only
// once it has been read into a buffer large enough for any.
func (g *Gateway) datagramLoop() {
	defer g.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, remote, err := g.pc.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		d := netsim.GetBuf(netsim.HeaderSize + n)
		copy(netsim.Payload(d), buf[:n])
		g.enqueue(remote, d)
	}
}

// enqueue demultiplexes a datagram to its peer by source address —
// admitting on first contact — and queues it for the peer's injector.
// Every server serves a call on the goroutine that injects it (DESIGN.md
// §15.1), so the loop that reads the socket must not inject: a directory
// server's handler waiting on a lost peer reply would hold every peer's
// datagrams behind it, where a peer of its own holds only its own.
func (g *Gateway) enqueue(remote netip.AddrPort, d []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.peers[remote]
	if p == nil {
		var err error
		if p, err = g.admit(remote, nil); err != nil {
			netsim.FreeBuf(d)
			g.count(dropNoPeer, 1)
			return
		}
	}
	p.touch()
	select {
	case p.in <- d:
	default:
		netsim.FreeBuf(d)
		g.count(dropInject, 1)
	}
}

// injectLoop injects a datagram peer's records in the order they arrived
// until the peer is dropped from the table, as streamReader does for a
// stream peer.
func (g *Gateway) injectLoop(p *peer) {
	defer g.wg.Done()
	for d := range p.in {
		g.inject(p, d)
	}
}

// janitor reclaims idle datagram peers. Without it, every remote address
// that ever sent a datagram pinned a port and a goroutine for the life of
// the gateway.
func (g *Gateway) janitor() {
	defer g.wg.Done()
	tick := time.NewTicker(IdleTimeout / 8)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case now := <-tick.C:
			g.evictIdle(now)
		}
	}
}

// evictIdle retires every peer quiet for IdleTimeout as of now; closing
// the fabric port drains the peer's pump. A returning remote is simply
// re-admitted under a fresh synthetic address.
func (g *Gateway) evictIdle(now time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.peers {
		if now.Sub(time.Unix(0, p.lastUsed.Load())) < IdleTimeout {
			continue
		}
		g.dropLocked(p)
		p.close()
		g.count(evicted, 1)
	}
}

// pumpOut drains a peer's fabric port back to its socket until the port
// closes (gateway shutdown, connection end or idle eviction). On a stream
// everything already queued coalesces into a single flush — one TCP write
// burst per wakeup, not per record — and a failed write ends the
// connection, dropping the whole unflushed burst. A datagram is its own
// burst, and a failed write is one lost reply, not a dead peer.
func (g *Gateway) pumpOut(p *peer) {
	defer g.wg.Done()
	defer g.retire(p)

	start := time.Now()
	var connTx uint64
	defer func() {
		if h := g.hists.Load(); h != nil {
			h.connTx.Record(connTx)
			h.connNS.Record(uint64(time.Since(start)))
		}
	}()

	var bw *bufio.Writer
	if p.tcp != nil {
		bw = bufio.NewWriterSize(p.tcp, 128<<10)
	}
	for {
		d, err := p.port.Recv(0)
		if err != nil {
			return
		}
		burst := uint64(1)
		err = g.writeOne(p, bw, d, &connTx)
		for bw != nil && err == nil {
			next, ok := p.port.TryRecv()
			if !ok {
				err = bw.Flush()
				break
			}
			burst++
			err = g.writeOne(p, bw, next, &connTx)
		}
		if err != nil {
			g.count(dropWrite, burst)
			if bw != nil {
				return
			}
		}
	}
}

// writeOne writes one reply payload to the peer's socket — as a record
// into the stream's write buffer, or as a datagram — and frees it.
func (g *Gateway) writeOne(p *peer, bw *bufio.Writer, d []byte, connTx *uint64) error {
	payload := netsim.Payload(d)
	n := uint64(len(payload))
	var err error
	if bw != nil {
		err = writeRecord(bw, payload)
	} else {
		p.touch()
		_, err = g.pc.WriteToUDPAddrPort(payload, p.remote)
	}
	netsim.FreeBuf(d)
	if err != nil {
		return err
	}
	g.txRecords.Add(1)
	g.txBytes.Add(n)
	*connTx += n
	maxUp(&g.maxTxRecord, n)
	if h := g.hists.Load(); h != nil {
		h.txRecord.Record(n)
	}
	return nil
}

func maxUp(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
