// Package oncrpc implements the ONC-RPC-style remote procedure call layer
// that carries the Slice file protocol over the datagram network.
//
// The wire format follows RFC 1831's essentials: every message begins with
// a transaction id (xid) and a message type; calls carry program, version,
// and procedure numbers ahead of the argument body; replies carry an accept
// status ahead of the result body. Field offsets are fixed and exported so
// the µproxy can locate the procedure number and argument body of a call
// within a raw datagram without a general decoder.
//
// Clients retransmit on timeout with exponential backoff — the end-to-end
// recovery the Slice architecture relies on when the µproxy or the network
// drops packets (§2.1). A retransmitted non-idempotent call must not
// execute twice. The rule is by procedure, as in NFSv3 servers (RFC
// 1813): the idempotent NFS procedures — NULL, GETATTR, LOOKUP, ACCESS,
// READLINK, READ, READDIR and FSSTAT — simply run again when
// retransmitted; SETATTR, WRITE, CREATE, MKDIR, SYMLINK, REMOVE, RMDIR,
// RENAME, LINK and COMMIT, and every call of any other program, are
// executed at most once (nfsproto.Proc.Idempotent is the one
// classification). The server drops a retransmission of such a call while
// the call executes; once it has completed, the role that served it
// answers the retransmission from the outcome it recorded where the call
// mutated (package once), by rebuilding the reply, never by executing the
// call again. No server keeps a reply.
package oncrpc

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/xdr"
)

// Message types.
const (
	MsgCall  = 0
	MsgReply = 1
)

// Reply accept status (RFC 1831 accept_stat).
const (
	AcceptSuccess      = 0
	AcceptProgUnavail  = 1
	AcceptProgMismatch = 2
	AcceptProcUnavail  = 3
	AcceptGarbageArgs  = 4
	AcceptSystemErr    = 5
)

// Byte offsets of call and reply header fields within an RPC payload,
// exported for interposed rewriters. A reply's header ends in one fixed
// 64-bit word, the server's wall time for the call in nanoseconds (0 from
// a server without an observer, and in every reply the µproxy builds
// itself): interposed elements read it to split a hop's round trip into
// server time and wire time.
const (
	OffXid      = 0
	OffMsgType  = 4
	OffProgram  = 8
	OffVersion  = 12
	OffProc     = 16
	CallHeader  = 20 // call body begins here
	OffAccept   = 8  // within a reply
	OffServerNS = 12 // within a reply
	ReplyHeader = 20 // reply body begins here
)

// EncodeCall assembles an RPC call message.
func EncodeCall(xid, prog, vers, proc uint32, args func(*xdr.Encoder)) []byte {
	e := xdr.NewEncoder(CallHeader + 128)
	putCall(e, xid, prog, vers, proc, args)
	return e.Bytes()
}

func putCall(e *xdr.Encoder, xid, prog, vers, proc uint32, args func(*xdr.Encoder)) {
	e.PutUint32(xid)
	e.PutUint32(MsgCall)
	e.PutUint32(prog)
	e.PutUint32(vers)
	e.PutUint32(proc)
	if args != nil {
		args(e)
	}
}

// EncodeReply assembles an RPC reply message.
func EncodeReply(xid, accept uint32, res func(*xdr.Encoder)) []byte {
	e := xdr.NewEncoder(ReplyHeader + 128)
	putReply(e, xid, accept, res)
	return e.Bytes()
}

func putReply(e *xdr.Encoder, xid, accept uint32, res func(*xdr.Encoder)) {
	e.PutUint32(xid)
	e.PutUint32(MsgReply)
	e.PutUint32(accept)
	e.PutUint64(0) // server time, filled in by Server.serve
	if res != nil && accept == AcceptSuccess {
		res(e)
	}
}

// encoders recycles the Encoder structs of outgoing messages. A call's
// args and a handler's result are encoded through a func value or an
// interface, which moves the encoder they are handed to the heap; drawn
// from here, it is not a fresh object per message.
var encoders = sync.Pool{New: func() any { return new(xdr.Encoder) }}

// newMessageEncoder returns an encoder for one outgoing message whose
// buffer is recycled through the fabric's datagram pool: a 32 KiB WRITE
// call is encoded into warm pooled memory rather than a fresh 40 KiB heap
// object per message. The caller hands it back with freeEncoder once its
// buffer has been sent, sealed or Released.
func newMessageEncoder(header int) *xdr.Encoder {
	e := encoders.Get().(*xdr.Encoder)
	*e = xdr.PooledEncoder(netsim.GetBuf, netsim.FreeBuf, header+128)
	return e
}

// freeEncoder returns an encoder from newMessageEncoder to the pool. Its
// buffer must already belong to someone else — sent, sealed, or Released:
// the struct forgets it, so the next message cannot write into it.
func freeEncoder(e *xdr.Encoder) {
	*e = xdr.Encoder{}
	encoders.Put(e)
}

// newDatagramEncoder is newMessageEncoder with the datagram header's room
// reserved in front of the message: the encoded buffer becomes the
// datagram that carries it (netsim.Seal, netsim.Port.Send), so the
// message is never copied after it is encoded. Whoever sends or seals the
// buffer owns it from then on; otherwise the caller Releases it.
func newDatagramEncoder(header int) *xdr.Encoder {
	e := newMessageEncoder(netsim.HeaderSize + header)
	e.Reserve(netsim.HeaderSize)
	return e
}

// BuildReply encodes a reply message from src to dst straight into a
// pooled datagram, sealed and owned by the caller (netsim.FreeBuf), who
// typically hands it to the network: EncodeReply and netsim.Build without
// the copy between them.
func BuildReply(src, dst netsim.Addr, xid, accept uint32, res func(*xdr.Encoder)) ([]byte, error) {
	e := newDatagramEncoder(ReplyHeader)
	defer freeEncoder(e)
	putReply(e, xid, accept, res)
	d := e.Bytes()
	if err := netsim.Seal(d, src, dst); err != nil {
		e.Release()
		return nil, err
	}
	return d, nil
}

// Call is a decoded call header plus its argument body.
type Call struct {
	Xid     uint32
	Program uint32
	Version uint32
	Proc    uint32
	Body    []byte // aliases the datagram payload
}

// Reply is a decoded reply header plus its result body.
type Reply struct {
	Xid      uint32
	Accept   uint32
	ServerNS uint64 // the server's time for the call; 0 when it was not timed
	Body     []byte // aliases the datagram payload

	dgram []byte // the pooled receive buffer Body aliases, when owned
}

// Free returns the receive buffer behind a reply obtained from
// CallKeyedReply to the datagram pool. Body, and everything decoded from
// it that aliases it, must not be used afterwards. A reply that is never
// freed costs the pool a buffer and nothing else: nobody else holds it.
func (r *Reply) Free() {
	netsim.FreeBuf(r.dgram)
	r.dgram, r.Body = nil, nil
}

// ErrBadMessage indicates a malformed RPC payload.
var ErrBadMessage = errors.New("oncrpc: bad message")

// IsCall reports whether the payload is an RPC call (vs a reply). It reads
// only the message-type field.
func IsCall(payload []byte) (bool, error) {
	if len(payload) < OffMsgType+4 {
		return false, fmt.Errorf("%w: short payload", ErrBadMessage)
	}
	d := xdr.NewDecoder(payload)
	mt, err := d.UintAt(OffMsgType)
	if err != nil {
		return false, err
	}
	switch mt {
	case MsgCall:
		return true, nil
	case MsgReply:
		return false, nil
	}
	return false, fmt.Errorf("%w: message type %d", ErrBadMessage, mt)
}

// ParseCall decodes a call payload.
func ParseCall(payload []byte) (Call, error) {
	if len(payload) < CallHeader {
		return Call{}, fmt.Errorf("%w: short call (%d bytes)", ErrBadMessage, len(payload))
	}
	d := xdr.NewDecoder(payload)
	xid, _ := d.Uint32()
	mt, _ := d.Uint32()
	if mt != MsgCall {
		return Call{}, fmt.Errorf("%w: not a call (type %d)", ErrBadMessage, mt)
	}
	prog, _ := d.Uint32()
	vers, _ := d.Uint32()
	proc, _ := d.Uint32()
	return Call{Xid: xid, Program: prog, Version: vers, Proc: proc,
		Body: payload[CallHeader:]}, nil
}

// ParseReply decodes a reply payload.
func ParseReply(payload []byte) (Reply, error) {
	if len(payload) < ReplyHeader {
		return Reply{}, fmt.Errorf("%w: short reply (%d bytes)", ErrBadMessage, len(payload))
	}
	d := xdr.NewDecoder(payload)
	xid, _ := d.Uint32()
	mt, _ := d.Uint32()
	if mt != MsgReply {
		return Reply{}, fmt.Errorf("%w: not a reply (type %d)", ErrBadMessage, mt)
	}
	accept, _ := d.Uint32()
	ns, _ := d.Uint64()
	return Reply{Xid: xid, Accept: accept, ServerNS: ns, Body: payload[ReplyHeader:]}, nil
}

// Conn is the datagram endpoint an RPC client runs over. *netsim.Port
// implements it natively; internal/wire adapts real UDP and TCP sockets so
// clients can reach a Slice ensemble across processes.
type Conn interface {
	SendTo(dst netsim.Addr, payload []byte) error
	Recv(timeout time.Duration) ([]byte, error)
	Addr() netsim.Addr
	Close()
}

// ---------------------------------------------------------------- client

// Resolver reports the current address of a service. A client configured
// with one re-resolves the destination before every transmission —
// including retransmissions within a single Call — so a caller can
// re-target a restarted or replacement manager without tearing the client
// down (the paper's §2.3 failover: a reconfigured manager takes over and
// traffic follows it). A zero return falls back to the client's static
// server address. Resolvers are called concurrently and must be
// thread-safe.
type Resolver func() netsim.Addr

// KeyResolver resolves the destination of one transmission from the
// call's flow key — the hook the flow-hashing front plugs into: keyed
// calls re-resolve before every transmission, so when the proxy owning
// a flow crashes and the fleet table swaps, the very next
// retransmission lands on the flow's new owner. A zero return falls
// back to the plain Resolver, then to the static server address. Key 0
// is an ordinary flow key (mount-time traffic uses it), not a
// sentinel. KeyResolvers are called concurrently and must be
// thread-safe and allocation-free: they run on the bulk I/O fast path.
type KeyResolver func(key uint64) netsim.Addr

// backoff multiplies a call's retransmission timeout after each attempt,
// up to maxTimeout.
const backoff = 2

// maxTimeout caps the doubling of a call's retransmission timeout, so the
// ladder bounds a call's time and not only its attempts: past the cap each
// attempt waits maxTimeout (plus jitter), where 40 uncapped attempts from
// 25 ms would reach a 100 s wait by the 13th (DESIGN.md §15.2). An initial
// timeout configured above the cap is kept, and does not grow.
const maxTimeout = 2 * time.Second

// backedOff returns the retransmission timeout that follows t.
func backedOff(t time.Duration) time.Duration {
	if t >= maxTimeout {
		return t
	}
	return min(t*backoff, maxTimeout)
}

// ClientConfig tunes RPC client behaviour.
type ClientConfig struct {
	// Timeout is the initial retransmission timeout (default 50ms); it
	// doubles after each retransmission, up to 2 s (maxTimeout).
	Timeout time.Duration
	// Retries is the maximum number of transmissions (default 5).
	Retries int
	// Jitter is the maximum fraction of each retransmission timeout added
	// as random slack, decorrelating the retry storms of clients that
	// timed out together (default 0.1; negative disables).
	Jitter float64
	// Resolve, when non-nil, overrides the server address per transmission.
	Resolve Resolver
	// ResolveKey, when non-nil, overrides the server address per
	// transmission for keyed calls (CallKeyed), taking
	// precedence over Resolve when it returns a non-zero address.
	ResolveKey KeyResolver
}

// The default retransmission ladder, which every client in the product
// runs.
const (
	defaultTimeout = 50 * time.Millisecond
	defaultRetries = 5
	defaultJitter  = 0.1
)

// Ladder is the most time a default client spends on one call: its
// transmissions' timeouts, 50 + 100 + 200 + 400 + 800 ms (defaultTimeout
// doubling over defaultRetries transmissions), plus the most jitter
// they get, 10 % — about 1.7 s.
const Ladder = defaultTimeout * (1<<defaultRetries - 1) * 11 / 10

func (c *ClientConfig) defaults() {
	if c.Timeout <= 0 {
		c.Timeout = defaultTimeout
	}
	if c.Retries <= 0 {
		c.Retries = defaultRetries
	}
	if c.Jitter == 0 {
		c.Jitter = defaultJitter
	}
}

// xidCounter feeds randomUint32. A scrambled atomic counter gives every
// client process-wide unique, well-spread draws without a global rand lock.
// It MUST start from per-process entropy: a zero start would make every
// process draw the same "random" xid sequence, so two client processes
// reaching a server from a reused source address would collide in its
// outcome table and be answered from each other's outcomes.
var xidCounter atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// No entropy source: fall back to the clock, which still differs
		// across process starts.
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	xidCounter.Store(binary.BigEndian.Uint64(b[:]))
}

// randomUint32 returns the next draw from a splitmix64 sequence over the
// package counter: cheap, lock-free, and uniform enough that two client
// incarnations on the same host/port will not share an xid window.
func randomUint32() uint32 {
	x := xidCounter.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return uint32(x)
}

// ErrTimedOut is returned when all retransmissions of a call go unanswered.
var ErrTimedOut = errors.New("oncrpc: call timed out")

// ErrRejected is returned when the server rejects a call.
type ErrRejected struct{ Accept uint32 }

// Error implements the error interface.
func (e *ErrRejected) Error() string {
	return fmt.Sprintf("oncrpc: call rejected (accept_stat %d)", e.Accept)
}

// numPendingShards shards the xid→reply-channel map. With a windowed
// bulk client keeping dozens of calls in flight, a single pending-map
// mutex becomes the hot lock: every call, every reply, and every
// retransmission timer would serialize on it. Sixteen shards keyed by
// the xid's low bits keep registration and reply matching contention-free
// (xids are sequential, so consecutive in-flight calls land on distinct
// shards).
const numPendingShards = 16

// pendingCall is one registered in-flight call: its reply channel plus
// the destinations its transmissions were sent to. A reply is matched
// only when it arrives FROM one of those destinations — the standard
// datagram-RPC peer check. Under an interposed router this is what keeps
// clients honest about the virtual server: every reply the µproxy
// forwards or synthesizes is sourced from the virtual address the client
// called, while a reply leaking straight from a physical server (e.g.
// one replica of a fanned-out write, after the router lost its soft
// state) arrives from an address the client never wrote to and must be
// ignored — accepting it would acknowledge an operation the other
// replicas may never have seen. Two slots suffice: a call only changes
// destination when a retransmission re-resolves across a
// reconfiguration, and then the first and latest destinations are the
// ones a live reply can still come from.
//
// Records are recycled through callPool with their channel and timer, so
// a call allocates neither. The one rule: a record goes back to the pool
// only from the call that received its reply (and stopped its timer before
// it fired, so no tick is left in it either). dispatch removes the map
// entry before its single send on ch, so once that send has been received
// nothing else refers to the record; a call that gave up, on the other
// hand, may already have been matched and have the send still on its way —
// recycled, that late reply would complete whichever call took the record
// next — so its record is left to the garbage collector.
type pendingCall struct {
	ch    chan Reply
	timer *time.Timer // stopped, its channel empty, whenever the record is pooled
	dst   [2]netsim.Addr
	ndst  int
}

var callPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &pendingCall{ch: make(chan Reply, 1), timer: t}
}}

// sentTo records a transmission destination (first + latest kept).
func (pc *pendingCall) sentTo(a netsim.Addr) {
	for i := 0; i < pc.ndst; i++ {
		if pc.dst[i] == a {
			return
		}
	}
	if pc.ndst < len(pc.dst) {
		pc.dst[pc.ndst] = a
		pc.ndst++
		return
	}
	pc.dst[len(pc.dst)-1] = a
}

// from reports whether a reply sourced at a answers this call.
func (pc *pendingCall) from(a netsim.Addr) bool {
	for i := 0; i < pc.ndst; i++ {
		if pc.dst[i] == a {
			return true
		}
	}
	return false
}

// pendingShard is one lock-striped slice of the pending-call map.
type pendingShard struct {
	mu sync.Mutex
	m  map[uint32]*pendingCall
}

// Client issues RPC calls to a fixed server address over a netsim port and
// matches replies to calls by xid. Calls may be issued concurrently from
// any number of goroutines.
type Client struct {
	port   Conn
	sealer sealer // port, when it can send a call encoded in place; else nil
	server netsim.Addr
	cfg    ClientConfig

	nextXid atomic.Uint32
	closed  atomic.Bool
	shards  [numPendingShards]pendingShard

	// retransmissions counts retransmitted calls, for tests and stats.
	retransmissions atomic.Uint64
	// armed counts the transmissions whose reply was not queued when
	// they returned, each of which armed its call's timer, for tests.
	armed atomic.Uint64
	// strayReplies counts replies rejected by the peer-address check:
	// a matching xid from an address the call was never sent to.
	strayReplies atomic.Uint64
}

// NewClient creates a client bound to port that calls the given server
// address. The client owns the port's receive side: on a port that offers
// an upcall (a *netsim.Port) its reply dispatch becomes the port's
// receiver, and on any other Conn a receive loop runs the same dispatch.
// On a port that seals datagrams in place (a *netsim.Port again) every
// transmission of a call is encoded into the datagram that carries it; on
// any other Conn a call is encoded once and SendTo copies it.
// Its xid sequence starts at a per-client random draw, so a client
// restarted on a reused host/port cannot collide with its previous
// incarnation's entries in a server's outcome table.
func NewClient(port Conn, server netsim.Addr, cfg ClientConfig) *Client {
	cfg.defaults()
	seed := randomUint32()
	c := &Client{
		port:   port,
		server: server,
		cfg:    cfg,
	}
	c.sealer, _ = port.(sealer)
	c.nextXid.Store(seed - 1) // Add(1) on first register yields the seed
	for i := range c.shards {
		c.shards[i].m = make(map[uint32]*pendingCall)
	}
	if u, ok := port.(upcaller); ok {
		u.SetUpcall(c.dispatch)
	} else {
		go c.recvLoop()
	}
	return c
}

// LazyClient is how a role that calls many sites holds one client for all
// of them: Get, on its first call, binds a free ephemeral port of the host
// and builds a client there with no server of its own — each call names
// its site with CallTo, and a zero site goes to the config's Resolve — and
// every later Get returns the same client, or the same error.
type LazyClient struct {
	net  *netsim.Network
	host uint32
	cfg  ClientConfig

	built  atomic.Pointer[Client]
	mu     sync.Mutex // serializes the build with Close
	err    error
	closed bool
}

// NewLazyClient returns a LazyClient that binds on host of n on first use.
func NewLazyClient(n *netsim.Network, host uint32, cfg ClientConfig) *LazyClient {
	return &LazyClient{net: n, host: host, cfg: cfg}
}

// Get returns the client, building it on first use. After Close it binds
// nothing: it returns the closed client, whose calls fail, or, when none
// was built, netsim.ErrClosed.
func (l *LazyClient) Get() (*Client, error) {
	if c := l.built.Load(); c != nil {
		return c, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if c := l.built.Load(); c != nil {
		return c, nil
	}
	if l.closed {
		return nil, netsim.ErrClosed
	}
	if l.err != nil {
		return nil, l.err
	}
	port, err := l.net.BindAny(l.host)
	if err != nil {
		l.err = err
		return nil, err
	}
	c := NewClient(port, netsim.Addr{}, l.cfg)
	l.built.Store(c)
	return c, nil
}

// Close closes the client if Get built one. Idempotent.
func (l *LazyClient) Close() {
	l.mu.Lock()
	l.closed = true
	c := l.built.Load()
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// target resolves the destination for one transmission of a call to
// dst (zero: resolved from the call's flow key).
func (c *Client) target(key uint64, dst netsim.Addr) netsim.Addr {
	if !dst.IsZero() {
		return dst
	}
	if c.cfg.ResolveKey != nil {
		if a := c.cfg.ResolveKey(key); !a.IsZero() {
			return a
		}
	}
	if c.cfg.Resolve != nil {
		if a := c.cfg.Resolve(); !a.IsZero() {
			return a
		}
	}
	return c.server
}

// Retransmissions returns the number of retransmitted datagrams.
func (c *Client) Retransmissions() uint64 {
	return c.retransmissions.Load()
}

// StrayReplies returns the number of replies dropped because they
// arrived from an address their call was never sent to.
func (c *Client) StrayReplies() uint64 {
	return c.strayReplies.Load()
}

// Close shuts the client down; in-flight calls fail.
func (c *Client) Close() {
	c.closed.Store(true)
	c.port.Close()
}

// shard returns the pending shard owning xid.
func (c *Client) shard(xid uint32) *pendingShard {
	return &c.shards[xid%numPendingShards]
}

// register allocates an xid and its pending-call record.
func (c *Client) register() (uint32, *pendingCall, error) {
	if c.closed.Load() {
		return 0, nil, netsim.ErrClosed
	}
	xid := c.nextXid.Add(1)
	pc := callPool.Get().(*pendingCall)
	pc.ndst = 0
	s := c.shard(xid)
	s.mu.Lock()
	s.m[xid] = pc
	s.mu.Unlock()
	return xid, pc, nil
}

// noteSent records that xid's call was transmitted to dst, admitting
// replies sourced there. Serialized with reply matching by the shard
// lock; called before the datagram is handed to the network, so the
// reply can never outrun its admission.
func (c *Client) noteSent(xid uint32, dst netsim.Addr) {
	s := c.shard(xid)
	s.mu.Lock()
	if pc, ok := s.m[xid]; ok {
		pc.sentTo(dst)
	}
	s.mu.Unlock()
}

// unregister removes a call's pending entry (idempotent: the receive
// loop removes it first when a reply wins the race).
func (c *Client) unregister(xid uint32) {
	s := c.shard(xid)
	s.mu.Lock()
	delete(s.m, xid)
	s.mu.Unlock()
}

// upcaller is a Conn that can hand each received datagram straight to a
// receive function on the delivering goroutine (*netsim.Port).
type upcaller interface {
	SetUpcall(fn func(d []byte))
}

// sealer is a Conn that sends a datagram whose payload its caller encoded
// in place after netsim.HeaderSize bytes of room (*netsim.Port). A wrapper
// that embeds Conn hides Send, and so keeps every call on SendTo.
type sealer interface {
	Send(dst netsim.Addr, d []byte) error
}

// recvLoop feeds dispatch from a Conn that only offers Recv.
func (c *Client) recvLoop() {
	for {
		d, err := c.port.Recv(0)
		if err != nil {
			return // port closed
		}
		c.dispatch(d)
	}
}

// dispatch matches one received datagram, which it owns, to the call
// waiting for it and hands it over; anything else is freed. It never
// blocks and takes only the xid's shard lock, because on a fabric port it
// runs inside the sender's send (netsim.Port.SetUpcall) — so the sender
// wakes the waiting caller itself, with no receive goroutine in between.
func (c *Client) dispatch(d []byte) {
	rep, err := ParseReply(netsim.Payload(d))
	if err != nil {
		netsim.FreeBuf(d)
		return // not a reply; ignore
	}
	src := netsim.Addr{
		Host: binary.BigEndian.Uint32(d[netsim.OffSrcHost:]),
		Port: binary.BigEndian.Uint16(d[netsim.OffSrcPort:]),
	}
	s := c.shard(rep.Xid)
	s.mu.Lock()
	pc, ok := s.m[rep.Xid]
	if ok && !pc.from(src) {
		// Matching xid, wrong peer: a stray reply from an address this
		// call was never sent to. Leave the call registered — the real
		// peer's answer (or a retransmission's) still matches — and drop
		// the stray.
		ok = false
		c.strayReplies.Add(1)
	} else if ok {
		delete(s.m, rep.Xid)
	}
	s.mu.Unlock()
	if !ok {
		netsim.FreeBuf(d)
		return
	}
	// The datagram buffer passes to the awaiting caller along with the
	// body that aliases it. Duplicate deliveries of the same xid find no
	// pending entry and are freed above, so the buffered send can never
	// block.
	rep.dgram = d
	pc.ch <- rep
}

// Call issues proc of prog/vers with the encoded args and returns the
// reply body. It retransmits on timeout.
func (c *Client) Call(prog, vers, proc uint32, args func(*xdr.Encoder)) ([]byte, error) {
	rep, err := c.call(0, netsim.Addr{}, prog, vers, proc, args)
	return rep.Body, err
}

// CallTo is Call to dst, so one client serves every site a role calls. A
// zero dst goes where Call goes, re-resolved before every transmission.
// It returns the whole reply, so the caller can read the server's time
// for the call (Reply.ServerNS); the reply's Body is the caller's own
// copy, and there is nothing to Free.
func (c *Client) CallTo(dst netsim.Addr, prog, vers, proc uint32, args func(*xdr.Encoder)) (Reply, error) {
	return c.call(0, dst, prog, vers, proc, args)
}

// CallKeyed issues a call tagged with a flow key: every transmission —
// including retransmissions — resolves its destination through the
// configured ResolveKey, so the call follows its flow's owner across
// fleet reconfigurations. Without a ResolveKey it behaves exactly like
// Call.
func (c *Client) CallKeyed(key uint64, prog, vers, proc uint32, args func(*xdr.Encoder)) ([]byte, error) {
	rep, err := c.call(key, netsim.Addr{}, prog, vers, proc, args)
	return rep.Body, err
}

// CallKeyedReply is CallKeyed without the copy: the returned reply's Body
// aliases the pooled buffer the reply arrived in, which the caller owns
// and hands back with Reply.Free once it has decoded (and copied out of)
// the body. It is how a bulk reader gets a 32 KiB READ result with no
// intermediate allocation.
func (c *Client) CallKeyedReply(key uint64, prog, vers, proc uint32, args func(*xdr.Encoder)) (Reply, error) {
	return c.roundTrip(key, netsim.Addr{}, prog, vers, proc, args)
}

// call is roundTrip with the reply's body copied out and its buffer
// freed.
func (c *Client) call(key uint64, dst netsim.Addr, prog, vers, proc uint32, args func(*xdr.Encoder)) (Reply, error) {
	rep, err := c.roundTrip(key, dst, prog, vers, proc, args)
	if err != nil {
		return Reply{}, err
	}
	body := append([]byte(nil), rep.Body...)
	rep.Free()
	rep.Body = body
	return rep, nil
}

// callHead is the header of one registered call. A retransmission
// re-encodes the call from it and the call's args: safe, because args only
// reads, and what it reads — a WRITE's chunk buffer included — outlives
// the call (DESIGN.md §9). args is passed beside it, never in a struct
// with the encoded payload: escape analysis does not tell fields apart,
// and a payload handed to SendTo would move every caller's args to the
// heap.
type callHead struct{ xid, prog, vers, proc uint32 }

// roundTrip registers one call and runs it. Off a sealing Conn the call is
// encoded once, into a pooled buffer that lives exactly as long as the
// call may still be retransmitted.
func (c *Client) roundTrip(key uint64, dst netsim.Addr, prog, vers, proc uint32, args func(*xdr.Encoder)) (Reply, error) {
	xid, pc, err := c.register()
	if err != nil {
		return Reply{}, err
	}
	defer c.unregister(xid)
	h := callHead{xid: xid, prog: prog, vers: vers, proc: proc}
	var payload []byte
	if c.sealer == nil {
		e := newMessageEncoder(CallHeader)
		defer freeEncoder(e)
		defer e.Release()
		putCall(e, xid, prog, vers, proc, args)
		payload = e.Bytes()
	}
	return c.transact(key, dst, h, args, payload, pc)
}

// transmit sends one transmission of the call h to dst: payload, the call
// encoded once, through SendTo; or with no payload the call encoded afresh
// from args into the datagram that carries it, through Send. A closed
// client transmits nothing: a call in flight across Close ends at its next
// transmission rather than running out its retry ladder.
func (c *Client) transmit(dst netsim.Addr, h callHead, args func(*xdr.Encoder), payload []byte) error {
	if c.closed.Load() {
		return netsim.ErrClosed
	}
	if payload != nil {
		return c.port.SendTo(dst, payload)
	}
	e := newDatagramEncoder(CallHeader)
	putCall(e, h.xid, h.prog, h.vers, h.proc, args)
	err := c.sealer.Send(dst, e.Bytes())
	freeEncoder(e)
	return err
}

// transact runs the retransmit/timeout loop for one registered call, so
// every call, whichever method issued it, gets the same backoff, jitter,
// and re-resolve behaviour. The caller owns the returned reply (see
// Reply.Free); pc is transact's to recycle and must not be used after it
// returns.
func (c *Client) transact(key uint64, to netsim.Addr, h callHead, args func(*xdr.Encoder), payload []byte, pc *pendingCall) (Reply, error) {
	timeout := c.cfg.Timeout
	dst := c.target(key, to)
	for attempt := 0; attempt < c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.retransmissions.Add(1)
			// Re-resolve before every retransmission: if the server was
			// restarted elsewhere while we waited, the retry goes to the
			// replacement instead of the corpse.
			dst = c.target(key, to)
		}
		c.noteSent(h.xid, dst)
		if err := c.transmit(dst, h, args, payload); err != nil {
			return Reply{}, err
		}
		// A server that serves inline — every one on the fabric — has
		// queued its reply by the time transmit returns: such a call
		// takes it without arming the timer, which is then unarmed and
		// empty (never armed, or fired and drained by the attempt before).
		select {
		case rep := <-pc.ch:
			callPool.Put(pc)
			return accepted(rep)
		default:
		}
		wait := timeout
		if c.cfg.Jitter > 0 {
			frac := float64(randomUint32()) / (1 << 32)
			wait += time.Duration(float64(timeout) * c.cfg.Jitter * frac)
		}
		c.armed.Add(1)
		pc.timer.Reset(wait)
		select {
		case rep := <-pc.ch:
			// A timer stopped before it fired has sent nothing and will
			// send nothing. One that fired as the reply arrived may, under
			// the buffered timer channels this module's go line selects,
			// deliver its tick after any attempt to drain it; that record
			// is not worth recycling.
			if pc.timer.Stop() {
				callPool.Put(pc)
			}
			return accepted(rep)
		case <-pc.timer.C:
			timeout = backedOff(timeout)
		}
	}
	return Reply{}, fmt.Errorf("%w: proc %d to %s after %d attempts",
		ErrTimedOut, h.proc, dst, c.cfg.Retries)
}

// accepted returns rep as a call's result: itself if the server accepted
// the call, an ErrRejected (and rep freed) otherwise.
func accepted(rep Reply) (Reply, error) {
	if rep.Accept != AcceptSuccess {
		rep.Free()
		return Reply{}, &ErrRejected{Accept: rep.Accept}
	}
	return rep, nil
}

// ---------------------------------------------------------------- server

// Handler serves the body of a single RPC call: it appends the call's
// result to e, the reply the server has begun, and returns the accept
// status. e belongs to the server for the one call — the handler neither
// keeps it nor anything from e.Bytes past its return — and on any accept
// but AcceptSuccess the server truncates whatever the handler wrote, so
// the reply carries the header alone (DESIGN.md §15.6). call.Body aliases
// the request datagram, which lives until the handler returns.
//
// Handlers run concurrently, each on the goroutine that delivered its call
// (see NewServer). A handler may call another server — a directory server
// its peers — since no server needs a receiving goroutine: that server's
// handler runs nested on the caller's goroutine, or on a fabric delay
// timer's. Nothing the sender of a call holds may be needed by the handler
// or by the reply's way back.
type Handler interface {
	ServeRPC(call Call, from netsim.Addr, e *xdr.Encoder) (accept uint32)
}

// HandlerFunc adapts a function that returns its result as an encoder
// function to the Handler interface. That function is typically a closure
// made per call, an allocation no server in the product makes: every one
// encodes into the reply. It is the adapter for tests and test harnesses.
type HandlerFunc func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32)

// ServeRPC implements Handler.
func (f HandlerFunc) ServeRPC(call Call, from netsim.Addr, e *xdr.Encoder) uint32 {
	res, accept := f(call, from)
	if res != nil && accept == AcceptSuccess {
		res(e)
	}
	return accept
}

// ServerObserver is notified after each handled call with the call's
// identity — its source and xid, and its program and procedure — and the
// server's readings of obs.Now before the handler and after the encoding
// of its result, where a bulk READ does its actual reading. It runs on the
// goroutine that served the call, before the reply is sent, and must be
// cheap and thread-safe (the obs wiring records one histogram sample, a
// single atomic add, and two ring events for a call in the sample).
type ServerObserver func(id obs.CallID, prog, proc uint32, t0, t1 int64)

// Server accepts RPC calls on a port and dispatches them to a handler.
// It runs on a fabric port, not any Conn, because it sends each reply in
// the buffer it encoded it into (netsim.Port.Send).
type Server struct {
	port    *netsim.Port
	handler Handler
	obs     atomic.Pointer[ServerObserver]

	mu       sync.Mutex
	inflight map[callKey]struct{} // at-most-once calls being executed

	// serving counts the calls being served, plus closing once Close has
	// begun; the serve that leaves the count at closing closes drained,
	// on which Close waits.
	serving   atomic.Int64
	drained   chan struct{}
	closeOnce sync.Once
	drainOnce sync.Once
}

// callKey is what a retransmission repeats of its call.
type callKey struct {
	src netsim.Addr
	xid uint32
}

// closing marks a server's serving count once Close has begun.
const closing = 1 << 62

// NewServer starts serving calls arriving on port with handler. Each call
// is served on the goroutine that delivers it, through the port's upcall
// (netsim.Port.SetUpcall): the sender's, or a delay timer's, so no
// goroutine is woken to take it and none is started. A handler that calls
// a peer server runs that server's handler nested on its own goroutine;
// the reply is matched on the way back (the client's upcall), before the
// caller waits for it.
func NewServer(port *netsim.Port, handler Handler) *Server {
	s := &Server{
		port:     port,
		handler:  handler,
		inflight: make(map[callKey]struct{}),
		drained:  make(chan struct{}),
	}
	port.SetUpcall(s.serveInline)
	return s
}

// Addr returns the server's bound address.
func (s *Server) Addr() netsim.Addr { return s.port.Addr() }

// SetObserver installs (or, with nil, removes) the server's observer.
// While an observer is installed the server also writes each call's time
// into its reply header (OffServerNS), so interposed elements can split
// this hop's round trip into server time and wire time.
func (s *Server) SetObserver(fn ServerObserver) {
	if fn == nil {
		s.obs.Store(nil)
		return
	}
	s.obs.Store(&fn)
}

// Close stops the server and waits for the handlers in flight, on their
// senders' goroutines, so a server restarted over the same store never
// overlaps one of them. A handler must not call it. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.port.Close()
		if s.serving.Add(closing) != closing {
			<-s.drained
		}
	})
}

// serveInline is the port's upcall. A call delivered once Close has begun
// is dropped unserved: the closed port already drops the ones that reach
// it later.
func (s *Server) serveInline(d []byte) {
	if s.serving.Add(1)&closing == 0 {
		s.serve(d)
	} else {
		netsim.FreeBuf(d)
	}
	if s.serving.Add(-1) == closing {
		s.drainOnce.Do(func() { close(s.drained) })
	}
}

// serve handles one delivered datagram: parse, suppression of a duplicate
// in flight, handler, reply. It owns d, which the fabric has verified.
func (s *Server) serve(d []byte) {
	h, err := netsim.ParseHeader(d)
	if err != nil {
		netsim.FreeBuf(d)
		return
	}
	call, err := ParseCall(netsim.Payload(d))
	if err != nil {
		netsim.FreeBuf(d)
		return
	}
	from := h.Src
	key := callKey{src: from, xid: call.Xid}
	atMostOnce := !reExecutes(&call)
	if atMostOnce && !s.admit(key) {
		netsim.FreeBuf(d)
		return
	}

	obsFn := s.obs.Load()
	var t0 int64
	if obsFn != nil {
		t0 = obs.Now()
	}
	// The reply is encoded into the buffer that becomes its datagram: the
	// header first, then the handler's result behind it — a READ's data is
	// read straight into the datagram that carries it.
	e := newDatagramEncoder(ReplyHeader)
	putReply(e, call.Xid, AcceptSuccess, nil)
	accept := s.handler.ServeRPC(call, from, e)
	if accept != AcceptSuccess {
		e.Truncate(netsim.HeaderSize + ReplyHeader)
		binary.BigEndian.PutUint32(e.Bytes()[netsim.HeaderSize+OffAccept:], accept)
	}
	out := e.Bytes()
	freeEncoder(e) // out is the reply's now: sent below
	if obsFn != nil {
		t1 := obs.Now()
		(*obsFn)(obs.CallID{Host: from.Host, Port: from.Port, Xid: call.Xid}, call.Program, call.Proc, t0, t1)
		binary.BigEndian.PutUint64(out[netsim.HeaderSize+OffServerNS:], uint64(t1-t0))
	}
	// call.Body aliases the request datagram; the handler has copied out
	// what it keeps, so it can go back now.
	netsim.FreeBuf(d)
	if atMostOnce {
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
	}
	_ = s.port.Send(from, out)
}

// reExecutes reports whether a retransmission of call simply runs again:
// true of the NFSv3 procedures nfsproto classes idempotent. Every other
// call — the non-idempotent NFS procedures and every other program — is
// executed at most once: its handler answers a retransmission of a call
// it completed from the outcome it recorded, and the server drops one of
// a call still executing.
func reExecutes(call *Call) bool {
	return call.Program == nfsproto.Program && call.Version == nfsproto.Version &&
		nfsproto.Proc(call.Proc).Idempotent()
}

// admit registers an at-most-once call in flight and reports whether it
// is to be executed: false when a call under the same {source, xid} is
// executing — its retransmission, dropped, since the client retries and
// then finds the handler's recorded outcome. A different call colliding
// with the one in flight is dropped too, but its own retransmission
// lands once the first has left flight, and is executed.
func (s *Server) admit(key callKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, busy := s.inflight[key]; busy {
		return false
	}
	s.inflight[key] = struct{}{}
	return true
}
