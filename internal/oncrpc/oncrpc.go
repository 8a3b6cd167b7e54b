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
// drops packets (§2.1). Servers keep a duplicate-request cache (DRC) so
// that a retransmitted non-idempotent call observes its original reply
// rather than executing twice. The rule is by procedure, as in NFSv3
// servers (RFC 1813): the idempotent NFS procedures — NULL, GETATTR,
// LOOKUP, ACCESS, READLINK, READ, READDIR and FSSTAT — never enter the
// cache and simply run again when retransmitted; SETATTR, WRITE, CREATE,
// MKDIR, SYMLINK, REMOVE, RMDIR, RENAME, LINK and COMMIT, and every call of
// any other program, are executed at most once while their reply is
// cached (nfsproto.Proc.Idempotent is the one classification).
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

// newMessageEncoder returns an encoder for one outgoing message whose
// buffer is recycled through the fabric's datagram pool: a 32 KiB WRITE
// call is encoded into warm pooled memory rather than a fresh 40 KiB heap
// object per message. The caller Releases it.
func newMessageEncoder(header int) *xdr.Encoder {
	return xdr.NewPooledEncoder(netsim.GetBuf, netsim.FreeBuf, header+128)
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

// backoff multiplies a call's retransmission timeout after each attempt.
const backoff = 2

// ClientConfig tunes RPC client behaviour.
type ClientConfig struct {
	// Timeout is the initial retransmission timeout (default 50ms); it
	// doubles after each retransmission.
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

func (c *ClientConfig) defaults() {
	if c.Timeout <= 0 {
		c.Timeout = 50 * time.Millisecond
	}
	if c.Retries <= 0 {
		c.Retries = 5
	}
	if c.Jitter == 0 {
		c.Jitter = 0.1
	}
}

// xidCounter feeds randomUint32. A scrambled atomic counter gives every
// client process-wide unique, well-spread draws without a global rand lock.
// It MUST start from per-process entropy: a zero start would make every
// process draw the same "random" xid sequence, so two client processes
// reaching a server from a reused source address would collide in its
// duplicate-request cache and be served each other's cached replies.
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
	server netsim.Addr
	cfg    ClientConfig

	nextXid atomic.Uint32
	closed  atomic.Bool
	shards  [numPendingShards]pendingShard

	// retransmissions counts retransmitted calls, for tests and stats.
	retransmissions atomic.Uint64
	// strayReplies counts replies rejected by the peer-address check:
	// a matching xid from an address the call was never sent to.
	strayReplies atomic.Uint64
}

// NewClient creates a client bound to port that calls the given server
// address. The client owns the port's receive side: on a port that offers
// an upcall (a *netsim.Port) its reply dispatch becomes the port's
// receiver, and on any other Conn a receive loop runs the same dispatch.
// Its xid sequence starts at a per-client random draw, so a client
// restarted on a reused host/port cannot collide with its previous
// incarnation's entries in a server's duplicate-request cache.
func NewClient(port Conn, server netsim.Addr, cfg ClientConfig) *Client {
	cfg.defaults()
	seed := randomUint32()
	c := &Client{
		port:   port,
		server: server,
		cfg:    cfg,
	}
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

// LazyClient returns a function that, on its first call, binds a free
// ephemeral port of host and builds a client there with no server of its
// own: each call names its site with CallTo, and a zero site goes to
// cfg.Resolve. Every later call returns the same client, or the same
// error. It is how a role that calls many sites holds one client for all
// of them.
func LazyClient(n *netsim.Network, host uint32, cfg ClientConfig) func() (*Client, error) {
	return sync.OnceValues(func() (*Client, error) {
		port, err := n.BindAny(host)
		if err != nil {
			return nil, err
		}
		return NewClient(port, netsim.Addr{}, cfg), nil
	})
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

// roundTrip encodes one call into a pooled buffer, which lives exactly as
// long as the call may still be retransmitted, and runs it.
func (c *Client) roundTrip(key uint64, dst netsim.Addr, prog, vers, proc uint32, args func(*xdr.Encoder)) (Reply, error) {
	xid, pc, err := c.register()
	if err != nil {
		return Reply{}, err
	}
	defer c.unregister(xid)
	e := newMessageEncoder(CallHeader)
	defer e.Release()
	putCall(e, xid, prog, vers, proc, args)
	return c.transact(key, dst, xid, proc, e.Bytes(), pc)
}

// transact runs the retransmit/timeout loop for one registered call, so
// every call, whichever method issued it, gets the same backoff, jitter,
// and re-resolve behaviour. The caller owns the returned reply (see
// Reply.Free); pc is transact's to recycle and must not be used after it
// returns.
func (c *Client) transact(key uint64, to netsim.Addr, xid, proc uint32, payload []byte, pc *pendingCall) (Reply, error) {
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
		c.noteSent(xid, dst)
		if err := c.port.SendTo(dst, payload); err != nil {
			return Reply{}, err
		}
		wait := timeout
		if c.cfg.Jitter > 0 {
			frac := float64(randomUint32()) / (1 << 32)
			wait += time.Duration(float64(timeout) * c.cfg.Jitter * frac)
		}
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
			if rep.Accept != AcceptSuccess {
				rep.Free()
				return Reply{}, &ErrRejected{Accept: rep.Accept}
			}
			return rep, nil
		case <-pc.timer.C:
			timeout *= backoff
		}
	}
	return Reply{}, fmt.Errorf("%w: proc %d to %s after %d attempts",
		ErrTimedOut, proc, dst, c.cfg.Retries)
}

// ---------------------------------------------------------------- server

// Handler serves the body of a single RPC call. It returns the result
// encoder function and an accept status. Handlers run concurrently, each
// in-flight request on a server worker of its own (see Server.worker), and
// may block — on a peer server's RPC included — without holding up the
// calls behind them.
type Handler interface {
	ServeRPC(call Call, from netsim.Addr) (res func(*xdr.Encoder), accept uint32)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32)

// ServeRPC implements Handler.
func (f HandlerFunc) ServeRPC(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
	return f(call, from)
}

// drcEntry is a duplicate-request cache entry.
type drcEntry struct {
	key   drcKey
	id    callID
	reply []byte
}

type drcKey struct {
	host netsim.Addr
	xid  uint32
}

// callID is the verifier a {source, xid} cache slot carries: the call's
// program, version, procedure, and argument length. A true retransmission
// repeats all four; a different call re-using the slot's {source, xid} —
// a new client incarnation on a recycled source address whose xid window
// happens to overlap — does not, and replaying the cached reply to it
// would answer the wrong procedure entirely.
type callID struct {
	prog, vers, proc uint32
	bodyLen          int
}

// ServerObserver is notified after each handled call with the call's
// identity and the server's wall time for it: the handler plus the
// encoding of its result, where a bulk READ does its actual reading. It
// runs on the worker that served the call, before the reply is sent, and
// must be cheap and thread-safe (the obs wiring records one histogram
// sample, a single atomic add).
type ServerObserver func(prog, vers, proc uint32, handlerNS uint64)

// Server accepts RPC calls on a port and dispatches them to a handler.
// It runs on a fabric port, not any Conn, because it sends each reply in
// the buffer it encoded it into (netsim.Port.Send).
type Server struct {
	port    *netsim.Port
	handler Handler
	obs     atomic.Pointer[ServerObserver]

	mu       sync.Mutex
	drc      map[drcKey]int // key -> index into drcRing
	drcRing  []drcEntry
	drcNext  int
	inflight map[drcKey]callID

	idle      atomic.Int32 // workers parked in Recv, or about to be
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// DRCSize is the number of replies retained for duplicate suppression.
const DRCSize = 1024

// residentWorkers is how many idle workers a server keeps between calls.
// A worker that finishes a call while this many are already waiting for
// the next one exits; fewer, and it stays, grown stack and all.
const residentWorkers = 8

// drcMaxReply is the largest reply the duplicate-request cache retains.
// The cache exists so that a retransmitted non-idempotent call (CREATE,
// REMOVE, WRITE, ...) observes its original reply, and those replies are
// a status and a few attribute blocks. Idempotent NFS procedures never
// reach it (reExecutes); a larger reply of another program is a peer
// chunk read, which re-executes on retransmission too — retaining it
// would pin ~40 KiB per slot (1024 slots × 4 storage nodes ≈ 160 MiB of
// dead data) and keep every reply buffer out of the pool.
const drcMaxReply = 1024

// NewServer starts serving calls arriving on port with handler.
func NewServer(port *netsim.Port, handler Handler) *Server {
	s := &Server{
		port:     port,
		handler:  handler,
		drc:      make(map[drcKey]int),
		drcRing:  make([]drcEntry, DRCSize),
		inflight: make(map[drcKey]callID),
		closed:   make(chan struct{}),
	}
	s.idle.Store(1)
	s.wg.Add(1)
	go s.worker()
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

// Close stops the server and waits for in-flight handlers. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.port.Close()
		close(s.closed)
		s.wg.Wait()
	})
}

// worker is one resident server goroutine: it receives a datagram from
// the port itself, serves it, and goes back for the next, so the stack it
// grew inside the first deep handler call is still there for the second.
// There is no dispatcher to hand the call over from, and no goroutine is
// started per call.
//
// Invariant: a goroutine is always parked in Recv (or on its way there).
// idle counts those; the worker that takes the last idle slot starts its
// successor before it serves, so a handler that blocks — on a slow store,
// or on a synchronous RPC to a peer server that is itself waiting on this
// one — never keeps the next call from being received. The number of
// workers is therefore unbounded, like the goroutine-per-call it replaces;
// what is bounded is how many stay resident between calls.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		d, err := s.port.Recv(0)
		if err != nil {
			return
		}
		if s.idle.Add(-1) == 0 {
			s.idle.Add(1)
			s.wg.Add(1)
			go s.worker()
		}
		s.serve(d)
		if s.idle.Add(1) > residentWorkers {
			s.idle.Add(-1)
			return
		}
	}
}

// serve handles one received datagram: parse, duplicate suppression,
// handler, reply. It owns d, which the port's Recv has verified.
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
	key := drcKey{host: from, xid: call.Xid}
	id := callID{prog: call.Program, vers: call.Version,
		proc: call.Proc, bodyLen: len(call.Body)}
	atMostOnce := !reExecutes(&call)
	if atMostOnce && !s.admit(key, id, from) {
		netsim.FreeBuf(d)
		return
	}

	obsFn := s.obs.Load()
	var t0 time.Time
	if obsFn != nil {
		t0 = time.Now()
	}
	res, accept := s.handler.ServeRPC(call, from)
	// The reply is encoded into the buffer that becomes its datagram: a
	// READ's data is read straight into the datagram that carries it.
	e := newDatagramEncoder(ReplyHeader)
	putReply(e, call.Xid, accept, res)
	out := e.Bytes()
	if obsFn != nil {
		handlerNS := uint64(time.Since(t0))
		(*obsFn)(call.Program, call.Version, call.Proc, handlerNS)
		binary.BigEndian.PutUint64(out[netsim.HeaderSize+OffServerNS:], handlerNS)
	}
	// call.Args (and possibly res) alias the request datagram;
	// putReply copied everything out, so it can go back now.
	netsim.FreeBuf(d)
	if atMostOnce {
		s.retain(key, id, netsim.Payload(out))
	}
	_ = s.port.Send(from, out)
}

// reExecutes reports whether a retransmission of call simply runs again:
// true of the NFSv3 procedures nfsproto classes idempotent, whose replies
// never enter the duplicate-request cache. Every other call — the
// non-idempotent NFS procedures and every other program — is executed at
// most once.
func reExecutes(call *Call) bool {
	return call.Program == nfsproto.Program && call.Version == nfsproto.Version &&
		nfsproto.Proc(call.Proc).Idempotent()
}

// admit is duplicate suppression for an at-most-once call: it reports
// whether the call is new and is to be executed, now registered in
// flight. A retransmission of a completed call is answered from the cache
// here; one of a call still executing is dropped.
func (s *Server) admit(key drcKey, id callID, from netsim.Addr) bool {
	s.mu.Lock()
	if idx, ok := s.drc[key]; ok {
		if s.drcRing[idx].id == id {
			// Retransmission of a completed call: replay the reply.
			reply := s.drcRing[idx].reply
			s.mu.Unlock()
			_ = s.port.SendTo(from, reply)
			return false
		}
		// Same {source, xid} but a different call: not a retransmission.
		// Drop the stale entry (clearing its ring slot so the eventual
		// slot reuse cannot evict a newer entry under the same key) and
		// execute the call fresh.
		delete(s.drc, key)
		s.drcRing[idx] = drcEntry{}
	}
	if _, ok := s.inflight[key]; ok {
		// Retransmission of an in-progress call: drop; the client will
		// retry and eventually hit the DRC. A *different* call colliding
		// with the in-flight slot is also dropped — one key cannot track
		// both — but its retransmission lands after the first call
		// completes and then takes the stale-entry path above, so it is
		// executed, not wedged.
		s.mu.Unlock()
		return false
	}
	s.inflight[key] = id
	s.mu.Unlock()
	return true
}

// retain ends an admitted call's time in flight and caches its reply for
// retransmissions, keeping a copy of its own: the datagram belongs to the
// network once it is sent.
func (s *Server) retain(key drcKey, id callID, reply []byte) {
	var retained []byte
	if len(reply) <= drcMaxReply {
		retained = append(retained, reply...)
	}
	s.mu.Lock()
	delete(s.inflight, key)
	if retained != nil {
		// Evict the slot we are about to reuse.
		if old := &s.drcRing[s.drcNext]; old.reply != nil {
			delete(s.drc, old.key)
		}
		s.drcRing[s.drcNext] = drcEntry{key: key, id: id, reply: retained}
		s.drc[key] = s.drcNext
		s.drcNext = (s.drcNext + 1) % DRCSize
	}
	s.mu.Unlock()
}
