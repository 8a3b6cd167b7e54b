// Package netsim provides the in-memory datagram network that stands in
// for the switched Gigabit Ethernet LAN of the paper's testbed.
//
// Every datagram carries a 20-byte pseudo IP/UDP header (source and
// destination host and port, a 32-bit length, and a 16-bit Internet
// checksum), so an
// interposed element such as the Slice µproxy can do exactly what the
// FreeBSD packet-filter prototype did: decode layer-3/4 fields from raw
// bytes, rewrite addresses and ports, and fix the checksum incrementally.
// A datagram is verified where it leaves the fabric, by Port.Recv and
// TryRecv, which drop one that fails; an element that only edits a
// datagram differentially leaves any corruption in place for them.
//
// Taps model interposition "along the network path": a tap sees every
// datagram before delivery and may pass, drop, or consume it (injecting
// rewritten traffic instead). Datagram delivery is unreliable by design —
// ports have bounded queues and the network can be configured with loss —
// because the Slice architecture depends on end-to-end RPC retransmission
// to mask drops in the µproxy (§2.1).
package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/checksum"
)

// Addr identifies a network endpoint: a pseudo-IPv4 host and a port.
type Addr struct {
	Host uint32
	Port uint16
}

// String renders the address as a dotted quad with port.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d",
		byte(a.Host>>24), byte(a.Host>>16), byte(a.Host>>8), byte(a.Host), a.Port)
}

// IsZero reports whether a is the zero address.
func (a Addr) IsZero() bool { return a == Addr{} }

// HeaderSize is the fixed size of the pseudo IP/UDP header. The length
// field is 32 bits wide: a 16-bit field (as in real UDP) silently wraps
// for jumbo datagrams above 64 KiB, which made every such datagram fail
// Parse even though MaxDatagram nominally allowed them.
const HeaderSize = 20

// MaxDatagram bounds a single datagram, mimicking a jumbo-frame MTU
// comfortably above the largest NFS transfer plus headers. It is sized so
// a record-marked TCP transfer relayed through the wire gateway can carry
// stripe-unit-sized READ/WRITE bodies well past the 64 KiB UDP limit.
const MaxDatagram = 256 * 1024

// Header is the decoded pseudo IP/UDP header of a datagram.
type Header struct {
	Src      Addr
	Dst      Addr
	Length   uint32 // total datagram length including header
	Checksum uint16 // Internet checksum over the datagram with this field zero
}

// Offsets of header fields within a datagram, exported for rewriters.
// The two bytes after the checksum are reserved and always zero.
const (
	OffSrcHost  = 0
	OffDstHost  = 4
	OffSrcPort  = 8
	OffDstPort  = 10
	OffLength   = 12
	OffChecksum = 16
	offReserved = 18
)

// Build assembles a datagram from src to dst carrying payload, computing
// the checksum. The payload is copied into a pooled buffer owned by the
// caller (see FreeBuf for the ownership rules).
func Build(src, dst Addr, payload []byte) ([]byte, error) {
	total := HeaderSize + len(payload)
	if total > MaxDatagram {
		return nil, fmt.Errorf("netsim: datagram size %d exceeds max %d", total, MaxDatagram)
	}
	d := GetBuf(total)
	copy(d[HeaderSize:], payload)
	_ = Seal(d, src, dst) // cannot fail: the size is checked above
	return d, nil
}

// Seal turns d, whose payload has been written in place after HeaderSize
// bytes of room, into a datagram from src to dst: it fills in the header
// and computes the checksum, so a sender that encodes straight into a
// pooled buffer never copies its payload (Port.Send).
func Seal(d []byte, src, dst Addr) error {
	if len(d) < HeaderSize || len(d) > MaxDatagram {
		return fmt.Errorf("%w: datagram size %d outside [%d, %d]", ErrBadDatagram, len(d), HeaderSize, MaxDatagram)
	}
	binary.BigEndian.PutUint32(d[OffSrcHost:], src.Host)
	binary.BigEndian.PutUint32(d[OffDstHost:], dst.Host)
	binary.BigEndian.PutUint16(d[OffSrcPort:], src.Port)
	binary.BigEndian.PutUint16(d[OffDstPort:], dst.Port)
	binary.BigEndian.PutUint32(d[OffLength:], uint32(len(d)))
	// Zero the checksum and reserved fields before summing: the pooled
	// buffer may hold stale bytes of its previous datagram at these offsets.
	binary.BigEndian.PutUint16(d[OffChecksum:], 0)
	binary.BigEndian.PutUint16(d[offReserved:], 0)
	binary.BigEndian.PutUint16(d[OffChecksum:], checksum.Sum(d))
	return nil
}

// ErrBadDatagram indicates a malformed or corrupt datagram.
var ErrBadDatagram = errors.New("netsim: bad datagram")

// Parse decodes and validates the header of a datagram, verifying length
// and checksum.
func Parse(d []byte) (Header, error) {
	h, err := ParseHeader(d)
	if err == nil && !VerifyChecksum(d) {
		err = fmt.Errorf("%w: checksum mismatch", ErrBadDatagram)
	}
	return h, err
}

// ParseHeader is Parse without the checksum pass, for a datagram that is
// verified elsewhere: one Recv returned, or one an interposed element
// forwards with differential edits only, for its receiver's Recv to
// verify.
func ParseHeader(d []byte) (Header, error) {
	if len(d) < HeaderSize {
		return Header{}, fmt.Errorf("%w: short datagram (%d bytes)", ErrBadDatagram, len(d))
	}
	h := Header{
		Src: Addr{
			Host: binary.BigEndian.Uint32(d[OffSrcHost:]),
			Port: binary.BigEndian.Uint16(d[OffSrcPort:]),
		},
		Dst: Addr{
			Host: binary.BigEndian.Uint32(d[OffDstHost:]),
			Port: binary.BigEndian.Uint16(d[OffDstPort:]),
		},
		Length:   binary.BigEndian.Uint32(d[OffLength:]),
		Checksum: binary.BigEndian.Uint16(d[OffChecksum:]),
	}
	if int(h.Length) != len(d) {
		return h, fmt.Errorf("%w: length field %d != size %d", ErrBadDatagram, h.Length, len(d))
	}
	return h, nil
}

// VerifyChecksum reports whether the datagram's checksum is valid: the
// ones'-complement sum over the whole datagram, stored checksum included,
// is all ones. The datagram is only read.
func VerifyChecksum(d []byte) bool {
	return len(d) >= HeaderSize && checksum.Sum(d) == 0
}

// Payload returns the payload bytes of a datagram (aliasing d).
func Payload(d []byte) []byte {
	if len(d) < HeaderSize {
		return nil
	}
	return d[HeaderSize:]
}

// RewriteSrc replaces the source address of the datagram in place,
// adjusting the checksum incrementally.
func RewriteSrc(d []byte, src Addr) {
	rewriteAddr(d, OffSrcHost, OffSrcPort, src)
}

// RewriteDst replaces the destination address of the datagram in place,
// adjusting the checksum incrementally.
func RewriteDst(d []byte, dst Addr) {
	rewriteAddr(d, OffDstHost, OffDstPort, dst)
}

// RewriteUint64 replaces the 8 bytes at even offset off in place,
// adjusting the checksum incrementally. The µproxy uses it to patch
// capability fields into forwarded requests without re-encoding.
func RewriteUint64(d []byte, off int, v uint64) error {
	if off < 0 || off%2 != 0 || off+8 > len(d) {
		return fmt.Errorf("%w: rewrite at offset %d", ErrBadDatagram, off)
	}
	sum := binary.BigEndian.Uint16(d[OffChecksum:])
	old := binary.BigEndian.Uint64(d[off:])
	sum = checksum.Update64(sum, old, v)
	binary.BigEndian.PutUint64(d[off:], v)
	binary.BigEndian.PutUint16(d[OffChecksum:], sum)
	return nil
}

func rewriteAddr(d []byte, hostOff, portOff int, a Addr) {
	sum := binary.BigEndian.Uint16(d[OffChecksum:])
	oldHost := binary.BigEndian.Uint32(d[hostOff:])
	oldPort := binary.BigEndian.Uint16(d[portOff:])
	sum = checksum.Update32(sum, oldHost, a.Host)
	sum = checksum.Update(sum, oldPort, a.Port)
	binary.BigEndian.PutUint32(d[hostOff:], a.Host)
	binary.BigEndian.PutUint16(d[portOff:], a.Port)
	binary.BigEndian.PutUint16(d[OffChecksum:], sum)
}

// RewriteBytes overwrites the payload bytes at even offset off with b in
// place, adjusting the checksum incrementally: the cost follows len(b),
// not the datagram. The µproxy uses it to patch attributes into a bulk
// reply without touching the data that follows them.
func RewriteBytes(d []byte, off int, b []byte) error {
	if off < HeaderSize || off%2 != 0 || off+len(b) > len(d) {
		return fmt.Errorf("%w: rewrite of %d bytes at offset %d", ErrBadDatagram, len(b), off)
	}
	sum := binary.BigEndian.Uint16(d[OffChecksum:])
	sum = checksum.UpdateBytes(sum, d[off:off+len(b)], b)
	copy(d[off:], b)
	binary.BigEndian.PutUint16(d[OffChecksum:], sum)
	return nil
}

// Verdict is a tap's decision about a datagram.
type Verdict int

// Tap verdicts.
const (
	// Pass lets the datagram continue to the next tap and then delivery.
	Pass Verdict = iota
	// Drop silently discards the datagram.
	Drop
	// Consumed means the tap took ownership; it typically injects one or
	// more rewritten datagrams in its place.
	Consumed
)

// Tap observes datagrams in flight. Handle runs on the sender's goroutine
// with the network unlocked; it may call Network.Inject.
type Tap interface {
	Handle(dgram []byte) Verdict
}

// TapFunc adapts a function to the Tap interface.
type TapFunc func(dgram []byte) Verdict

// Handle implements Tap.
func (f TapFunc) Handle(dgram []byte) Verdict { return f(dgram) }

// Config holds network fault-injection and delay parameters.
type Config struct {
	// LossRate is the probability in [0,1) that a datagram is dropped
	// after passing the taps.
	LossRate float64
	// Latency delays delivery of each datagram.
	Latency time.Duration
	// QueueLen is the per-port receive queue length (default 512).
	QueueLen int
	// Seed seeds the loss generator; 0 means a fixed default.
	Seed int64
}

// Stats aggregates network counters.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Lost      uint64 // dropped by configured loss
	Dropped   uint64 // dropped by taps, full queues, unbound ports, Recv's verify or a closed sender
	Faulted   uint64 // dropped by the runtime fault plane (crash/partition/link drop)
	Bytes     uint64
}

// statCounters is the internal atomic form of Stats, so the datagram path
// never serializes on a stats lock.
type statCounters struct {
	sent      atomic.Uint64
	delivered atomic.Uint64
	lost      atomic.Uint64
	dropped   atomic.Uint64
	faulted   atomic.Uint64
	bytes     atomic.Uint64
}

// TapToken identifies one tap registration; AddTap returns it and
// RemoveTap consumes it. Matching registrations by token keeps the
// datagram path free of reflection and lets uncomparable taps (function
// values) register safely.
type TapToken struct {
	tap Tap
}

// Network is an in-memory datagram fabric.
type Network struct {
	mu    sync.RWMutex // guards ports
	ports map[Addr]*Port

	tapMu sync.Mutex                  // serializes AddTap/RemoveTap
	taps  atomic.Pointer[[]*TapToken] // snapshot read lock-free by send

	cfg   Config
	rngMu sync.Mutex
	rng   *rand.Rand
	stats statCounters

	faultMu sync.Mutex                 // serializes fault-plane mutators
	faults  atomic.Pointer[faultState] // snapshot read lock-free by deliver
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 512
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Network{
		ports: make(map[Addr]*Port),
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats {
	return Stats{
		Sent:      n.stats.sent.Load(),
		Delivered: n.stats.delivered.Load(),
		Lost:      n.stats.lost.Load(),
		Dropped:   n.stats.dropped.Load(),
		Faulted:   n.stats.faulted.Load(),
		Bytes:     n.stats.bytes.Load(),
	}
}

// AddTap registers a tap; taps run in registration order. The returned
// token unregisters it via RemoveTap.
func (n *Network) AddTap(t Tap) *TapToken {
	tok := &TapToken{tap: t}
	n.tapMu.Lock()
	defer n.tapMu.Unlock()
	var cur []*TapToken
	if p := n.taps.Load(); p != nil {
		cur = *p
	}
	next := make([]*TapToken, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = tok
	n.taps.Store(&next)
	return tok
}

// RemoveTap unregisters the tap registration identified by tok. Removing
// a nil or already-removed token is a no-op. Handlers already running
// against the previous snapshot may still observe in-flight datagrams.
func (n *Network) RemoveTap(tok *TapToken) {
	if tok == nil {
		return
	}
	n.tapMu.Lock()
	defer n.tapMu.Unlock()
	p := n.taps.Load()
	if p == nil {
		return
	}
	cur := *p
	for i, x := range cur {
		if x == tok {
			next := make([]*TapToken, 0, len(cur)-1)
			next = append(next, cur[:i]...)
			next = append(next, cur[i+1:]...)
			n.taps.Store(&next)
			return
		}
	}
}

// ErrPortInUse is returned by Bind for an already-bound address.
var ErrPortInUse = errors.New("netsim: port in use")

// ErrClosed is returned by operations on a closed port.
var ErrClosed = errors.New("netsim: port closed")

// Port is a bound endpoint that can send and receive datagrams.
type Port struct {
	net    *Network
	addr   Addr
	ch     chan []byte
	closed chan struct{}
	once   sync.Once
	upcall atomic.Pointer[func(d []byte)] // see SetUpcall
}

// Bind claims addr and returns its port.
func (n *Network) Bind(addr Addr) (*Port, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.ports[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrPortInUse, addr)
	}
	p := &Port{
		net:    n,
		addr:   addr,
		ch:     make(chan []byte, n.cfg.QueueLen),
		closed: make(chan struct{}),
	}
	n.ports[addr] = p
	return p, nil
}

// ephemeralBase is the first port number BindAny hands out.
const ephemeralBase = 40000

// BindAny binds the first free ephemeral port on the given host.
func (n *Network) BindAny(host uint32) (*Port, error) {
	for p := uint16(ephemeralBase); p != 0; p++ { // wraps to 0 after 65535
		port, err := n.Bind(Addr{Host: host, Port: p})
		if err == nil {
			return port, nil
		}
		if !errors.Is(err, ErrPortInUse) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("netsim: no free ephemeral ports on host %d", host)
}

// Addr returns the port's bound address.
func (p *Port) Addr() Addr { return p.addr }

// Close releases the port. Pending datagrams are discarded.
func (p *Port) Close() {
	p.once.Do(func() {
		p.net.mu.Lock()
		delete(p.net.ports, p.addr)
		p.net.mu.Unlock()
		close(p.closed)
	})
}

// SetUpcall makes fn the port's receiver: from then on every datagram
// delivered to the port is verified as Recv verifies it and handed to fn
// on the delivering goroutine — the sender's, or a delay timer's — instead
// of being queued, so no receiving goroutine is woken to take it. fn owns
// the datagram it is given and runs inside the sender's send, so it must
// not wait on anything a sender may hold: an RPC client's reply dispatch
// never blocks, and a server's handler waits only on its own store and
// on calls to other servers, which are served the same way.
// Set it before traffic is addressed to the port: datagrams
// already queued are passed to fn at once, but one queued while SetUpcall
// runs would wait for a Recv. A delivery after Close is dropped (counted in
// Stats.Dropped); Recv and TryRecv see nothing once an upcall is set.
func (p *Port) SetUpcall(fn func(d []byte)) {
	p.upcall.Store(&fn)
	for {
		d, ok := p.TryRecv()
		if !ok {
			return
		}
		fn(d)
	}
}

// refuse reports whether p is closed, counting the refused send in
// Stats.Dropped: a closed port puts nothing on the fabric.
func (p *Port) refuse() bool {
	select {
	case <-p.closed:
		p.net.stats.dropped.Add(1)
		return true
	default:
		return false
	}
}

// SendTo builds a datagram to dst carrying a copy of payload and sends it.
// A closed port returns ErrClosed.
func (p *Port) SendTo(dst Addr, payload []byte) error {
	if p.refuse() {
		return ErrClosed
	}
	d, err := Build(p.addr, dst, payload)
	if err != nil {
		return err
	}
	return p.net.send(d)
}

// Send seals d — a pooled buffer whose payload the caller wrote in place
// after HeaderSize bytes of room — as a datagram to dst and sends it,
// copying nothing. Ownership of d passes to the network whatever the
// outcome: a datagram that cannot be sealed, or that a closed port refuses
// (ErrClosed), is freed.
func (p *Port) Send(dst Addr, d []byte) error {
	if p.refuse() {
		FreeBuf(d)
		return ErrClosed
	}
	if err := Seal(d, p.addr, dst); err != nil {
		FreeBuf(d)
		return err
	}
	return p.net.send(d)
}

// Recv blocks until a datagram arrives, the timeout expires (zero means no
// timeout), or the port is closed. The returned slice is owned by the
// caller, who should hand it back with FreeBuf once it (and anything
// aliasing it) is no longer needed. It has been verified: a datagram whose
// length or checksum is wrong is dropped (Stats.Dropped) and Recv waits on.
func (p *Port) Recv(timeout time.Duration) ([]byte, error) {
	var timer *time.Timer
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	for {
		select {
		case d := <-p.ch:
			if p.net.intact(d) {
				return d, nil
			}
		case <-timeoutCh:
			return nil, ErrTimeout
		case <-p.closed:
			return nil, ErrClosed
		}
	}
}

// TryRecv returns a queued, verified datagram without blocking; ok is
// false when the queue holds none. The wire gateway uses it to coalesce
// every datagram already queued for a connection into one TCP write burst.
func (p *Port) TryRecv() (d []byte, ok bool) {
	for {
		select {
		case d := <-p.ch:
			if p.net.intact(d) {
				return d, true
			}
		default:
			return nil, false
		}
	}
}

// intact verifies a datagram leaving the fabric; one that fails is freed
// and counted dropped.
func (n *Network) intact(d []byte) bool {
	if _, err := Parse(d); err == nil {
		return true
	}
	n.stats.dropped.Add(1)
	FreeBuf(d)
	return false
}

// ErrTimeout is returned by Recv when the timeout expires.
var ErrTimeout = errors.New("netsim: receive timeout")

// Inject sends a fully formed datagram (with header and checksum) into the
// network, transferring ownership of the buffer. Taps do NOT see injected
// datagrams; this is how a consuming tap forwards rewritten traffic
// without re-intercepting it.
func (n *Network) Inject(d []byte) error {
	return n.deliver(d)
}

// send runs taps, then delivers. Ownership of d transfers to the network
// (and onward to a consuming tap, or to the receiving port).
func (n *Network) send(d []byte) error {
	n.stats.sent.Add(1)
	n.stats.bytes.Add(uint64(len(d)))

	// A crashed or isolated source host cannot put traffic on the wire at
	// all — its datagrams vanish before any interposed element sees them.
	if fs := n.faults.Load(); fs != nil && len(d) >= HeaderSize {
		src := binary.BigEndian.Uint32(d[OffSrcHost:])
		if fs.down[src] || fs.isolated[src] {
			n.stats.faulted.Add(1)
			FreeBuf(d)
			return nil
		}
	}

	if p := n.taps.Load(); p != nil {
		for _, tok := range *p {
			switch tok.tap.Handle(d) {
			case Drop:
				n.stats.dropped.Add(1)
				FreeBuf(d)
				return nil
			case Consumed:
				return nil
			}
		}
	}
	return n.deliver(d)
}

// deliver applies configured loss and places the datagram on the
// destination port's queue. Loss is applied here, after interposition, so
// that traffic a µproxy rewrites and reinjects is just as lossy as direct
// traffic — drops can happen anywhere on the path (§2.1).
func (n *Network) deliver(d []byte) error {
	if len(d) < HeaderSize {
		return fmt.Errorf("%w: short datagram", ErrBadDatagram)
	}
	srcHost := binary.BigEndian.Uint32(d[OffSrcHost:])
	dst := Addr{
		Host: binary.BigEndian.Uint32(d[OffDstHost:]),
		Port: binary.BigEndian.Uint16(d[OffDstPort:]),
	}
	// The fault plane is consulted here, after interposition, for the same
	// reason loss is: rewritten traffic from a µproxy crosses the same
	// failed links and dead hosts as direct traffic.
	drop, extraDelay, dup := n.faultVerdict(srcHost, dst.Host)
	if drop {
		n.stats.faulted.Add(1)
		FreeBuf(d)
		return nil
	}
	if n.cfg.LossRate > 0 {
		n.rngMu.Lock()
		lose := n.rng.Float64() < n.cfg.LossRate
		n.rngMu.Unlock()
		if lose {
			n.stats.lost.Add(1)
			FreeBuf(d)
			return nil
		}
	}
	n.mu.RLock()
	p, ok := n.ports[dst]
	n.mu.RUnlock()
	if !ok {
		// Unbound destination: a real network drops it on the floor.
		n.stats.dropped.Add(1)
		FreeBuf(d)
		return nil
	}
	if dup {
		c := GetBuf(len(d))
		copy(c, d)
		n.enqueueAfter(p, c, extraDelay)
	}
	n.enqueueAfter(p, d, extraDelay)
	return nil
}

// enqueueAfter enqueues d on p after the configured base latency plus any
// fault-injected extra delay.
func (n *Network) enqueueAfter(p *Port, d []byte, extra time.Duration) {
	delay := n.cfg.Latency + extra
	if delay > 0 {
		time.AfterFunc(delay, func() { n.enqueue(p, d) })
		return
	}
	n.enqueue(p, d)
}

func (n *Network) enqueue(p *Port, d []byte) {
	if fn := p.upcall.Load(); fn != nil {
		select {
		case <-p.closed:
			n.stats.dropped.Add(1)
			FreeBuf(d)
			return
		default:
		}
		n.stats.delivered.Add(1)
		if n.intact(d) {
			(*fn)(d)
		}
		return
	}
	select {
	case p.ch <- d:
		n.stats.delivered.Add(1)
	default:
		// Queue overrun: drop, like a NIC ring buffer.
		n.stats.dropped.Add(1)
		FreeBuf(d)
	}
}
