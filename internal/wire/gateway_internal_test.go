package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"slice/internal/netsim"
	"slice/internal/obs"
)

// framings is the table every gateway test runs over: the two ways a
// real-socket client reaches the fabric.
var framings = []struct {
	name   string
	listen func(string, *netsim.Network, netsim.Addr) (*Gateway, error)
	dial   func(string) (*Conn, error)
}{
	{"stream", NewGateway, Dial},
	{"datagram", NewDatagramGateway, DialDatagram},
}

var testVirtual = netsim.Addr{Host: 100, Port: 2049}

// startEcho binds the virtual address and echoes every payload back to
// its fabric source, standing in for the ensemble behind the gateway.
func startEcho(t testing.TB, n *netsim.Network) {
	t.Helper()
	p, err := n.Bind(testVirtual)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	go func() {
		for {
			d, err := p.Recv(0)
			if err != nil {
				return
			}
			if h, err := netsim.Parse(d); err == nil {
				_ = p.SendTo(h.Src, netsim.Payload(d))
			}
			netsim.FreeBuf(d)
		}
	}()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// pingPong sends one record through the gateway and waits for the echo,
// which must come back stamped with the address it was sent to.
func pingPong(t *testing.T, c *Conn, msg string) {
	t.Helper()
	if err := c.SendTo(testVirtual, []byte(msg)); err != nil {
		t.Fatal(err)
	}
	d, err := c.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("no echo for %q: %v", msg, err)
	}
	defer netsim.FreeBuf(d)
	if got := d[netsim.HeaderSize:]; string(got) != msg {
		t.Fatalf("echo %q, want %q", got, msg)
	}
	src := netsim.Addr{
		Host: binary.BigEndian.Uint32(d[netsim.OffSrcHost:]),
		Port: binary.BigEndian.Uint16(d[netsim.OffSrcPort:]),
	}
	if src != testVirtual {
		t.Fatalf("echo stamped %v, want the last-sent destination %v", src, testVirtual)
	}
}

// peerHosts returns the synthetic fabric host of every live peer.
func (g *Gateway) peerHosts() []uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var hosts []uint32
	for _, p := range g.peers {
		hosts = append(hosts, p.port.Addr().Host)
	}
	return hosts
}

// TestPeerLifecycle pins peer reclamation under both framings. A stream
// peer ends with its connection. A datagram peer has no such signal and
// used to pin one fabric port and one pump goroutine forever; it is
// evicted once idle for IdleTimeout, and a returning remote is simply
// re-admitted under a fresh synthetic address.
func TestPeerLifecycle(t *testing.T) {
	for _, f := range framings {
		t.Run(f.name, func(t *testing.T) {
			n := netsim.New(netsim.Config{})
			startEcho(t, n)
			gw, err := f.listen("127.0.0.1:0", n, testVirtual)
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			dial := func() *Conn {
				c, err := f.dial(gw.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)
				return c
			}
			c1, c2 := dial(), dial()
			pingPong(t, c1, "one")
			pingPong(t, c2, "two")
			if got := gw.Stats().Conns; got != 2 {
				t.Fatalf("peers = %d, want 2", got)
			}

			// A sweep while the peers are fresh reclaims nothing.
			gw.evictIdle(time.Now())
			if s := gw.Stats(); s.Conns != 2 || s.Evicted != 0 {
				t.Fatalf("fresh sweep left %d peers, %d evicted; want 2, 0", s.Conns, s.Evicted)
			}
			wantEvicted := uint64(0)
			if gw.pc != nil {
				// Go quiet: as of IdleTimeout from now, both are idle.
				gw.evictIdle(time.Now().Add(IdleTimeout))
				wantEvicted = 2
			} else {
				c1.Close()
				c2.Close()
			}
			waitFor(t, "peer reclamation", func() bool { return gw.Stats().Conns == 0 })
			if s := gw.Stats(); s.Evicted != wantEvicted {
				t.Fatalf("evicted = %d, want %d", s.Evicted, wantEvicted)
			}

			// A returning remote is re-admitted and works end to end.
			if gw.pc == nil {
				c1 = dial()
			}
			pingPong(t, c1, "again")
			// (The pump counts a reply after writing it, so the echo can
			// reach the client first.)
			waitFor(t, "tx counters", func() bool { return gw.Stats().TxRecords == 3 })
			s := gw.Stats()
			if s.Conns != 1 || s.TotalConns != 3 {
				t.Fatalf("after return: %d peers (%d total), want 1 (3 total)", s.Conns, s.TotalConns)
			}
			if s.RxRecords != 3 || s.TxRecords != 3 || s.RxBytes != 11 || s.TxBytes != 11 || s.Drops != 0 {
				t.Fatalf("record counters: %+v", s)
			}
		})
	}
}

// TestStalledCallHoldsOnlyItsPeer: a server serves each call on the
// goroutine that injects it, so a call whose handler waits — a directory
// server's cross-site operation riding out a lost peer reply — holds that
// goroutine. Under either framing it must be a goroutine of the call's own
// peer: another client's calls through the same gateway are answered
// while the first waits, and the held call completes once released.
func TestStalledCallHoldsOnlyItsPeer(t *testing.T) {
	for _, f := range framings {
		t.Run(f.name, func(t *testing.T) {
			n := netsim.New(netsim.Config{})
			p, err := n.Bind(testVirtual)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			held, release := make(chan struct{}), make(chan struct{})
			p.SetUpcall(func(d []byte) {
				defer netsim.FreeBuf(d)
				h, err := netsim.Parse(d)
				if err != nil {
					return
				}
				if string(netsim.Payload(d)) == "hold" {
					close(held)
					<-release
				}
				_ = p.SendTo(h.Src, netsim.Payload(d))
			})
			gw, err := f.listen("127.0.0.1:0", n, testVirtual)
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			var once sync.Once
			unhold := func() { once.Do(func() { close(release) }) }
			defer unhold() // before gw.Close, which waits for the held call

			dial := func() *Conn {
				c, err := f.dial(gw.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)
				return c
			}
			c1, c2 := dial(), dial()
			if err := c1.SendTo(testVirtual, []byte("hold")); err != nil {
				t.Fatal(err)
			}
			select {
			case <-held:
			case <-time.After(5 * time.Second):
				t.Fatal("the held call never reached the server")
			}
			pingPong(t, c2, "free")
			unhold()
			if d, err := c1.Recv(5 * time.Second); err != nil || string(d[netsim.HeaderSize:]) != "hold" {
				t.Fatalf("held call answered %q, %v", d, err)
			} else {
				netsim.FreeBuf(d)
			}
		})
	}
}

// TestSyntheticHostsUnique pins the one process-wide synthetic-host
// allocator: a fleet member's stream and datagram gateways, and every
// other member's, share one fabric, and independent counters (or hand-
// picked disjoint bases) once handed distinct clients the same fabric
// host. With netsim's ephemeral-port recycling that could give two
// clients identical {host, port} source addresses — which poisons the
// servers' duplicate-request caches across clients. The client-side
// placeholder address sits outside the range.
func TestSyntheticHostsUnique(t *testing.T) {
	n := netsim.New(netsim.Config{})
	startEcho(t, n)
	placeholder := (&Conn{}).Addr().Host
	if placeholder >= synthHostBase {
		t.Fatalf("placeholder host %#x inside synthetic range (base %#x)", placeholder, uint32(synthHostBase))
	}
	seen := map[uint32]bool{}
	for member := 0; member < 2; member++ {
		for _, f := range framings {
			gw, err := f.listen("127.0.0.1:0", n, testVirtual)
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			for j := 0; j < 2; j++ {
				c, err := f.dial(gw.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				pingPong(t, c, "hello")
			}
			hosts := gw.peerHosts()
			if len(hosts) != 2 {
				t.Fatalf("member %d %s gateway has %d peers, want 2", member, f.name, len(hosts))
			}
			for _, host := range hosts {
				if host <= synthHostBase {
					t.Errorf("member %d %s peer host %#x outside synthetic range (base %#x)",
						member, f.name, host, uint32(synthHostBase))
				}
				if seen[host] {
					t.Errorf("member %d %s gateway handed out host %#x twice across the fleet", member, f.name, host)
				}
				seen[host] = true
			}
		}
	}
	if len(seen) != 8 {
		t.Fatalf("distinct synthetic hosts = %d, want 8", len(seen))
	}
}

// TestDropCounterNoPeer drives the peer-allocation failure path for real:
// with every ephemeral port on the next synthetic host pre-bound, admit
// cannot bind, and the lost datagram (or refused connection) — formerly
// discarded without a trace — shows up in Stats and the obs registry.
func TestDropCounterNoPeer(t *testing.T) {
	for _, f := range framings {
		t.Run(f.name, func(t *testing.T) {
			n := netsim.New(netsim.Config{})
			startEcho(t, n)
			// The allocator is process-wide, so peek at the counter. 40000
			// mirrors netsim's unexported ephemeral base; a drift would only
			// bind too few ports and fail the test loudly.
			next := synthHostBase + synthHosts.Load() + 1
			for p := uint16(40000); p != 0; p++ {
				_, _ = n.Bind(netsim.Addr{Host: next, Port: p})
			}
			gw, err := f.listen("127.0.0.1:0", n, testVirtual)
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			reg := obs.NewRegistry("wire")
			gw.SetObs(reg)

			c, err := f.dial(gw.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_ = c.SendTo(testVirtual, []byte("doomed"))
			// The obs twin is recorded after the Stats counter.
			waitFor(t, "drop counters", func() bool { return reg.Hist(obs.HistWireDropNoPeer).Count() >= 1 })
			if s := gw.Stats(); s.Conns != 0 || s.DropNoPeer < 1 || s.Drops != s.DropNoPeer {
				t.Fatalf("stats after refused peer: %+v", s)
			}
		})
	}
}

// TestCorruptDatagramNeverReachesSocket: a gateway's peer ports are where
// replies leave the fabric, so they verify there. A corrupt datagram
// addressed to a peer is dropped by the port's Recv/TryRecv — counted as a
// fabric drop, not a gateway one — and never written to the socket; the
// clean one behind it is.
func TestCorruptDatagramNeverReachesSocket(t *testing.T) {
	for _, f := range framings {
		t.Run(f.name, func(t *testing.T) {
			n := netsim.New(netsim.Config{})
			startEcho(t, n)
			gw, err := f.listen("127.0.0.1:0", n, testVirtual)
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			c, err := f.dial(gw.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			pingPong(t, c, "admit me")
			gw.mu.Lock()
			var peer netsim.Addr
			for _, p := range gw.peers {
				peer = p.port.Addr()
			}
			gw.mu.Unlock()

			send := func(payload string, corrupt bool) {
				d, err := netsim.Build(testVirtual, peer, []byte(payload))
				if err != nil {
					t.Fatal(err)
				}
				if corrupt {
					d[netsim.HeaderSize+2] ^= 0x08
				}
				if err := n.Inject(d); err != nil {
					t.Fatal(err)
				}
			}
			dropped := n.Stats().Dropped
			send("corrupt", true)
			send("clean", false)
			d, err := c.Recv(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer netsim.FreeBuf(d)
			if got := string(d[netsim.HeaderSize:]); got != "clean" {
				t.Fatalf("socket received %q, want only the clean datagram", got)
			}
			if got := n.Stats().Dropped - dropped; got != 1 {
				t.Fatalf("fabric dropped %d datagrams, want the corrupt one", got)
			}
			// (The pump counts a reply after writing it.)
			waitFor(t, "tx counters", func() bool { return gw.Stats().TxRecords == 2 })
			if s := gw.Stats(); s.Drops != 0 {
				t.Fatalf("gateway counted %d drops, want 0", s.Drops)
			}
		})
	}
}

// TestDropWriteCountsRecords pins the outbound drop accounting: a stream
// whose flush fails loses every record coalesced into that burst, and
// each is one dropped reply — not one per burst.
func TestDropWriteCountsRecords(t *testing.T) {
	n := netsim.New(netsim.Config{})
	src, err := n.Bind(testVirtual)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	port, err := n.BindAny(synthHostBase + synthHosts.Add(1))
	if err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe()
	far.Close() // every write to near now fails
	g := newGateway(nil, nil, n, testVirtual)
	p := &peer{port: port, tcp: near}
	for i := 0; i < 3; i++ {
		if err := src.SendTo(port.Addr(), []byte("reply")); err != nil {
			t.Fatal(err)
		}
	}
	g.wg.Add(1)
	go g.pumpOut(p)
	g.wg.Wait() // the failed flush ends the connection
	if s := g.Stats(); s.DropWrite != 3 || s.Drops != 3 {
		t.Fatalf("DropWrite = %d (Drops %d), want 3: one per record of the lost burst", s.DropWrite, s.Drops)
	}
}

// TestRecvMidRecordTimeoutClosesStream is the regression test for stream
// desync: a timeout that strikes after the record mark (or half a body)
// was consumed used to leave the connection open, and the next Recv
// parsed body bytes as a record mark. A timeout with nothing consumed
// must leave the stream usable.
func TestRecvMidRecordTimeoutClosesStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	// Idle stream: the timeout is clean, and a whole record then arrives.
	if _, err := c.Recv(20 * time.Millisecond); err == nil {
		t.Fatal("Recv on an idle stream returned a record")
	}
	if err := putRecord(peer, []byte("first")); err != nil {
		t.Fatal(err)
	}
	d, err := c.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("Recv after a clean timeout: %v", err)
	}
	if got := d[netsim.HeaderSize:]; string(got) != "first" {
		t.Fatalf("record %q, want %q", got, "first")
	}
	netsim.FreeBuf(d)

	// The peer writes a mark, stalls past the deadline, then writes the
	// body — itself a well-formed record — plus a whole second record.
	var body bytes.Buffer
	if err := putRecord(&body, []byte("looks like a record")); err != nil {
		t.Fatal(err)
	}
	var mark [4]byte
	binary.BigEndian.PutUint32(mark[:], lastFrag|uint32(body.Len()))
	if _, err := peer.Write(mark[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(50 * time.Millisecond); err == nil {
		t.Fatal("Recv returned a record whose body never arrived")
	}
	_, _ = peer.Write(body.Bytes())
	_ = putRecord(peer, []byte("second"))
	if d, err := c.Recv(time.Second); err == nil {
		t.Fatalf("Recv after a mid-record timeout parsed body bytes as a record: %q", d[netsim.HeaderSize:])
	}
}

// BenchmarkConnRecv measures the client-side receive path of both
// framings: one read into one pooled buffer, 0 allocs/op on both (the
// datagram path once allocated a fresh 96 KiB buffer plus a
// header-prefixed copy per datagram, the stream path a 4-byte record-mark
// scratch on each side).
func BenchmarkConnRecv(b *testing.B) {
	payload := make([]byte, 8<<10)
	run := func(b *testing.B, c *Conn, send func() error) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := send(); err != nil {
				b.Fatal(err)
			}
			d, err := c.Recv(0)
			if err != nil {
				b.Fatal(err)
			}
			if len(d) != netsim.HeaderSize+len(payload) {
				b.Fatalf("recv %d bytes", len(d))
			}
			netsim.FreeBuf(d)
		}
	}
	b.Run("stream", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		c, err := Dial(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		srv, err := ln.Accept()
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		bw := bufio.NewWriter(srv)
		run(b, c, func() error {
			if err := writeRecord(bw, payload); err != nil {
				return err
			}
			return bw.Flush()
		})
	})
	b.Run("datagram", func(b *testing.B) {
		srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		c, err := DialDatagram(srv.LocalAddr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		// Teach the server the client's address.
		if err := c.SendTo(testVirtual, []byte("hi")); err != nil {
			b.Fatal(err)
		}
		_, caddr, err := srv.ReadFromUDPAddrPort(make([]byte, 256))
		if err != nil {
			b.Fatal(err)
		}
		run(b, c, func() error {
			_, err := srv.WriteToUDPAddrPort(payload, caddr)
			return err
		})
	})
}
