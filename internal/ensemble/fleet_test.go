package ensemble

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/wire"
)

// TestFleetServesAcrossProxies runs a workload through a 4-proxy fleet
// and checks both correctness (every operation lands) and distribution
// (more than one proxy actually carried traffic — the flow hash spreads
// clients over the fleet instead of funneling them through one member).
func TestFleetServesAcrossProxies(t *testing.T) {
	e := newTest(t, func(cfg *Config) { cfg.Proxies = 4 })
	if len(e.Proxies) != 4 || e.Fleet.Len() != 4 {
		t.Fatalf("fleet size = %d proxies, %d members", len(e.Proxies), e.Fleet.Len())
	}
	// Several clients, each writing and reading its own file tree.
	payload := bytes.Repeat([]byte("fleet"), 64*1024) // crosses the bulk threshold
	for i := 0; i < 4; i++ {
		c, err := e.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		dir, _, err := c.Mkdir(c.Root(), fmt.Sprintf("d%d", i), 0o755)
		if err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		fh, _, err := c.Create(dir, "data", 0o644, false)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := c.WriteFile(fh, payload); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := c.ReadAll(fh)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read back: %d bytes, err %v", len(got), err)
		}
		c.Close()
	}
	busy := 0
	for i, p := range e.Proxies {
		if n := p.Stats().Requests; n > 0 {
			busy++
			t.Logf("proxy %d forwarded %d requests", i, n)
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 4 proxies carried traffic; flows are not spreading", busy)
	}
}

// TestFleetCoordinatedRouteSwap checks the coordinated-retarget
// property: the fleet shares its routing tables, so after one Swap that
// rebinds a directory site, a call through every member is forwarded to
// the site's new address — no member keeps forwarding by the superseded
// binding.
func TestFleetCoordinatedRouteSwap(t *testing.T) {
	e := newTest(t, func(cfg *Config) { cfg.Proxies = 4 })
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	root := c.Root()
	c.Close()
	old, err := e.NamePolicy.AddrFor(&nfsproto.RequestInfo{Proc: nfsproto.ProcGetAttr, FH: root})
	if err != nil {
		t.Fatal(err)
	}
	moved, err := e.Net.Bind(netsim.Addr{Host: 70, Port: old.Port})
	if err != nil {
		t.Fatal(err)
	}
	defer moved.Close()
	next := e.DirTable.Physical()
	for i, a := range next {
		if a == old {
			next[i] = moved.Addr()
		}
	}
	e.DirTable.Swap(next)

	caller, err := e.Net.BindAny(HostClient0 + 99)
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	for i := range e.Proxies {
		call := oncrpc.EncodeCall(uint32(i+1), nfsproto.Program, nfsproto.Version,
			uint32(nfsproto.ProcGetAttr), (&nfsproto.GetAttrArgs{FH: root}).Encode)
		if err := caller.SendTo(e.VirtualOf(i), call); err != nil {
			t.Fatal(err)
		}
		d, err := moved.Recv(time.Second)
		if err != nil {
			t.Fatalf("after the swap, proxy %d did not forward the call to the site's new address %s: %v", i, moved.Addr(), err)
		}
		netsim.FreeBuf(d)
	}
}

// TestProxyCrashDoesNotStrandRequest is the pinned-resolution
// regression test: a call in flight when its owning proxy dies must
// reach a sibling by ordinary retransmission — before the fix, the
// client resolved its proxy at mount time and every retry of that call
// hammered the corpse until the RPC budget ran out.
func TestProxyCrashDoesNotStrandRequest(t *testing.T) {
	e := newTest(t, func(cfg *Config) {
		cfg.Proxies = 2
		cfg.ClientRPC = oncrpc.ClientConfig{Timeout: 25 * time.Millisecond, Retries: 9}
	})
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Create(c.Root(), "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}

	// Find the proxy owning this file's flow: probe with the same call
	// the test will strand, and see whose request counter moves.
	before := make([]uint64, len(e.Proxies))
	for i, p := range e.Proxies {
		before[i] = p.Stats().Requests
	}
	if _, err := c.GetAttr(fh); err != nil {
		t.Fatal(err)
	}
	owner := -1
	for i, p := range e.Proxies {
		if p.Stats().Requests > before[i] {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatal("no proxy carried the probe request")
	}

	// The owner dies before the call's first transmission (Close is what
	// Crash does first, so this is the same fault with deterministic
	// timing), but the fleet table has not noticed yet: the transmission
	// blackholes exactly as it would against a freshly dead machine. The
	// membership swap lands 10ms in — before the first 25ms retransmit —
	// so that same in-flight call must fail over to the sibling.
	e.Proxies[owner].Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.GetAttr(fh)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := e.Chaos().Crash(RoleProxy, owner); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("request stranded by proxy crash: %v", err)
	}
	if c.Retransmissions() == 0 {
		t.Fatal("call completed without retransmission; crash timing did not exercise failover")
	}

	// The sibling keeps serving new flows too.
	if _, _, err := c.Create(c.Root(), "g", 0o644, false); err != nil {
		t.Fatalf("create after failover: %v", err)
	}
}

// TestProxyRestartRejoinsFleet crashes a member, verifies the fleet
// table shrank, restarts it, and checks it takes traffic again under
// its old identity.
func TestProxyRestartRejoinsFleet(t *testing.T) {
	e := newTest(t, func(cfg *Config) {
		cfg.Proxies = 2
		cfg.ClientRPC = oncrpc.ClientConfig{Timeout: 25 * time.Millisecond, Retries: 9}
	})
	ver := e.Fleet.Version()
	if err := e.Chaos().Crash(RoleProxy, 1); err != nil {
		t.Fatal(err)
	}
	if e.Fleet.Len() != 1 || e.Fleet.Version() != ver+1 {
		t.Fatalf("after crash: %d members at version %d", e.Fleet.Len(), e.Fleet.Version())
	}
	if err := e.Chaos().Restart(RoleProxy, 1, proxyVirtual(1)); err != nil {
		t.Fatal(err)
	}
	if e.Fleet.Len() != 2 {
		t.Fatalf("after restart: %d members", e.Fleet.Len())
	}
	if m, ok := e.Fleet.Member(1); !ok || m.Virtual != (route.ProxyMember{ID: 1, Virtual: proxyVirtual(1), Host: proxyHost(1)}).Virtual {
		t.Fatalf("restarted member = %+v, %v", m, ok)
	}
	// A fresh client mounts and works against the full fleet.
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Create(c.Root(), "h", 0o644, false); err != nil {
		t.Fatal(err)
	}
}

// TestFleetRealSocketEndpoints pins that the ensemble owns every
// listener: a fleet of N with both listen addresses set serves `ls /`
// over each of its 2N real-socket endpoints — every member, both
// framings, one volume — and Close alone tears all of them down.
func TestFleetRealSocketEndpoints(t *testing.T) {
	const members = 3
	e := newTest(t, func(cfg *Config) {
		cfg.Proxies = members
		cfg.TCPListen = "127.0.0.1:0"
		cfg.UDPListen = "127.0.0.1:0"
	})
	if len(e.Gateways) != members || len(e.DatagramGateways) != members {
		t.Fatalf("%d stream + %d datagram gateways, want %d each",
			len(e.Gateways), len(e.DatagramGateways), members)
	}
	seed, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := seed.Mkdir(seed.Root(), "visible-everywhere", 0o755); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	var endpoints []net.Addr
	for i := 0; i < members; i++ {
		for _, ep := range []struct {
			gw   *wire.Gateway
			dial func(string) (*wire.Conn, error)
		}{{e.Gateways[i], wire.Dial}, {e.DatagramGateways[i], wire.DialDatagram}} {
			addr := ep.gw.Addr()
			endpoints = append(endpoints, addr)
			conn, err := ep.dial(addr.String())
			if err != nil {
				t.Fatal(err)
			}
			c := client.NewWithConn(conn, client.Config{Server: e.VirtualOf(i)})
			if err := c.Mount(); err != nil {
				t.Fatalf("mount via member %d %s: %v", i, addr.Network(), err)
			}
			ents, err := c.ReadDir(c.Root())
			if err != nil || len(ents) != 1 || ents[0].Name != "visible-everywhere" {
				t.Fatalf("ls / via member %d %s: %v, %v", i, addr.Network(), ents, err)
			}
			c.Close()
			if st := ep.gw.Stats(); st.RxRecords == 0 || st.TxRecords == 0 || st.Drops != 0 {
				t.Fatalf("member %d %s gateway stats: %+v", i, addr.Network(), st)
			}
		}
	}
	snap := e.Obs.Snapshot()
	for _, role := range []string{"wire", "wire.udp"} {
		if fleet, n := snap.MergeRole(role, role); n != members || fleet.Hists[obs.HistWireRxRecord].Count() == 0 {
			t.Fatalf("%s: %d registries in the collector, %d records; want %d, > 0",
				role, n, fleet.Hists[obs.HistWireRxRecord].Count(), members)
		}
	}

	// Close alone releases every socket: each address can be bound again.
	e.Close()
	for _, addr := range endpoints {
		var rebound io.Closer
		var err error
		if addr.Network() == "tcp" {
			rebound, err = net.Listen("tcp", addr.String())
		} else {
			rebound, err = net.ListenPacket("udp", addr.String())
		}
		if err != nil {
			t.Fatalf("%s %v still held after Close: %v", addr.Network(), addr, err)
		}
		rebound.Close()
	}
}
