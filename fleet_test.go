package slice_test

import (
	"fmt"
	"testing"

	"slice/internal/fhandle"
	"slice/internal/front"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/proxy"
	"slice/internal/route"
	"slice/internal/xdr"
)

// The paper's scale-out claim (§5) is a claim about how the front divides
// load: N shared-nothing µproxies each carry a share of the flows, and no
// request crosses two members. With every member serving its calls on the
// sender's goroutine, the aggregate a closed-loop fleet reaches is bounded
// by one over its busiest member's share, so the share is what the test
// below holds, counted rather than timed.

// fleetHarness is the forward-path rig scaled out: n µproxies over one set
// of shared routing tables, fronted by the consistent-hash ring that
// assigns each lane's flow to its owner.
type fleetHarness struct {
	net     *netsim.Network
	proxies []*proxy.Proxy
	ring    *front.Ring
	servers []*netsim.Port
}

func newFleetHarness(tb testing.TB, n int) *fleetHarness {
	tb.Helper()
	net := netsim.New(netsim.Config{QueueLen: 1024})
	dirAddrs := make([]netsim.Addr, fwdLanes)
	servers := make([]*netsim.Port, fwdLanes)
	for i := range dirAddrs {
		dirAddrs[i] = netsim.Addr{Host: uint32(1000 + i), Port: 2049}
		port, err := net.Bind(dirAddrs[i])
		if err != nil {
			tb.Fatal(err)
		}
		servers[i] = port
	}
	dirs := route.NewTable(fwdLanes, dirAddrs)
	storage := route.NewTable(fwdLanes, dirAddrs)
	members := make([]route.ProxyMember, n)
	proxies := make([]*proxy.Proxy, n)
	for i := 0; i < n; i++ {
		virtual := netsim.Addr{Host: uint32(9000 + i), Port: 2049}
		host := uint32(8900 + i)
		p := proxy.New(proxy.Config{
			Net:     net,
			Host:    host,
			Virtual: virtual,
			ID:      uint32(i),
			IO:      route.NewIOPolicy(nil, storage),
			Names:   route.NewNamePolicy(route.MkdirSwitching, 0, dirs),
		})
		tb.Cleanup(p.Close)
		proxies[i] = p
		members[i] = route.ProxyMember{ID: uint32(i), Virtual: virtual, Host: host}
	}
	return &fleetHarness{
		net:     net,
		proxies: proxies,
		ring:    front.NewRing(route.NewFleet(members), 0),
		servers: servers,
	}
}

// newLane builds lane i exactly like the single-proxy harness, except the
// lane's target is whichever fleet member the front ring hashes its flow
// to.
func (h *fleetHarness) newLane(tb testing.TB, i uint32) *fwdLane {
	clientAddr := netsim.Addr{Host: uint32(2000 + i), Port: 999}
	client, err := h.net.Bind(clientAddr)
	if err != nil {
		tb.Fatal(err)
	}
	fh := fhandle.Handle{Volume: 1, FileID: uint64(100 + i), Gen: 1, Site: i % fwdLanes}
	owner, ok := h.ring.Owner(front.FlowKey(clientAddr, fhandle.HandleKey(fh)))
	if !ok {
		tb.Fatal("empty fleet")
	}
	args := nfsproto.AccessArgs{FH: fh, Access: 1}
	request := oncrpc.EncodeCall(1, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcAccess), args.Encode)
	reply := oncrpc.EncodeReply(1, oncrpc.AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(0) })
	return &fwdLane{
		target:  owner.Virtual,
		client:  client,
		server:  h.servers[i%fwdLanes],
		request: request,
		reply:   reply,
	}
}

// TestFleetDividesLoad drives fwdLanes lanes, taking turns, each a fixed
// number of round trips, through a 2/4/8-member fleet, and holds
// the front's division of the flows: every member carries traffic, and
// the busiest member's share of the requests is at most one over the
// speedup the fleet must reach — 1.6×, 3.2× and 4.8× (the 8-member bound
// leaves room for 64 lanes hashed over 8 members). The ring is
// hash-deterministic, so the shares are the same on every run: 35, 17 and
// 11 of the 64 lanes land on the busiest member.
func TestFleetDividesLoad(t *testing.T) {
	const trips = 16
	for _, tc := range []struct {
		n        int
		maxShare float64
	}{{2, 1 / 1.6}, {4, 1 / 3.2}, {8, 1 / 4.8}} {
		t.Run(fmt.Sprintf("proxies=%d", tc.n), func(t *testing.T) {
			h := newFleetHarness(t, tc.n)
			lanes := make([]*fwdLane, fwdLanes)
			for i := range lanes {
				lanes[i] = h.newLane(t, uint32(i))
			}
			for j := 0; j < trips; j++ {
				for _, l := range lanes {
					l.roundTrip(t)
				}
			}
			var total, most uint64
			for i, p := range h.proxies {
				n := p.Stats().Requests
				if n == 0 {
					t.Errorf("member %d routed no request", i)
				}
				total += n
				most = max(most, n)
			}
			if total != fwdLanes*trips {
				t.Fatalf("the fleet routed %d requests, want %d", total, fwdLanes*trips)
			}
			if share := float64(most) / float64(total); share > tc.maxShare {
				t.Errorf("the busiest member routed %.3f of the requests, want at most %.3f", share, tc.maxShare)
			}
		})
	}
}
