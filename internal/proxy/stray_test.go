package proxy

import (
	"testing"

	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/replica"
	"slice/internal/route"
)

// TestRecordlessReplicaReplyDropped: a reply whose record vanished
// between Handle's probe and handleResponse (soft state dropped under
// it) passes through when a single server sent it, but not when a
// replica-group member did: one member's WRITE reply must not reach the
// client as though every member had applied the write. The client's
// retransmission rebuilds the record and the full fan-out.
func TestRecordlessReplicaReplyDropped(t *testing.T) {
	net := netsim.New(netsim.Config{})
	members := []netsim.Addr{{Host: 10, Port: 2049}, {Host: 11, Port: 2049}}
	dirAddr := netsim.Addr{Host: 30, Port: 2049}
	io := route.NewIOPolicy(nil, route.NewTable(1, members[:1]))
	io.Replicas = replica.NewMap(2, members)
	p := New(Config{
		Net: net, Host: 99, Virtual: netsim.Addr{Host: 100, Port: 2049},
		IO:    io,
		Names: route.NewNamePolicy(route.MkdirSwitching, 0, route.NewTable(1, []netsim.Addr{dirAddr})),
	})
	defer p.Close()

	client := netsim.Addr{Host: 200, Port: 999}
	res := nfsproto.WriteRes{Status: nfsproto.OK, Count: 1}
	for _, tc := range []struct {
		from netsim.Addr
		want netsim.Verdict
	}{
		{members[0], netsim.Consumed},
		{members[1], netsim.Consumed},
		{dirAddr, netsim.Pass},
	} {
		d, err := netsim.Build(tc.from, client, oncrpc.EncodeReply(7, oncrpc.AcceptSuccess, res.Encode))
		if err != nil {
			t.Fatal(err)
		}
		got := p.handleResponse(d, pendKey{client: client, xid: 7}, p.startClock(obs.Sampled(7)), true)
		if got != tc.want {
			t.Errorf("recordless reply from %v: verdict %v, want %v", tc.from, got, tc.want)
		}
		if got == netsim.Pass {
			netsim.FreeBuf(d) // passed on: still the caller's
		}
	}
}
