package proxy

import (
	"testing"
	"time"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/route"
)

// TestFlushKeepsCallsInFlight: a reply to a call forwarded before a
// FlushSoftState still reaches its client from the virtual server, so the
// client's peer check accepts it; a flush drops only a record that has
// waited flushAge, and DropSoftState, a crash, forgets every record, whose
// reply then passes with the server's own source address.
func TestFlushKeepsCallsInFlight(t *testing.T) {
	net := netsim.New(netsim.Config{})
	dirAddr := netsim.Addr{Host: 30, Port: 2049}
	server, err := net.Bind(dirAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := net.Bind(netsim.Addr{Host: 200, Port: 999})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	virtual := netsim.Addr{Host: 100, Port: 2049}
	dirs := route.NewTable(1, []netsim.Addr{dirAddr})
	p := New(Config{
		Net: net, Host: 99, Virtual: virtual,
		IO:    route.NewIOPolicy(nil, dirs),
		Names: route.NewNamePolicy(route.MkdirSwitching, 0, dirs),
	})
	defer p.Close()
	var now int64 // Handle runs on this goroutine: no other reads the clock
	p.now = func() int64 { return now }

	fh := fhandle.Handle{Volume: 1, FileID: 43, Gen: 1, Type: uint8(attr.TypeReg)}
	var xid uint32
	// exchange sends an ACCESS call through the µproxy, runs between
	// after the directory server has it, answers it, and returns the
	// source address the reply reaches the client from.
	exchange := func(between func()) netsim.Addr {
		t.Helper()
		xid++
		call := oncrpc.EncodeCall(xid, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcAccess),
			(&nfsproto.AccessArgs{FH: fh, Access: 1}).Encode)
		if err := client.SendTo(virtual, call); err != nil {
			t.Fatal(err)
		}
		d, err := server.Recv(time.Second)
		if err != nil {
			t.Fatalf("the call was not forwarded: %v", err)
		}
		netsim.FreeBuf(d)
		between()
		rep := oncrpc.EncodeReply(xid, oncrpc.AcceptSuccess, (&nfsproto.AccessRes{Status: nfsproto.OK, Access: 1}).Encode)
		if err := server.SendTo(client.Addr(), rep); err != nil {
			t.Fatal(err)
		}
		d, err = client.Recv(time.Second)
		if err != nil {
			t.Fatalf("no reply: %v", err)
		}
		defer netsim.FreeBuf(d)
		h, err := netsim.Parse(d)
		if err != nil {
			t.Fatal(err)
		}
		return h.Src
	}

	if src := exchange(p.FlushSoftState); src != virtual {
		t.Fatalf("reply to a call in flight across a flush came from %s, want the virtual server %s", src, virtual)
	}
	if src := exchange(func() { now += int64(flushAge); p.FlushSoftState() }); src != dirAddr {
		t.Fatalf("a record %v old survived a flush: reply from %s", flushAge, src)
	}
	if src := exchange(p.DropSoftState); src != dirAddr {
		t.Fatalf("a record survived DropSoftState: reply from %s", src)
	}
	if n := p.ShardStats(); pendingTotal(n) != 0 {
		t.Fatalf("%d records left pending", pendingTotal(n))
	}
}

func pendingTotal(st []ShardStat) int {
	n := 0
	for _, s := range st {
		n += s.Pending
	}
	return n
}
