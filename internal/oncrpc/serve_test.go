package oncrpc

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"slice/internal/allocs"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/xdr"
)

// handlerOf makes a Handler of a function of the encoder-taking form.
type handlerOf func(call Call, from netsim.Addr, e *xdr.Encoder) uint32

func (f handlerOf) ServeRPC(call Call, from netsim.Addr, e *xdr.Encoder) uint32 {
	return f(call, from, e)
}

// rawCall sends payload from cp to the server and returns the reply's
// payload, copied out of its datagram.
func rawCall(t *testing.T, cp *netsim.Port, srv netsim.Addr, payload []byte) []byte {
	t.Helper()
	if err := cp.SendTo(srv, payload); err != nil {
		t.Fatal(err)
	}
	d, err := cp.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer netsim.FreeBuf(d)
	return append([]byte(nil), netsim.Payload(d)...)
}

// TestServeTruncatesFailedResult: a handler appends its result to the
// reply the server began, and a handler that encoded part of a result and
// then fails yields a reply of the header alone, carrying its accept
// status: what it wrote is truncated away.
func TestServeTruncatesFailedResult(t *testing.T) {
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, handlerOf(func(call Call, _ netsim.Addr, e *xdr.Encoder) uint32 {
		e.PutUint32(0xAAAA)
		e.PutOpaque(make([]byte, 700))
		if call.Proc == 2 {
			return AcceptSystemErr
		}
		return AcceptSuccess
	}))
	defer srv.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	defer cp.Close()

	ok, err := ParseReply(rawCall(t, cp, srv.Addr(), EncodeCall(1, 7, 1, 1, nil)))
	if err != nil || ok.Accept != AcceptSuccess || len(ok.Body) != 4+4+700 {
		t.Fatalf("a successful call's reply: accept %d, %d body bytes, %v", ok.Accept, len(ok.Body), err)
	}
	p := rawCall(t, cp, srv.Addr(), EncodeCall(2, 7, 1, 2, nil))
	failed, err := ParseReply(p)
	if err != nil || failed.Xid != 2 || failed.Accept != AcceptSystemErr {
		t.Fatalf("a failed call's reply: %+v, %v", failed, err)
	}
	if len(p) != ReplyHeader {
		t.Fatalf("a failed call's reply is %d bytes, want the %d-byte header alone", len(p), ReplyHeader)
	}
	if got := binary.BigEndian.Uint32(p[OffAccept:]); got != AcceptSystemErr {
		t.Fatalf("accept word %d, want %d", got, AcceptSystemErr)
	}
}

// TestDRCReplayIsByteIdentical: a retransmission answered from the
// handler's outcome table is byte-identical to the first reply — also
// after more calls than the counted reply ring this table replaced held
// (1 024), each rebuilding a reply whose length and bytes differ from
// call to call.
func TestDRCReplayIsByteIdentical(t *testing.T) {
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	var executions int
	var done recorded
	srv := NewServer(sp, handlerOf(func(call Call, from netsim.Addr, e *xdr.Encoder) uint32 {
		v := done.once(call, from, func() uint64 {
			executions++
			return uint64(call.Xid)
		})
		// A result whose length and bytes differ from call to call,
		// rebuilt from the outcome alone.
		b := e.Reserve(int(v % 97))
		for i := range b {
			b[i] = byte(v) + byte(i)
		}
		return AcceptSuccess
	}))
	defer srv.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	defer cp.Close()

	const calls = 2*1024 + 10
	first := make(map[uint32][]byte)
	for xid := uint32(1); xid <= calls; xid++ {
		first[xid] = rawCall(t, cp, srv.Addr(), EncodeCall(xid, 7, 1, 1, nil))
	}
	for xid := uint32(1); xid <= calls; xid += 37 {
		again := rawCall(t, cp, srv.Addr(), EncodeCall(xid, 7, 1, 1, nil))
		if !bytes.Equal(again, first[xid]) {
			t.Fatalf("xid %d: the replayed reply differs from the first", xid)
		}
	}
	if executions != calls {
		t.Fatalf("the handler ran %d times for %d calls: a retransmission re-executed", executions, calls)
	}
}

// TestNullCallAllocatesNothing: a NULL call allocates nothing on either
// transmission path — its encoders, the client's and the server's, are
// recycled, its datagrams pooled and its call record reused.
func TestNullCallAllocatesNothing(t *testing.T) {
	n := netsim.New(netsim.Config{})
	sp, err := n.BindAny(2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sp, HandlerFunc(func(Call, netsim.Addr) (func(*xdr.Encoder), uint32) {
		return nil, AcceptSuccess
	}))
	defer srv.Close()
	for _, seal := range []bool{true, false} {
		cp, err := n.BindAny(1)
		if err != nil {
			t.Fatal(err)
		}
		var conn Conn = cp
		if !seal {
			conn = recvOnly{cp}
		}
		cli := NewClient(conn, srv.Addr(), ClientConfig{Timeout: time.Minute, Retries: 1})
		null := func() {
			if _, err := cli.Call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcNull), nil); err != nil {
				t.Fatal(err)
			}
		}
		got := allocs.PerCall(1000, null)
		cli.Close()
		// Off a sealing Conn the call is encoded once and SendTo copies it
		// into a datagram of its own: one pooled buffer more.
		datagrams := 2
		if !seal {
			datagrams = 3
		}
		if floor := poolFloor(datagrams); got-floor > allocs.Slack {
			t.Fatalf("seal=%v: a NULL call allocates %.2f times, its pool misses %.2f", seal, got, floor)
		}
	}
}

// poolFloor is what the pooled objects of one call — its call record, two
// encoders and the pooled buffers of its datagrams — cost in allocations:
// nothing, but under the race detector, which makes sync.Pool drop a
// quarter of what it is given (allocs.Race).
func poolFloor(datagrams int) float64 {
	return allocs.PerCall(1000, func() {
		callPool.Put(callPool.Get())
		for i := 0; i < 2; i++ {
			freeEncoder(encoders.Get().(*xdr.Encoder))
		}
		for i := 0; i < datagrams; i++ {
			netsim.FreeBuf(netsim.GetBuf(netsim.HeaderSize + CallHeader))
		}
	})
}
