package dirsrv

import (
	"fmt"
	"testing"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/once"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/xdr"
)

// TestPeerInsertRetransmittedAfterBusyPeerAnswersOnce: a peer insert
// whose reply is lost, retransmitted after more than 1 024 other peer
// calls reached the same site, is answered OK — its first outcome, kept
// under the identity of the client operation it serves — and the insert
// was made exactly once. Executed again it would fail EEXIST.
func TestPeerInsertRetransmittedAfterBusyPeerAnswersOnce(t *testing.T) {
	h := newHarness(t, 2, route.MkdirSwitching, 0)
	port, err := h.net.BindAny(31)
	if err != nil {
		t.Fatal(err)
	}
	defer port.Close()
	site := h.servers[0].Addr()
	client := netsim.Addr{Host: 200, Port: 9}
	insert := func(xid uint32, name string) []byte {
		op := once.Ident{Src: client, Xid: xid, Prog: nfsproto.Program, Vers: nfsproto.Version,
			Proc: uint32(nfsproto.ProcMkdir), Len: 64}
		child := fhandle.Handle{Volume: 1, FileID: 2<<40 | uint64(xid), Type: 2, CellKey: uint64(xid), Site: 1, Gen: 1}
		return oncrpc.EncodeCall(xid, PeerProgram, PeerVersion, peerInsertEntry, func(e *xdr.Encoder) {
			op.Sub(1<<8 | peerInsertEntry).Encode(e)
			h.root.Encode(e)
			e.PutString(name)
			child.Encode(e)
		})
	}
	status := func(call []byte) nfsproto.Status {
		t.Helper()
		if err := port.SendTo(site, call); err != nil {
			t.Fatal(err)
		}
		d, ok := port.TryRecv()
		if !ok {
			t.Fatal("no reply")
		}
		defer netsim.FreeBuf(d)
		rep, err := oncrpc.ParseReply(netsim.Payload(d))
		if err != nil {
			t.Fatal(err)
		}
		st, _ := xdr.NewDecoder(rep.Body).Uint32()
		return nfsproto.Status(st)
	}
	first := insert(1, "once")
	if st := status(first); st != nfsproto.OK {
		t.Fatalf("peer insert: %v", st)
	}
	for i := uint32(0); i < 1025; i++ {
		if st := status(insert(100+i, fmt.Sprintf("other%d", i))); st != nfsproto.OK {
			t.Fatalf("other peer insert %d: %v", i, st)
		}
	}
	if st := status(first); st != nfsproto.OK {
		t.Fatalf("retransmitted peer insert: %v, want its first answer, OK", st)
	}
	n := 0
	for _, ent := range h.servers[0].localListDir(h.root.Ident()) {
		if ent.name == "once" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d entries named once, want 1", n)
	}
}
