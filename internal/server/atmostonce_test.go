package server_test

import (
	"fmt"
	"testing"

	"slice/internal/attr"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/server"
	"slice/internal/xdr"
)

// TestBaselineRetransmissionsAnsweredOnce: every mutating procedure of
// the baseline server answers a retransmission — the same bytes sent
// again from the same port — as it answered the call, after more calls
// in between than the 1 024-reply ring this tree once kept held, without
// running again: a second CREATE would answer EEXIST, a second REMOVE,
// RENAME or RMDIR ENOENT, a second LINK EEXIST.
func TestBaselineRetransmissionsAnsweredOnce(t *testing.T) {
	net := netsim.New(netsim.Config{})
	port, err := net.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(port, 1, nil)
	defer srv.Close()
	cp, err := net.BindAny(100)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	xid := uint32(0)
	call := func(proc nfsproto.Proc, args nfsproto.Msg) []byte {
		xid++
		return oncrpc.EncodeCall(xid, nfsproto.Program, nfsproto.Version, uint32(proc), args.Encode)
	}
	send := func(c []byte, res nfsproto.Msg) {
		t.Helper()
		if err := cp.SendTo(srv.Addr(), c); err != nil {
			t.Fatal(err)
		}
		d, ok := cp.TryRecv()
		if !ok {
			t.Fatal("no reply")
		}
		defer netsim.FreeBuf(d)
		rep, err := oncrpc.ParseReply(netsim.Payload(d))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Decode(xdr.NewDecoder(rep.Body)); err != nil {
			t.Fatal(err)
		}
	}
	root := srv.Root()
	type step struct {
		name string
		call []byte
		res  nfsproto.Msg
		st   *nfsproto.Status
	}
	var steps []step
	do := func(name string, proc nfsproto.Proc, args nfsproto.Msg, res nfsproto.Msg, st *nfsproto.Status) {
		t.Helper()
		c := call(proc, args)
		if send(c, res); *st != nfsproto.OK {
			t.Fatalf("%s: %v", name, *st)
		}
		steps = append(steps, step{name, c, res, st})
	}
	var file, dir, gone, moved, empty nfsproto.CreateRes
	do("CREATE", nfsproto.ProcCreate, &nfsproto.CreateArgs{Dir: root, Name: "f", Exclusive: true}, &file, &file.Status)
	do("MKDIR", nfsproto.ProcMkdir, &nfsproto.CreateArgs{Dir: root, Name: "d"}, &dir, &dir.Status)
	do("CREATE", nfsproto.ProcCreate, &nfsproto.CreateArgs{Dir: root, Name: "g", Exclusive: true}, &gone, &gone.Status)
	do("CREATE", nfsproto.ProcCreate, &nfsproto.CreateArgs{Dir: root, Name: "m", Exclusive: true}, &moved, &moved.Status)
	var rm, rmdir nfsproto.RemoveRes
	do("REMOVE", nfsproto.ProcRemove, &nfsproto.RemoveArgs{Dir: root, Name: "g"}, &rm, &rm.Status)
	var mv nfsproto.RenameRes
	do("RENAME", nfsproto.ProcRename, &nfsproto.RenameArgs{FromDir: root, FromName: "m", ToDir: dir.FH, ToName: "m2"}, &mv, &mv.Status)
	var ln nfsproto.LinkRes
	do("LINK", nfsproto.ProcLink, &nfsproto.LinkArgs{FH: file.FH, Dir: root, Name: "f2"}, &ln, &ln.Status)
	var w nfsproto.WriteRes
	do("WRITE", nfsproto.ProcWrite, &nfsproto.WriteArgs{FH: file.FH, Count: 3, Stable: nfsproto.FileSync, Data: []byte("abc")}, &w, &w.Status)
	var sa nfsproto.SetAttrRes
	do("SETATTR", nfsproto.ProcSetAttr, &nfsproto.SetAttrArgs{FH: file.FH, Sattr: attr.SetAttr{SetMode: true, Mode: 0o600}}, &sa, &sa.Status)
	do("MKDIR", nfsproto.ProcMkdir, &nfsproto.CreateArgs{Dir: root, Name: "e"}, &empty, &empty.Status)
	do("RMDIR", nfsproto.ProcRmdir, &nfsproto.RemoveArgs{Dir: root, Name: "e"}, &rmdir, &rmdir.Status)

	for i := 0; i < 1025; i++ {
		var res nfsproto.CreateRes
		send(call(nfsproto.ProcCreate, &nfsproto.CreateArgs{Dir: dir.FH, Name: fmt.Sprintf("b%d", i), Exclusive: true}), &res)
	}
	first := file.FH
	for _, s := range steps {
		if send(s.call, s.res); *s.st != nfsproto.OK {
			t.Errorf("retransmitted %s: %v, want OK", s.name, *s.st)
		}
	}
	if file.FH != first {
		t.Errorf("retransmitted CREATE: handle %v, want %v", file.FH, first)
	}
	if w.Count != 3 {
		t.Errorf("retransmitted WRITE: count %d, want 3", w.Count)
	}
}
