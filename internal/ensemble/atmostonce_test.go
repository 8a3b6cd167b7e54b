package ensemble

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"

	"slice/internal/coord"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/storage"
	"slice/internal/xdr"
)

// scripted is a client the test drives one transmission at a time: each
// call is encoded once under an xid the test picks and sent from one
// fabric port straight to a server, so sending the same bytes again is a
// retransmission of it. Servers serve on the sender's goroutine, so with
// no fabric latency a reply is queued by the time its send returns.
type scripted struct {
	t    *testing.T
	port *netsim.Port
	xid  uint32
}

func newScripted(t *testing.T, e *Ensemble) *scripted {
	t.Helper()
	port, err := e.Net.BindAny(HostClient0 + 50)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(port.Close)
	return &scripted{t: t, port: port, xid: 0x5c000000}
}

// call encodes a new call of proc with args under a fresh xid.
func (c *scripted) call(prog, vers, proc uint32, args func(*xdr.Encoder)) []byte {
	c.xid++
	return oncrpc.EncodeCall(c.xid, prog, vers, proc, args)
}

// send transmits call to dst and returns the reply's body, or nil when no
// reply came back.
func (c *scripted) send(dst netsim.Addr, call []byte) []byte {
	c.t.Helper()
	if err := c.port.SendTo(dst, call); err != nil {
		c.t.Fatal(err)
	}
	d, ok := c.port.TryRecv()
	if !ok {
		return nil
	}
	defer netsim.FreeBuf(d)
	rep, err := oncrpc.ParseReply(netsim.Payload(d))
	if err != nil || rep.Accept != oncrpc.AcceptSuccess {
		c.t.Fatalf("reply %+v: %v", rep, err)
	}
	return append([]byte(nil), rep.Body...)
}

// nfs transmits an NFS call and decodes its result into res.
func (c *scripted) nfs(dst netsim.Addr, call []byte, res nfsproto.Msg) {
	c.t.Helper()
	body := c.send(dst, call)
	if body == nil {
		c.t.Fatal("no reply")
	}
	if err := res.Decode(xdr.NewDecoder(body)); err != nil {
		c.t.Fatal(err)
	}
}

func (c *scripted) create(dir fhandle.Handle, name string) []byte {
	args := nfsproto.CreateArgs{Dir: dir, Name: name, Exclusive: true}
	return c.call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcCreate), args.Encode)
}

// busy sends n exclusive CREATEs of fresh names to dst: a server's worth
// of other non-idempotent calls between a call and its retransmission,
// more than the 1 024-reply ring this tree once relied on held.
func (c *scripted) busy(dst netsim.Addr, dir fhandle.Handle, n int) {
	c.t.Helper()
	for i := 0; i < n; i++ {
		var res nfsproto.CreateRes
		if c.nfs(dst, c.create(dir, fmt.Sprintf("busy%05d", i)), &res); res.Status != nfsproto.OK {
			c.t.Fatalf("busy create %d: %v", i, res.Status)
		}
	}
}

// dirOf returns the address of the directory server owning fh's cell.
func dirOf(e *Ensemble, fh fhandle.Handle) netsim.Addr {
	a, _ := e.DirTable.Lookup(fh.Site % uint32(e.DirTable.NumLogical()))
	return a
}

// crashRestartDir crashes directory server i and restarts it where it
// was, from its journal.
func crashRestartDir(t *testing.T, e *Ensemble, i int) {
	t.Helper()
	at := e.Dirs[i].Addr()
	if err := e.Chaos().Crash(RoleDir, i); err != nil {
		t.Fatal(err)
	}
	if err := e.Chaos().Restart(RoleDir, i, at); err != nil {
		t.Fatal(err)
	}
}

// TestRetransmittedNameOpsGetTheirFirstAnswer: a retransmitted exclusive
// CREATE, REMOVE and cross-site RENAME each return their first outcome —
// the original handle for the CREATE, OK for the others — both when more
// than 1 024 other non-idempotent calls reached the same directory server
// in between and when that server crashed and restarted from its journal
// in between. Executed again, each would fail: EEXIST, ENOENT, ENOENT.
func TestRetransmittedNameOpsGetTheirFirstAnswer(t *testing.T) {
	for _, restart := range []bool{false, true} {
		name := "busy"
		if restart {
			name = "restart"
		}
		t.Run(name, func(t *testing.T) {
			e := newTest(t, func(c *Config) { c.NameKind = route.MkdirSwitching })
			c := newScripted(t, e)
			site0 := dirOf(e, e.Root)
			between := func() {
				if restart {
					crashRestartDir(t, e, int(e.Root.Site%uint32(e.DirTable.NumLogical())))
				} else {
					c.busy(site0, e.Root, 1025)
				}
			}

			// A directory minted at the other site: the target of a
			// cross-site RENAME. A MKDIR sent to the site that does not
			// own its parent is a redirected one (§3.2).
			other := e.Dirs[1].Addr()
			if other == site0 {
				other = e.Dirs[0].Addr()
			}
			var mk nfsproto.CreateRes
			mkArgs := nfsproto.CreateArgs{Dir: e.Root, Name: "elsewhere"}
			c.nfs(other, c.call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcMkdir), mkArgs.Encode), &mk)
			if mk.Status != nfsproto.OK || dirOf(e, mk.FH) == site0 {
				t.Fatalf("redirected mkdir: %v at %v", mk.Status, dirOf(e, mk.FH))
			}

			create := c.create(e.Root, "created")
			var first nfsproto.CreateRes
			if c.nfs(site0, create, &first); first.Status != nfsproto.OK {
				t.Fatalf("create: %v", first.Status)
			}
			var made nfsproto.CreateRes
			if c.nfs(site0, c.create(e.Root, "doomed"), &made); made.Status != nfsproto.OK {
				t.Fatalf("create: %v", made.Status)
			}
			rmArgs := nfsproto.RemoveArgs{Dir: e.Root, Name: "doomed"}
			remove := c.call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcRemove), rmArgs.Encode)
			var rm nfsproto.RemoveRes
			if c.nfs(site0, remove, &rm); rm.Status != nfsproto.OK {
				t.Fatalf("remove: %v", rm.Status)
			}
			if c.nfs(site0, c.create(e.Root, "moved"), &made); made.Status != nfsproto.OK {
				t.Fatalf("create: %v", made.Status)
			}
			mvArgs := nfsproto.RenameArgs{FromDir: e.Root, FromName: "moved", ToDir: mk.FH, ToName: "arrived"}
			rename := c.call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcRename), mvArgs.Encode)
			var mv nfsproto.RenameRes
			if c.nfs(site0, rename, &mv); mv.Status != nfsproto.OK {
				t.Fatalf("rename: %v", mv.Status)
			}
			crossed := e.Dirs[0].Counters().CrossSite + e.Dirs[1].Counters().CrossSite

			between()

			var again nfsproto.CreateRes
			if c.nfs(site0, create, &again); again.Status != nfsproto.OK || again.FH != first.FH {
				t.Errorf("retransmitted CREATE: %v %v, want OK and the original handle %v", again.Status, again.FH, first.FH)
			}
			if c.nfs(site0, remove, &rm); rm.Status != nfsproto.OK {
				t.Errorf("retransmitted REMOVE: %v, want OK", rm.Status)
			}
			if c.nfs(site0, rename, &mv); mv.Status != nfsproto.OK {
				t.Errorf("retransmitted RENAME: %v, want OK", mv.Status)
			}
			if crossed == 0 {
				t.Fatal("the rename crossed no site")
			}
		})
	}
}

// TestCreateCrashedBeforeItsReplyGetsItsHandle: a CREATE whose directory
// server journaled it and crashed before its reply reached the client is
// answered, when the client retransmits it to the restarted server, with
// the handle the name was bound to, not EEXIST.
func TestCreateCrashedBeforeItsReplyGetsItsHandle(t *testing.T) {
	e := newTest(t, nil)
	c := newScripted(t, e)
	site0 := dirOf(e, e.Root)
	var drop atomic.Uint32 // the xid whose reply is lost
	e.Net.AddTap(netsim.TapFunc(func(d []byte) netsim.Verdict {
		if len(d) >= netsim.HeaderSize+oncrpc.ReplyHeader &&
			binary.BigEndian.Uint32(d[netsim.OffDstHost:]) == c.port.Addr().Host &&
			binary.BigEndian.Uint32(d[netsim.HeaderSize+oncrpc.OffXid:]) == drop.Load() {
			return netsim.Drop
		}
		return netsim.Pass
	}))
	create := c.create(e.Root, "journaled")
	drop.Store(c.xid)
	if body := c.send(site0, create); body != nil {
		t.Fatal("the CREATE's reply was not lost")
	}
	crashRestartDir(t, e, int(e.Root.Site%uint32(e.DirTable.NumLogical())))
	drop.Store(0)

	var look nfsproto.LookupRes
	lkArgs := nfsproto.LookupArgs{Dir: e.Root, Name: "journaled"}
	if c.nfs(site0, c.call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcLookup), lkArgs.Encode), &look); look.Status != nfsproto.OK {
		t.Fatalf("the journaled CREATE did not survive the restart: %v", look.Status)
	}
	var again nfsproto.CreateRes
	if c.nfs(site0, create, &again); again.Status != nfsproto.OK || again.FH != look.FH {
		t.Fatalf("retransmitted CREATE: %v %v, want OK and %v", again.Status, again.FH, look.FH)
	}
}

// TestRetriedIntendAcrossRestartLogsOneIntention: a ProcIntend whose
// reply was lost, retransmitted to a coordinator restarted from its
// journal in between, is answered with the id it was first given, and
// logs no second intention.
func TestRetriedIntendAcrossRestartLogsOneIntention(t *testing.T) {
	e := newTest(t, nil)
	c := newScripted(t, e)
	fh := fhandle.Handle{Volume: 1, FileID: 77, Type: 1, Gen: 1}
	intend := c.call(coord.Program, coord.Version, coord.ProcIntend, func(enc *xdr.Encoder) {
		enc.PutUint32(coord.OpRemove)
		fh.Encode(enc)
		enc.PutUint64(0)
	})
	idOf := func(body []byte) uint64 {
		t.Helper()
		d := xdr.NewDecoder(body)
		if st, err := d.Uint32(); err != nil || nfsproto.Status(st) != nfsproto.OK {
			t.Fatalf("intend: status %d, %v", st, err)
		}
		id, _ := d.Uint64()
		return id
	}
	at := e.Coord.Addr()
	first := idOf(c.send(at, intend))
	if err := e.Chaos().Crash(RoleCoord, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Chaos().Restart(RoleCoord, 0, at); err != nil {
		t.Fatal(err)
	}
	if again := idOf(c.send(at, intend)); again != first {
		t.Fatalf("retransmitted intend: id %d, want %d", again, first)
	}
	if n := e.Coord.Stats().Intentions; n != 0 {
		t.Fatalf("the restarted coordinator logged %d intentions for a retransmission, want 0", n)
	}
}

// TestDataServerDuplicateDoesNotOvertakeNewerWrite pins what at-most-once
// guards on a data server: a WRITE's duplicate held back until a newer
// WRITE of the same bytes was acknowledged, and a TRUNCATE's held back
// until the file was written past it again, each answer OK and change
// nothing.
func TestDataServerDuplicateDoesNotOvertakeNewerWrite(t *testing.T) {
	e := newTest(t, nil)
	c := newScripted(t, e)
	node := e.Storage[0].Addr()
	fh := fhandle.Handle{Volume: 1, FileID: 91, Type: 1, Gen: 1}
	write := func(fill byte) []byte {
		args := nfsproto.WriteArgs{FH: fh, Offset: 0, Count: 4096, Stable: nfsproto.FileSync, Data: make([]byte, 4096)}
		for i := range args.Data {
			args.Data[i] = fill
		}
		return c.call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcWrite), args.Encode)
	}
	var w nfsproto.WriteRes
	old := write('a')
	if c.nfs(node, old, &w); w.Status != nfsproto.OK {
		t.Fatalf("write: %v", w.Status)
	}
	if c.nfs(node, write('b'), &w); w.Status != nfsproto.OK {
		t.Fatalf("newer write: %v", w.Status)
	}
	if c.nfs(node, old, &w); w.Status != nfsproto.OK || w.Count != 4096 {
		t.Fatalf("held-back duplicate write: %v, count %d", w.Status, w.Count)
	}

	truncate := c.call(storage.ObjProgram, storage.ObjVersion, storage.ObjProcTruncate, func(enc *xdr.Encoder) {
		fh.Encode(enc)
		enc.PutUint64(0)
	})
	if body := c.send(node, truncate); body == nil || binary.BigEndian.Uint32(body) != uint32(nfsproto.OK) {
		t.Fatal("truncate failed")
	}
	if c.nfs(node, write('c'), &w); w.Status != nfsproto.OK {
		t.Fatalf("write after truncate: %v", w.Status)
	}
	if body := c.send(node, truncate); body == nil || binary.BigEndian.Uint32(body) != uint32(nfsproto.OK) {
		t.Fatal("held-back duplicate truncate failed")
	}

	rdArgs := nfsproto.ReadArgs{FH: fh, Count: 4096}
	var rd nfsproto.ReadRes
	if c.nfs(node, c.call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcRead), rdArgs.Encode), &rd); rd.Status != nfsproto.OK {
		t.Fatalf("read: %v", rd.Status)
	}
	if len(rd.Data) != 4096 || rd.Data[0] != 'c' || rd.Data[4095] != 'c' {
		t.Fatalf("read %d bytes starting %q: a held-back duplicate overtook the newer write", len(rd.Data), rd.Data[:min(len(rd.Data), 1)])
	}
}
