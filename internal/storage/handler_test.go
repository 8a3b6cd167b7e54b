package storage_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"slice/internal/allocs"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/smallfile"
	"slice/internal/storage"
	"slice/internal/xdr"
)

// TestDataServersAnswerAlike: a storage node and a small-file server run
// one data-server handler, so the same calls, in order, draw the same
// replies from both — accept status, NFS status, and the data, count and
// EOF flag a READ or WRITE reply carries.
func TestDataServersAnswerAlike(t *testing.T) {
	n := netsim.New(netsim.Config{})
	bind := func(host uint32) *netsim.Port {
		p, err := n.BindAny(host)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	node := storage.NewNode(bind(2), storage.NewObjectStore())
	sfs := smallfile.NewServer(bind(3), smallfile.NewStore(storage.NewObjectStore(), 1, nil))
	servers := []struct {
		name string
		cli  *oncrpc.Client
	}{
		{"storage", oncrpc.NewClient(bind(1), node.Addr(), oncrpc.ClientConfig{})},
		{"smallfile", oncrpc.NewClient(bind(1), sfs.Addr(), oncrpc.ClientConfig{})},
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.cli.Close()
		}
		node.Close()
		sfs.Close()
	})

	fh := fhandle.Handle{Volume: 1, FileID: 42, Type: 1, Gen: 1}
	nfs := func(proc nfsproto.Proc, args func(*xdr.Encoder)) (uint32, uint32, func(*xdr.Encoder)) {
		return nfsproto.Program, uint32(proc), args
	}
	read := func(off uint64, count uint32) (uint32, uint32, func(*xdr.Encoder)) {
		return nfs(nfsproto.ProcRead, (&nfsproto.ReadArgs{FH: fh, Offset: off, Count: count}).Encode)
	}
	write := func(off uint64, data string, stable uint32) (uint32, uint32, func(*xdr.Encoder)) {
		return nfs(nfsproto.ProcWrite, (&nfsproto.WriteArgs{FH: fh, Offset: off, Count: uint32(len(data)),
			Stable: stable, Data: []byte(data)}).Encode)
	}
	obj := func(proc uint32, size ...uint64) (uint32, uint32, func(*xdr.Encoder)) {
		return storage.ObjProgram, proc, func(e *xdr.Encoder) {
			fh.Encode(e)
			for _, s := range size {
				e.PutUint64(s)
			}
		}
	}
	call := func(prog, proc uint32, args func(*xdr.Encoder)) func(*oncrpc.Client) string {
		return func(cli *oncrpc.Client) string { return answer(t, cli, prog, proc, args) }
	}
	for _, step := range []struct {
		name string
		call func(*oncrpc.Client) string
		want string
	}{
		{"null", call(nfs(nfsproto.ProcNull, nil)), "accept 0"},
		{"read of a never-written file", call(read(0, 4096)), `OK "" eof=true`},
		{"unstable write", call(write(0, "hello, ", nfsproto.Unstable)), "OK count=7 committed=0"},
		{"file-sync write", call(write(7, "world", nfsproto.FileSync)), "OK count=5 committed=2"},
		{"read back", call(read(0, 4096)), `OK "hello, world" eof=true`},
		{"short read", call(read(2, 3)), `OK "llo" eof=false`},
		{"commit", call(nfs(nfsproto.ProcCommit, (&nfsproto.CommitArgs{FH: fh}).Encode)), "OK"},
		{"truncate", call(obj(storage.ObjProcTruncate, 5)), "OK"},
		{"read after truncate", call(read(0, 4096)), `OK "hello" eof=true`},
		{"remove", call(obj(storage.ObjProcRemove)), "OK"},
		{"read after remove", call(read(0, 4096)), `OK "" eof=true`},
		{"remove again", call(obj(storage.ObjProcRemove)), "OK"},
		{"garbage read args", call(nfsproto.Program, uint32(nfsproto.ProcRead), func(e *xdr.Encoder) { e.PutUint32(7) }), "accept 4"},
		{"garbage truncate args", call(obj(storage.ObjProcTruncate)), "accept 4"},
		{"unknown NFS procedure", call(nfs(nfsproto.ProcLookup, nil)), "accept 3"},
		{"unknown object procedure", call(obj(3)), "accept 3"},
		{"unknown program", call(0x20000000, 1, nil), "accept 1"},
	} {
		for _, s := range servers {
			if got := step.call(s.cli); got != step.want {
				t.Errorf("%s: %s answered %s, want %s", step.name, s.name, got, step.want)
			}
		}
	}

	// The one place the two differ is the backends' own: a small-file
	// server holds only the region below the threshold offset.
	past := uint64(smallfile.MaxBlocks * smallfile.LogicalBlock)
	if got := answer(t, servers[1].cli, nfsproto.Program, uint32(nfsproto.ProcWrite),
		(&nfsproto.WriteArgs{FH: fh, Offset: past, Count: 1, Data: []byte("x")}).Encode); got != "EFBIG" {
		t.Errorf("small-file write past the threshold answered %s, want EFBIG", got)
	}
}

// answer makes one call and summarizes the reply: the accept status when
// the call was not accepted, else the NFS status and what a READ or WRITE
// reply carries.
func answer(t *testing.T, cli *oncrpc.Client, prog, proc uint32, args func(*xdr.Encoder)) string {
	t.Helper()
	vers := uint32(storage.ObjVersion)
	if prog == nfsproto.Program {
		vers = nfsproto.Version
	}
	body, err := cli.Call(prog, vers, proc, args)
	var rej *oncrpc.ErrRejected
	switch {
	case errors.As(err, &rej):
		return fmt.Sprintf("accept %d", rej.Accept)
	case err != nil:
		t.Fatal(err)
	case prog != nfsproto.Program:
		st, err := xdr.NewDecoder(body).Uint32()
		if err != nil {
			t.Fatal(err)
		}
		return nfsproto.Status(st).String()
	}
	d := xdr.NewDecoder(body)
	switch nfsproto.Proc(proc) {
	case nfsproto.ProcRead:
		var res nfsproto.ReadRes
		if err := res.Decode(d); err != nil {
			t.Fatal(err)
		}
		if res.Status != nfsproto.OK {
			return res.Status.String()
		}
		return fmt.Sprintf("%s %q eof=%v", res.Status, res.Data, res.EOF)
	case nfsproto.ProcWrite:
		var res nfsproto.WriteRes
		if err := res.Decode(d); err != nil {
			t.Fatal(err)
		}
		if res.Status != nfsproto.OK {
			return res.Status.String()
		}
		return fmt.Sprintf("%s count=%d committed=%d", res.Status, res.Count, res.Committed)
	case nfsproto.ProcCommit:
		var res nfsproto.CommitRes
		if err := res.Decode(d); err != nil {
			t.Fatal(err)
		}
		return res.Status.String()
	}
	return "accept 0"
}

// TestDataPathAllocatesNothing: on either kind of data server a READ of
// bytes the file holds, and a WRITE into a block it already has, allocate
// nothing more than a NULL call — arguments decoded on the stack, the
// result and a READ's data encoded straight into the reply. A WRITE's
// outcome enters the server's table, a map that keeps every call of up to
// two once.Spans and grows by doubling until it does: warmed up over as
// many WRITEs as are measured, it grows at most once more over the
// measured ones.
func TestDataPathAllocatesNothing(t *testing.T) {
	n := netsim.New(netsim.Config{})
	bind := func(host uint32) *netsim.Port {
		p, err := n.BindAny(host)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	node := storage.NewNode(bind(2), storage.NewObjectStore())
	defer node.Close()
	sfs := smallfile.NewServer(bind(3), smallfile.NewStore(storage.NewObjectStore(), 1, nil))
	defer sfs.Close()
	fh := fhandle.Handle{Volume: 1, FileID: 42, Type: 1, Gen: 1}
	data := make([]byte, 4096)
	for _, srv := range []struct {
		name string
		addr netsim.Addr
	}{{"storage", node.Addr()}, {"smallfile", sfs.Addr()}} {
		cli := oncrpc.NewClient(bind(1), srv.addr, oncrpc.ClientConfig{})
		call := func(proc nfsproto.Proc, args func(*xdr.Encoder)) func() {
			return func() {
				rep, err := cli.CallKeyedReply(0, nfsproto.Program, nfsproto.Version, uint32(proc), args)
				if err != nil {
					t.Fatal(err)
				}
				if proc != nfsproto.ProcNull {
					if st := nfsproto.Status(binary.BigEndian.Uint32(rep.Body)); st != nfsproto.OK {
						t.Fatalf("%s %v: %v", srv.name, proc, st)
					}
				}
				rep.Free()
			}
		}
		write := nfsproto.WriteArgs{FH: fh, Count: uint32(len(data)), Stable: nfsproto.Unstable, Data: data}
		read := nfsproto.ReadArgs{FH: fh, Count: uint32(len(data))}
		const runs = 1000
		for i := 0; i < runs; i++ {
			call(nfsproto.ProcWrite, write.Encode)()
		}
		null := allocs.PerCall(runs, call(nfsproto.ProcNull, nil))
		if !allocs.Race && null > allocs.Slack {
			t.Fatalf("%s: a NULL call allocates %.2f times", srv.name, null)
		}
		for _, op := range []struct {
			name string
			do   func()
		}{{"READ", call(nfsproto.ProcRead, read.Encode)}, {"WRITE", call(nfsproto.ProcWrite, write.Encode)}} {
			got := allocs.PerCall(runs, op.do)
			t.Logf("%s %s: %.2f allocations, a NULL call %.2f", srv.name, op.name, got, null)
			if got-null > allocs.Slack {
				t.Errorf("%s: a %s allocates %.2f times, a NULL call %.2f", srv.name, op.name, got, null)
			}
		}
		cli.Close()
	}
}
