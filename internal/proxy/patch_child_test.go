package proxy

import (
	"bytes"
	"testing"
	"time"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/route"
)

// TestChildAndGetAttrRepliesPatchedInPlace: a successful LOOKUP, CREATE,
// MKDIR, SYMLINK or GETATTR reply — with or without the directory's
// attributes — leaves the µproxy in the buffer it arrived in, carrying the
// cache's attributes (here fresher than the server's: a size and mtime
// from I/O the directory server has not heard of), and is byte for byte
// what the path it replaced builds: decode, substitute the cached
// attributes, re-encode, Build. Any other shape — child attributes absent,
// any bytes after the result, the old trace trailer's included — still
// takes that path, in a fresh buffer; an error status passes through
// untouched but for its source.
func TestChildAndGetAttrRepliesPatchedInPlace(t *testing.T) {
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
	p := New(Config{
		Net: net, Host: 99, Virtual: virtual,
		IO:    route.NewIOPolicy(nil, route.NewTable(1, []netsim.Addr{dirAddr})),
		Names: route.NewNamePolicy(route.MkdirSwitching, 0, route.NewTable(1, []netsim.Addr{dirAddr})),
	})
	defer p.Close()

	dir := fhandle.Handle{Volume: 1, FileID: 42, Gen: 1, Type: uint8(attr.TypeDir)}
	dirAt := attr.Attr{Type: attr.TypeDir, Mode: 0o755, Nlink: 2, FileID: 42, Mtime: attr.Time{Sec: 50}}
	// What a timed reply once carried after its result: trace id, server
	// nanoseconds, then the magic "SLICTRAC".
	oldTrailer := append(bytes.Repeat([]byte{0xAB}, 16), "SLICTRAC"...)

	type path int
	const (
		inPlace path = iota
		reencoded
		passed
	)
	childArgs := func(proc nfsproto.Proc) nfsproto.Msg {
		switch proc {
		case nfsproto.ProcLookup:
			return &nfsproto.LookupArgs{Dir: dir, Name: "f"}
		case nfsproto.ProcSymlink:
			return &nfsproto.SymlinkArgs{Dir: dir, Name: "f", Target: "t"}
		}
		return &nfsproto.CreateArgs{Dir: dir, Name: "f"}
	}
	var xid uint32
	var fileID uint64 = 1000
	// exchange sends proc's call through the µproxy, answers it with body
	// (a result encoding, then tail) and checks what reaches the client.
	exchange := func(name string, proc nfsproto.Proc, args nfsproto.Msg, res nfsproto.Msg, tail []byte, child fhandle.Handle, want path) {
		t.Helper()
		xid++
		call, err := netsim.Build(client.Addr(), virtual,
			oncrpc.EncodeCall(xid, nfsproto.Program, nfsproto.Version, uint32(proc), args.Encode))
		if err != nil {
			t.Fatal(err)
		}
		if v := p.Handle(call); v != netsim.Consumed {
			t.Fatalf("%s: call verdict %v", name, v)
		}
		fwd, err := server.Recv(time.Second)
		if err != nil {
			t.Fatalf("%s: call not forwarded: %v", name, err)
		}
		netsim.FreeBuf(fwd)

		in, err := netsim.Build(dirAddr, client.Addr(),
			append(oncrpc.EncodeReply(xid, oncrpc.AcceptSuccess, res.Encode), tail...))
		if err != nil {
			t.Fatal(err)
		}
		sent, buf := append([]byte(nil), in...), &in[0]
		if v := p.Handle(in); v != netsim.Consumed {
			t.Fatalf("%s: reply verdict %v", name, v)
		}
		out, err := client.Recv(time.Second)
		if err != nil {
			t.Fatalf("%s: reply not delivered: %v", name, err)
		}
		defer netsim.FreeBuf(out)
		h, err := netsim.Parse(out) // verifies the checksum
		if err != nil || h.Src != virtual || h.Dst != client.Addr() {
			t.Fatalf("%s: delivered datagram: %+v, %v", name, h, err)
		}

		if want == passed {
			if &out[0] != buf || !bytes.Equal(netsim.Payload(out), netsim.Payload(sent)) {
				t.Errorf("%s: an error reply did not pass through as it came", name)
			}
			return
		}
		// The path the patch replaced, run on the same reply against the
		// same cache.
		cached, ok := p.attrs.get(child)
		if !ok {
			t.Fatalf("%s: no attributes cached for the child", name)
		}
		switch r := res.(type) {
		case *nfsproto.LookupRes:
			r.Attr = nfsproto.Some(cached)
		case *nfsproto.GetAttrRes:
			r.Attr = cached
		}
		oracle, err := netsim.Build(virtual, client.Addr(), oncrpc.EncodeReply(xid, oncrpc.AcceptSuccess, res.Encode))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, oracle) {
			t.Errorf("%s: delivered datagram (%d bytes) differs from decode -> re-encode -> Build (%d bytes)", name, len(out), len(oracle))
		}
		if same := &out[0] == buf; same != (want == inPlace) {
			t.Errorf("%s: delivered in the received buffer: %v, want %v", name, same, want == inPlace)
		}
	}

	for _, proc := range []nfsproto.Proc{nfsproto.ProcLookup, nfsproto.ProcCreate, nfsproto.ProcMkdir, nfsproto.ProcSymlink, nfsproto.ProcGetAttr} {
		for _, tc := range []struct {
			name    string
			tail    []byte
			withDir bool
			noAttr  bool
			want    path
		}{
			{"plain", nil, false, false, inPlace},
			{"dir attributes", nil, true, false, inPlace},
			{"child attributes absent", nil, true, true, reencoded},
			{"four stray bytes", []byte{1, 2, 3, 4}, false, false, reencoded},
			{"old trace trailer", oldTrailer, false, false, reencoded},
			{"dir attributes and old trace trailer", oldTrailer, true, false, reencoded},
		} {
			// The file is known to the µproxy with attributes newer than
			// the directory server's: observed once, then grown by I/O.
			fileID++
			child := fhandle.Handle{Volume: 1, FileID: fileID, Gen: 1, Type: uint8(attr.TypeReg)}
			srvAt := attr.Attr{Type: attr.TypeReg, Mode: 0o644, Nlink: 1, Size: 100, Used: 8192, FileID: fileID,
				Mtime: attr.Time{Sec: 10, Nsec: 5}, Ctime: attr.Time{Sec: 10, Nsec: 5}}
			p.observeAttr(child, srvAt)
			p.attrs.update(child, func(e *attrEntry) {
				e.at.Size, e.at.Mtime = 1<<20+17, attr.Time{Sec: 99, Nsec: 1}
			})

			name := proc.String() + ", " + tc.name
			if proc == nfsproto.ProcGetAttr {
				if tc.withDir || tc.noAttr {
					continue // a GETATTR result has neither
				}
				exchange(name, proc, &nfsproto.GetAttrArgs{FH: child},
					&nfsproto.GetAttrRes{Status: nfsproto.OK, Attr: srvAt}, tc.tail, child, tc.want)
				continue
			}
			res := &nfsproto.LookupRes{Status: nfsproto.OK, FH: child, Attr: nfsproto.Some(srvAt)}
			if tc.noAttr {
				res.Attr = nfsproto.OptAttr{}
			}
			if tc.withDir {
				res.DirAttr = nfsproto.Some(dirAt)
			}
			exchange(name, proc, childArgs(proc), res, tc.tail, child, tc.want)
			if got, ok := p.attrs.get(child); !ok || got.Size != 1<<20+17 || got.Mtime.Sec != 99 || got.Mode != 0o644 {
				t.Errorf("%s: cached attributes after the reply: %+v", name, got)
			}
			if got, ok := p.attrs.get(dir); tc.withDir && (!ok || got != dirAt) {
				t.Errorf("%s: directory attributes not observed: %+v", name, got)
			}
		}
		// An error status is not patched.
		if proc == nfsproto.ProcGetAttr {
			exchange(proc.String()+", error status", proc, &nfsproto.GetAttrArgs{FH: dir},
				&nfsproto.GetAttrRes{Status: nfsproto.ErrStale}, nil, fhandle.Handle{}, passed)
		} else {
			exchange(proc.String()+", error status", proc, childArgs(proc),
				&nfsproto.LookupRes{Status: nfsproto.ErrNoEnt, DirAttr: nfsproto.Some(dirAt)}, nil, fhandle.Handle{}, passed)
		}
	}
}
