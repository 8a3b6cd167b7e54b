package proxy_test

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"slice/internal/attr"
	"slice/internal/ensemble"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/storage"
	"slice/internal/xdr"
)

// rawReader is a client that speaks datagrams instead of the client API,
// so a test can hold the exact bytes the µproxy injected.
type rawReader struct {
	t    *testing.T
	e    *ensemble.Ensemble
	port *netsim.Port
	xid  uint32
}

func newRawReader(t *testing.T, e *ensemble.Ensemble) *rawReader {
	t.Helper()
	port, err := e.Net.BindAny(ensemble.HostClient0 + 50)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(port.Close)
	return &rawReader{t: t, e: e, port: port, xid: 7000}
}

// call sends one call to the virtual server and returns the reply
// datagram as delivered.
func (r *rawReader) call(proc nfsproto.Proc, args nfsproto.Msg) []byte {
	r.t.Helper()
	r.xid++
	call := oncrpc.EncodeCall(r.xid, nfsproto.Program, nfsproto.Version, uint32(proc), args.Encode)
	if err := r.port.SendTo(r.e.Virtual, call); err != nil {
		r.t.Fatal(err)
	}
	d, err := r.port.Recv(2 * time.Second)
	if err != nil {
		r.t.Fatalf("%v: %v", proc, err)
	}
	return d
}

// read sends one READ.
func (r *rawReader) read(fh fhandle.Handle, off uint64, count uint32) []byte {
	r.t.Helper()
	return r.call(nfsproto.ProcRead, &nfsproto.ReadArgs{FH: fh, Offset: off, Count: count})
}

// checkCanonical is canonical for a READ reply.
func (r *rawReader) checkCanonical(d []byte) (res nfsproto.ReadRes) {
	r.t.Helper()
	r.canonical(d, &res)
	return res
}

// canonical decodes the reply d into res and asserts that d is exactly
// the datagram the virtual server would send had the reply been decoded,
// re-encoded and built from scratch — the path the in-place patch
// replaced — with the server's time for the call in the reply header,
// which an in-place patch leaves as the server wrote it.
func (r *rawReader) canonical(d []byte, res nfsproto.Msg) {
	r.t.Helper()
	h, err := netsim.Parse(d)
	if err != nil {
		r.t.Fatalf("injected datagram does not parse: %v", err)
	}
	if h.Src != r.e.Virtual || h.Dst != r.port.Addr() {
		r.t.Fatalf("addressed %v -> %v, want %v -> %v", h.Src, h.Dst, r.e.Virtual, r.port.Addr())
	}
	rep, err := oncrpc.ParseReply(netsim.Payload(d))
	if err != nil || rep.Xid != r.xid || rep.Accept != oncrpc.AcceptSuccess {
		r.t.Fatalf("reply %+v, err %v", rep, err)
	}
	if err := res.Decode(xdr.NewDecoder(rep.Body)); err != nil {
		r.t.Fatal(err)
	}
	payload := oncrpc.EncodeReply(rep.Xid, oncrpc.AcceptSuccess, res.Encode)
	binary.BigEndian.PutUint64(payload[oncrpc.OffServerNS:], rep.ServerNS)
	want, err := netsim.Build(r.e.Virtual, r.port.Addr(), payload)
	if err != nil {
		r.t.Fatal(err)
	}
	if !bytes.Equal(d, want) {
		r.t.Fatalf("patched datagram (%d bytes) differs from decode -> re-encode -> Build (%d bytes)", len(d), len(want))
	}
}

// TestReadReplyPatchedInPlace: for every way a bulk READ reply is patched
// in the received datagram — cached attributes, a corrected EOF flag, a
// read spread to a replica, a small-file read — what the µproxy injects
// is byte-identical to the decode -> re-encode -> Build it replaced and
// carries the file's attributes, never the data server's placeholder;
// and with no attributes cached the placeholder is cut out.
func TestReadReplyPatchedInPlace(t *testing.T) {
	const unit = 32 << 10
	const size = 64<<10 + 3*unit + 1000 // small-file region, three stripes, a short tail
	content := make([]byte, size)
	for i := range content {
		content[i] = byte(i*7 + i>>11)
	}

	for _, replication := range []int{1, 2} {
		e := newEnsemble(t, func(c *ensemble.Config) {
			if replication > 1 {
				c.StorageNodes, c.Replication = 4, replication
			}
		})
		c, err := e.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fh, _, err := c.Create(c.Root(), "patched", 0o640, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WriteFile(fh, content); err != nil {
			t.Fatal(err)
		}
		want, err := c.GetAttr(fh) // fills the attribute cache with the file's own attributes
		if err != nil {
			t.Fatal(err)
		}
		if want.Size != size || want.Mode != 0o640 {
			t.Fatalf("authoritative attributes %+v", want)
		}

		// A stripe unit that is the last thing its node holds of the file:
		// the node reports EOF there although the file goes on.
		falseEOF := uint64(0)
		for _, n := range e.Storage {
			if sz, ok := n.Store().Size(storage.ObjectOf(fh)); ok && sz < size && sz%unit == 0 {
				falseEOF = uint64(sz) - unit
			}
		}
		if falseEOF == 0 {
			t.Fatalf("k=%d: no node's object ends mid-file; the layout no longer exercises EOF correction", replication)
		}

		r := newRawReader(t, e)
		check := func(name string, off uint64, count uint32, wantEOF bool) {
			t.Helper()
			res := r.checkCanonical(r.read(fh, off, count))
			end := off + uint64(count)
			if end > size {
				end = size
			}
			if res.Status != nfsproto.OK || !bytes.Equal(res.Data, content[off:end]) || int(res.Count) != len(res.Data) {
				t.Fatalf("%s (k=%d): status %v, %d bytes, count %d", name, replication, res.Status, len(res.Data), res.Count)
			}
			if res.EOF != wantEOF {
				t.Fatalf("%s (k=%d): EOF %v, want %v", name, replication, res.EOF, wantEOF)
			}
			got := res.Attr.Attr
			if !res.Attr.Present || got.Size != size || got.Mode != 0o640 || got.FileID != fh.FileID || got.Type != attr.TypeReg {
				t.Fatalf("%s (k=%d): attributes %+v are not the file's", name, replication, res.Attr)
			}
		}
		// Small-file server: its local view ends at the threshold, so it
		// reports EOF on the last block below it.
		check("small-file", 32<<10, unit, false)
		check("false EOF mid-file", falseEOF, unit, false)
		// Several reads of one clean stripe: with k>1 they spread over
		// the group's members, primary or not.
		for i := 0; i < 6; i++ {
			check("spread", 64<<10+unit, unit, false)
		}
		// The tail: a short read that really is the end of the file.
		check("tail", 64<<10+3*unit, unit, true)
		// A read ending exactly at the file's size is EOF even though the
		// count was satisfied in full.
		check("exact end", 64<<10+3*unit, 1000, true)

		// Soft-state loss: with nothing cached the µproxy has no
		// attributes to give, and must not pass the data server's on.
		e.Proxy.DropSoftState()
		res := r.checkCanonical(r.read(fh, falseEOF, unit/2))
		if res.Attr.Present {
			t.Fatalf("k=%d: placeholder attributes %+v reached the client after soft-state loss", replication, res.Attr.Attr)
		}
		if res.Status != nfsproto.OK || res.EOF || !bytes.Equal(res.Data, content[falseEOF:falseEOF+unit/2]) {
			t.Fatalf("k=%d: after soft-state loss: status %v, EOF %v, %d bytes", replication, res.Status, res.EOF, len(res.Data))
		}
		// A data server's EOF cannot be corrected without the size, so it
		// makes the µproxy fetch the attributes — which are the file's,
		// and say this is not the end.
		check("false EOF after loss", falseEOF, unit, false)
		if ok, sz := e.Proxy.CachedAttr(fh); !ok || sz != size {
			t.Fatalf("k=%d: attributes not re-learned after soft-state loss: cached=%v size=%d", replication, ok, sz)
		}
		e.Close()
	}
}

// TestReadReplyPatchKeepsTrailerLookalike: READ data that ends like the
// trace trailer replies once carried — in its magic, "SLICTRAC" — reaches
// the client unchanged through the in-place patch, whether the data
// servers are observed (and write their time into the reply header) or
// not.
func TestReadReplyPatchKeepsTrailerLookalike(t *testing.T) {
	const unit = 32 << 10
	const size = 64<<10 + 4*unit
	magic := []byte("SLICTRAC")

	for _, observed := range []bool{true, false} {
		content := make([]byte, size)
		for i := range content {
			content[i] = byte(i*7 + i>>11)
		}
		e := newEnsemble(t, nil)
		if !observed {
			for _, n := range e.Storage {
				n.SetObs(nil)
			}
		}
		c, err := e.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fh, _, err := c.Create(c.Root(), "lookalike", 0o644, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WriteFile(fh, content); err != nil {
			t.Fatal(err)
		}
		if _, err := c.GetAttr(fh); err != nil { // the patch needs cached attributes
			t.Fatal(err)
		}
		// The lookalike goes into the stores directly, at the end of every
		// stripe unit, so only the read path is under test. An object is
		// sparse, addressed by file offset: the units a node does not hold
		// are holes in it.
		obj, stamped := storage.ObjectOf(fh), 0
		for _, n := range e.Storage {
			sz, _ := n.Store().Size(obj)
			for end := int64(unit); end <= sz; end += unit {
				local := make([]byte, unit)
				if _, _, err := n.Store().ReadAt(obj, end-unit, local); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(local, content[end-unit:end]) {
					continue
				}
				if err := n.Store().WriteAt(obj, end-int64(len(magic)), magic, true); err != nil {
					t.Fatal(err)
				}
				stamped++
			}
		}
		for end := 64<<10 + unit; end <= size; end += unit {
			copy(content[end-len(magic):], magic)
		}
		if stamped != 4 {
			t.Fatalf("stamped %d stripe units, want 4", stamped)
		}

		r := newRawReader(t, e)
		for off := uint64(64 << 10); off < size; off += unit {
			res := r.checkCanonical(r.read(fh, off, unit))
			if res.Status != nfsproto.OK || !res.Attr.Present || res.Attr.Attr.Size != size ||
				!bytes.Equal(res.Data, content[off:off+unit]) {
				t.Fatalf("observed=%v: read at %d: status %v, attr %+v, %d bytes", observed, off, res.Status, res.Attr, len(res.Data))
			}
			if !bytes.HasSuffix(res.Data, magic) {
				t.Fatalf("observed=%v: read at %d does not end in the lookalike", observed, off)
			}
		}
		e.Close()
	}
}

// TestNameRepliesPatchedFromTheCache: what the directory servers really
// answer MKDIR, CREATE, LOOKUP and GETATTR with — their time in the reply
// header or, unobserved, 0 — reaches the client as the virtual server's reply,
// canonical to the byte, and carrying the µproxy's attributes where they
// are fresher: the size of a file grown through the µproxy, which its
// directory server still believes empty.
func TestNameRepliesPatchedFromTheCache(t *testing.T) {
	for _, observed := range []bool{true, false} {
		e := newEnsemble(t, nil)
		if !observed {
			for _, d := range e.Dirs {
				d.SetObs(nil)
			}
		}
		c, err := e.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		r := newRawReader(t, e)

		var made nfsproto.CreateRes
		r.canonical(r.call(nfsproto.ProcMkdir, &nfsproto.CreateArgs{Dir: c.Root(), Name: "d"}), &made)
		if made.Status != nfsproto.OK || !made.Attr.Present || made.Attr.Attr.Type != attr.TypeDir {
			t.Fatalf("observed=%v: MKDIR: %+v", observed, made)
		}
		r.canonical(r.call(nfsproto.ProcCreate, &nfsproto.CreateArgs{Dir: made.FH, Name: "f"}), &made)
		if made.Status != nfsproto.OK || !made.Attr.Present || made.Attr.Attr.Type != attr.TypeReg || made.Attr.Attr.Size != 0 {
			t.Fatalf("observed=%v: CREATE: %+v", observed, made)
		}
		fh := made.FH
		const size = 100 << 10
		if err := c.WriteFile(fh, make([]byte, size)); err != nil {
			t.Fatal(err)
		}

		var found nfsproto.LookupRes
		dir, _, err := c.Lookup(c.Root(), "d")
		if err != nil {
			t.Fatal(err)
		}
		r.canonical(r.call(nfsproto.ProcLookup, &nfsproto.LookupArgs{Dir: dir, Name: "f"}), &found)
		if found.Status != nfsproto.OK || found.FH != fh || !found.Attr.Present || found.Attr.Attr.Size != size {
			t.Fatalf("observed=%v: LOOKUP: %+v, want the %d bytes written through the µproxy", observed, found, size)
		}
		var got nfsproto.GetAttrRes
		r.canonical(r.call(nfsproto.ProcGetAttr, &nfsproto.GetAttrArgs{FH: fh}), &got)
		if got.Status != nfsproto.OK || got.Attr.Size != size || got.Attr.FileID != fh.FileID {
			t.Fatalf("observed=%v: GETATTR: %+v", observed, got)
		}
		e.Close()
	}
}
