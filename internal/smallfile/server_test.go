package smallfile

import (
	"testing"

	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

// TestServerReadReply: the small-file server answers READ in the layout
// the µproxy patches in place — data behind a placeholder attribute
// block — and a store failure, discovered only after the header was
// encoded, rewinds the reply to a bare error status.
func TestServerReadReply(t *testing.T) {
	store, _ := newStore(t)
	n := netsim.New(netsim.Config{})
	sp, err := n.Bind(netsim.Addr{Host: 50, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sp, store)
	defer srv.Close()
	cp, err := n.BindAny(200)
	if err != nil {
		t.Fatal(err)
	}
	cli := oncrpc.NewClient(cp, srv.Addr(), oncrpc.ClientConfig{})
	defer cli.Close()

	if err := store.Write(fh(3), 0, []byte("small file"), true); err != nil {
		t.Fatal(err)
	}
	read := func(off uint64, count uint32) ([]byte, nfsproto.ReadRes) {
		t.Helper()
		args := nfsproto.ReadArgs{FH: fh(3), Offset: off, Count: count}
		body, err := cli.Call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcRead), args.Encode)
		if err != nil {
			t.Fatal(err)
		}
		var res nfsproto.ReadRes
		if err := res.Decode(xdr.NewDecoder(body)); err != nil {
			t.Fatal(err)
		}
		return body, res
	}
	body, res := read(6, 4096)
	if res.Status != nfsproto.OK || string(res.Data) != "file" || res.Count != 4 || !res.EOF {
		t.Fatalf("read %+v", res)
	}
	if a := res.Attr.Attr; !res.Attr.Present || a.Size != 10 || a.FileID != 3 {
		t.Fatalf("placeholder attributes %+v", res.Attr)
	}
	if _, ok := nfsproto.PeekReadRes(body); !ok {
		t.Fatal("reply lacks the patchable layout")
	}
	// An offset past int64 is one the store refuses.
	body, res = read(1<<63, 16)
	if res.Status != nfsproto.ErrIO || res.Attr.Present || len(res.Data) != 0 {
		t.Fatalf("failed read %+v", res)
	}
	if len(body) != 8 {
		t.Fatalf("failed read left %d bytes of the abandoned reply behind", len(body)-8)
	}
}
