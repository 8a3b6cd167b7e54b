package proxy_test

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"slice/internal/attr"
	"slice/internal/ensemble"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/proxy"
	"slice/internal/xdr"
)

// inlineReply sends call from raw to the virtual server and returns the
// reply body, which must already be queued at raw when the send returns:
// the µproxy ran the whole operation, its own RPCs included, on the
// sender's goroutine.
func inlineReply(t *testing.T, e *ensemble.Ensemble, raw *netsim.Port, xid uint32, call []byte) oncrpc.Reply {
	t.Helper()
	if err := raw.SendTo(e.Virtual, call); err != nil {
		t.Fatal(err)
	}
	d, ok := raw.TryRecv()
	if !ok {
		t.Fatal("no reply queued when the call's send returned")
	}
	rep, err := oncrpc.ParseReply(netsim.Payload(d))
	if err != nil || rep.Xid != xid {
		t.Fatalf("reply %+v, %v", rep, err)
	}
	rep.Body = append([]byte(nil), rep.Body...)
	netsim.FreeBuf(d)
	return rep
}

// TestOrchestrationsRunInline: a COMMIT, a truncating SETATTR, a REMOVE and
// a stats call are each answered by the time the client's send returns,
// and a dirty attribute entry pushed out of the cache reaches its
// directory server by the time the insert that evicted it returns. None of
// them leaves a goroutine behind.
func TestOrchestrationsRunInline(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) { cfg.DirServers = 1 })
	dir := newDirReader(t, e)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("i"), 200<<10) // small-file prefix and storage stripes
	files := map[string]fhandle.Handle{}
	for _, name := range []string{"commit", "truncate", "victim", "evicted"} {
		fh, _, err := c.Create(c.Root(), name, 0o644, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(fh, 0, data, false); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(fh); err != nil {
			t.Fatal(err)
		}
		files[name] = fh
	}
	root := c.Root()
	c.Close() // its chunk workers go before the count
	raw, err := e.Net.BindAny(ensemble.HostClient0 + 50)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	nfs := func(proc nfsproto.Proc, args nfsproto.Msg) func(uint32) []byte {
		return func(xid uint32) []byte {
			return oncrpc.EncodeCall(xid, nfsproto.Program, nfsproto.Version, uint32(proc), args.Encode)
		}
	}
	cases := []struct {
		name string
		call func(xid uint32) []byte
		nfs  bool
	}{
		{"commit", nfs(nfsproto.ProcCommit, &nfsproto.CommitArgs{FH: files["commit"]}), true},
		{"truncate", nfs(nfsproto.ProcSetAttr, &nfsproto.SetAttrArgs{FH: files["truncate"],
			Sattr: attr.SetAttr{SetSize: true, Size: 1}}), true},
		{"remove", nfs(nfsproto.ProcRemove, &nfsproto.RemoveArgs{Dir: root, Name: "victim"}), true},
		{"stats", func(xid uint32) []byte {
			return oncrpc.EncodeCall(xid, obs.Program, obs.Version, obs.ProcTraces, func(enc *xdr.Encoder) { enc.PutUint32(0) })
		}, false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			xid := uint32(0x7000 + i)
			rep := inlineReply(t, e, raw, xid, tc.call(xid))
			if rep.Accept != oncrpc.AcceptSuccess {
				t.Fatalf("accept status %d", rep.Accept)
			}
			if tc.nfs {
				if st, err := xdr.NewDecoder(rep.Body).Uint32(); err != nil || nfsproto.Status(st) != nfsproto.OK {
					t.Fatalf("status %d, %v", st, err)
				}
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Fatalf("%d goroutines after the call, %d before", got, before)
			}
		})
	}

	t.Run("eviction", func(t *testing.T) {
		fh := files["evicted"]
		if got := dirSize(t, dir, fh); got != 0 {
			t.Fatalf("the directory server has size %d before the eviction", got)
		}
		before := runtime.NumGoroutine()
		// Entries of the same shard, each newer than fh's, push it out.
		for _, mate := range proxy.ShardMates(fh, proxy.AttrShardCap) {
			e.Proxy.ObserveAttr(mate, attr.Attr{Type: attr.TypeReg, Nlink: 1})
		}
		if got := dirSize(t, dir, fh); got != uint64(len(data)) {
			t.Fatalf("the directory server has size %d after the eviction returned, want %d", got, len(data))
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Fatalf("%d goroutines after the eviction, %d before", got, before)
		}
	})
}

// TestCloseWaitsForOrchestration: Close, called while a COMMIT's intention
// is held on its way to the coordinator, waits for the chain: it returns
// only after the client has its reply, and leaves no goroutine behind.
func TestCloseWaitsForOrchestration(t *testing.T) {
	e := newEnsemble(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	fh, _, err := c.Create(c.Root(), "held", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fh, 0, []byte("held"), false); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(fh); err != nil {
		t.Fatal(err)
	}
	c.Close()
	raw, err := e.Net.BindAny(ensemble.HostClient0 + 50)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	// Taps run after the µproxy's: this one holds the first call to the
	// coordinator — the COMMIT's intention — on its sender's goroutine.
	coordAddr := e.Coord.Addr()
	held, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	tok := e.Net.AddTap(netsim.TapFunc(func(d []byte) netsim.Verdict {
		if h, err := netsim.ParseHeader(d); err == nil && h.Dst == coordAddr && first.CompareAndSwap(false, true) {
			close(held)
			<-release
		}
		return netsim.Pass
	}))
	defer e.Net.RemoveTap(tok)

	before := runtime.NumGoroutine()
	const xid = 0x7100
	sent := make(chan error, 1)
	go func() {
		args := nfsproto.CommitArgs{FH: fh}
		sent <- raw.SendTo(e.Virtual, oncrpc.EncodeCall(xid, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcCommit), args.Encode))
	}()
	<-held
	closed := make(chan bool, 1)
	go func() {
		e.Proxy.Close()
		_, replied := raw.TryRecv()
		closed <- replied
	}()
	for !e.Proxy.Closing() {
		runtime.Gosched()
	}
	select {
	case <-closed:
		t.Fatal("Close returned while the COMMIT's chain was held")
	default:
	}
	close(release)
	select {
	case replied := <-closed:
		if !replied {
			t.Fatal("Close returned before the COMMIT was answered")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the chain was released")
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	// The test's own two goroutines exit just after their last send.
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); got > before && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	if got > before {
		t.Fatalf("%d goroutines after Close, %d before", got, before)
	}
}
