package ensemble

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"slice/internal/attr"
	"slice/internal/coord"
	"slice/internal/dirsrv"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/server"
	"slice/internal/smallfile"
	"slice/internal/storage"
	"slice/internal/wal"
	"slice/internal/xdr"
)

// TestDataServersServeInline: a storage node and a small-file server serve
// each call on the goroutine that sends it — the reply is queued at the
// caller's port by the time the send returns — and start no goroutine.
func TestDataServersServeInline(t *testing.T) {
	testServesInline(t, []inlineCase{
		{"storage", 0, oncrpc.AcceptSuccess, func(_ *netsim.Network, p *netsim.Port) func() {
			return storage.NewNode(p, storage.NewObjectStore()).Close
		}},
		{"smallfile", 0, oncrpc.AcceptSuccess, func(_ *netsim.Network, p *netsim.Port) func() {
			return smallfile.NewServer(p, smallfile.NewStore(storage.NewObjectStore(), 1, nil)).Close
		}},
	})
}

// TestNameServersServeInline: so do a directory server, the coordinator
// and the monolithic baseline server. The coordinator starts its probe
// loop and nothing else.
func TestNameServersServeInline(t *testing.T) {
	journal := func(t *testing.T) *wal.Log {
		log, err := wal.Open(wal.NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	testServesInline(t, []inlineCase{
		{"dirsrv", 0, oncrpc.AcceptSuccess, func(n *netsim.Network, p *netsim.Port) func() {
			return dirsrv.New(p, dirsrv.Config{Site: 0, Volume: 1, Kind: route.MkdirSwitching,
				Table: route.NewTable(1, []netsim.Addr{p.Addr()}), Log: journal(t), Net: n, Host: 2}).Close
		}},
		{"coord", 1, oncrpc.AcceptProgUnavail, func(n *netsim.Network, p *netsim.Port) func() {
			return coord.New(p, coord.Config{Log: journal(t), Net: n, Host: 2}).Close
		}},
		{"server", 0, oncrpc.AcceptSuccess, func(_ *netsim.Network, p *netsim.Port) func() {
			return server.New(p, 1, func() attr.Time { return attr.Time{} }).Close
		}},
	})
}

// inlineCase starts one kind of server on a port; it may start goroutines
// of its own besides serving. accept is the status its reply to an NFS
// NULL call carries: the coordinator serves a program of its own and
// rejects the NFS program.
type inlineCase struct {
	name   string
	own    int
	accept uint32
	start  func(*netsim.Network, *netsim.Port) (close func())
}

func testServesInline(t *testing.T, cases []inlineCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := netsim.New(netsim.Config{})
			before := runtime.NumGoroutine()
			sp, err := n.BindAny(2)
			if err != nil {
				t.Fatal(err)
			}
			stop := tc.start(n, sp)
			defer stop()
			cp, err := n.BindAny(1)
			if err != nil {
				t.Fatal(err)
			}
			defer cp.Close()
			call := oncrpc.EncodeCall(7, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcNull), nil)
			if err := cp.SendTo(sp.Addr(), call); err != nil {
				t.Fatal(err)
			}
			d, ok := cp.TryRecv()
			if !ok {
				t.Fatal("no reply queued when the call's send returned")
			}
			if rep, err := oncrpc.ParseReply(netsim.Payload(d)); err != nil || rep.Xid != 7 || rep.Accept != tc.accept {
				t.Fatalf("reply %+v, %v", rep, err)
			}
			netsim.FreeBuf(d)
			if got := runtime.NumGoroutine(); got > before+tc.own {
				t.Fatalf("%d goroutines after the server started and served, %d before", got, before)
			}
		})
	}
}

// TestReplicatedWriteAckedOnceInline: over a 3-way replicated group each
// member serves its copy of a WRITE on the goroutine that injects it, so
// two of the three replies reach the µproxy inside its fan-out loop,
// before it has injected the last copy. The client is acknowledged exactly
// once, when the last member has replied — by the time its own send
// returns — and every member holds the bytes. A retransmission, which finds
// no pending record, is fanned out again, answered from each member's
// duplicate-request cache, and acknowledged exactly once too.
func TestReplicatedWriteAckedOnceInline(t *testing.T) {
	e := newReplicated(t, func(cfg *Config) { cfg.StorageNodes, cfg.Replication = 3, 3 })
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Create(c.Root(), "inline.dat", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := e.Net.BindAny(HostClient0 + 50)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	data := make([]byte, 32<<10)
	for i := range data {
		data[i] = byte(i*11 + i>>7)
	}
	args := nfsproto.WriteArgs{FH: fh, Count: uint32(len(data)), Stable: nfsproto.Unstable, Data: data}
	call := oncrpc.EncodeCall(0x5eed, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcWrite), args.Encode)
	writes := func() (n uint64) {
		for _, sn := range e.Storage {
			n += sn.Store().Stats().Writes
		}
		return n
	}

	for attempt := 1; attempt <= 2; attempt++ {
		if err := raw.SendTo(e.Virtual, call); err != nil {
			t.Fatal(err)
		}
		var replies int
		for {
			d, ok := raw.TryRecv()
			if !ok {
				break
			}
			replies++
			rep, err := oncrpc.ParseReply(netsim.Payload(d))
			if err != nil || rep.Xid != 0x5eed || rep.Accept != oncrpc.AcceptSuccess {
				t.Fatalf("attempt %d: reply %+v, %v", attempt, rep, err)
			}
			var res nfsproto.WriteRes
			if err := res.Decode(xdr.NewDecoder(rep.Body)); err != nil || res.Status != nfsproto.OK || res.Count != uint32(len(data)) {
				t.Fatalf("attempt %d: write result %+v, %v", attempt, res, err)
			}
			netsim.FreeBuf(d)
		}
		if replies != 1 {
			t.Fatalf("attempt %d: the client was acknowledged %d times, want once", attempt, replies)
		}
		if got := writes(); got != 3 {
			t.Fatalf("attempt %d: the members executed %d writes in all, want 3", attempt, got)
		}
		if n := e.Proxy.DirtyLen(); n != 0 {
			t.Fatalf("attempt %d: %d objects still dirty after the acknowledgement", attempt, n)
		}
	}
	id := storage.ObjectOf(fh)
	for i, sn := range e.Storage {
		got := make([]byte, len(data))
		if n, _, err := sn.Store().ReadAt(id, 0, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
			t.Fatalf("member %d holds %d bytes (%v), or not the ones written", i, n, err)
		}
	}
}

// TestCrashWhileHandlerWaitsOnDeadPeer: a directory server whose handler
// is waiting on a peer that has crashed — an orphan MKDIR installing its
// name entry at the dead parent's site — is crashed in turn. The handler
// runs on the goroutine of the call's sender, and Crash waits for it, so
// Crash returns once the peer call has given up: within the peer client's
// retransmission ladder (5 attempts from 50 ms, 1.71 s with jitter), never
// later.
func TestCrashWhileHandlerWaitsOnDeadPeer(t *testing.T) {
	const ladder = 1705 * time.Millisecond
	e := newTest(t, func(cfg *Config) {
		cfg.MkdirP = 1
		cfg.ClientRPC = oncrpc.ClientConfig{Timeout: 20 * time.Millisecond, Retries: 2}
	})
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root := c.Root()
	parentSite := int(root.Site) % len(e.Dirs)
	orphanSite := 1 - parentSite
	name := ""
	for i := 0; name == ""; i++ {
		if i == 64 {
			t.Fatal("no name places its directory off the root's site")
		}
		n := fmt.Sprintf("orphan%d", i)
		info := nfsproto.RequestInfo{Proc: nfsproto.ProcMkdir, FH: root, Name: n, HasName: true}
		if a, err := e.NamePolicy.AddrFor(&info); err == nil && a == e.Dirs[orphanSite].Addr() {
			name = n
		}
	}

	if err := e.Chaos().Crash(RoleDir, parentSite); err != nil {
		t.Fatal(err)
	}
	orphan := e.Dirs[orphanSite]
	peerCalls := orphan.Counters().PeerCalls
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Mkdir(root, name, 0o755)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); orphan.Counters().PeerCalls == peerCalls; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the orphan's site never called the parent's")
		}
	}
	start := time.Now()
	if err := e.Chaos().Crash(RoleDir, orphanSite); err != nil {
		t.Fatal(err)
	}
	// A second of slack for a loaded machine's timers.
	took := time.Since(start)
	if took > ladder+time.Second {
		t.Fatalf("Crash took %v with a handler waiting on a dead peer; the peer ladder is %v", took, ladder)
	}
	t.Logf("Crash returned after %v", took)
	if err := <-done; err == nil {
		t.Fatal("MKDIR succeeded with both directory servers down")
	}
}
