package ensemble

import (
	"bytes"
	"runtime"
	"testing"

	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/smallfile"
	"slice/internal/storage"
	"slice/internal/xdr"
)

// serverWorkers counts the goroutines running an oncrpc server worker.
func serverWorkers() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return bytes.Count(buf[:n], []byte("oncrpc.(*Server).worker("))
}

// TestDataServersServeInline: a storage node and a small-file server serve
// each call on the goroutine that sends it — the reply is queued at the
// caller's port by the time the send returns — and neither leaves a
// goroutine parked in Recv.
func TestDataServersServeInline(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(*netsim.Port) (close func())
	}{
		{"storage", func(p *netsim.Port) func() { return storage.NewNode(p, storage.NewObjectStore()).Close }},
		{"smallfile", func(p *netsim.Port) func() {
			return smallfile.NewServer(p, smallfile.NewStore(storage.NewObjectStore(), 1, nil)).Close
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := netsim.New(netsim.Config{})
			before := serverWorkers()
			sp, err := n.BindAny(2)
			if err != nil {
				t.Fatal(err)
			}
			stop := tc.start(sp)
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
			if rep, err := oncrpc.ParseReply(netsim.Payload(d)); err != nil || rep.Xid != 7 || rep.Accept != oncrpc.AcceptSuccess {
				t.Fatalf("reply %+v, %v", rep, err)
			}
			netsim.FreeBuf(d)
			if got := serverWorkers(); got > before {
				t.Fatalf("%d server workers after the data server served, %d before", got, before)
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
