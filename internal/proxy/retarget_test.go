package proxy_test

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/netsim"
	"slice/internal/oncrpc"
	"slice/internal/storage"
)

// storageReply reports whether d is a storage node's reply, and which
// node sent it.
func storageReply(d []byte) (int, bool) {
	h, err := netsim.ParseHeader(d)
	if err != nil || binary.BigEndian.Uint32(netsim.Payload(d)[oncrpc.OffMsgType:]) != oncrpc.MsgReply {
		return 0, false
	}
	i := int(h.Src.Host) - ensemble.HostStorage0
	return i, i >= 0 && i < 8
}

// TestRetargetedWriteRearms: a WRITE retransmitted after a routing change
// is re-forwarded along the new path, and its pending record must await
// a reply from each target of that path — not the count left over from
// the old one.
//
// Shrink: a k = 3 group loses the member whose reply was lost. The two
// survivors already replied once; the retransmission reaches them again,
// and their replayed replies must complete the record rather than be
// discarded as repeats.
//
// Grow: a topology transition's Begin widens the write from one node to
// two. The client must not be acknowledged until the node the write now
// also goes to has applied it.
func TestRetargetedWriteRearms(t *testing.T) {
	const unit = 32 << 10
	rpc := oncrpc.ClientConfig{Timeout: 20 * time.Millisecond, Retries: 6}
	t.Run("shrink", func(t *testing.T) {
		e := newEnsemble(t, func(cfg *ensemble.Config) {
			cfg.StorageNodes, cfg.Replication = 3, 3
			cfg.SmallFileServers, cfg.DirServers = 0, 1
			cfg.ClientRPC = rpc
		})
		var armed atomic.Bool
		lost := make(chan struct{}, 1)
		tapAhead(t, e, func(d []byte) netsim.Verdict {
			if i, ok := storageReply(d); ok && i == 2 && armed.Load() {
				select {
				case lost <- struct{}{}:
				default:
				}
				return netsim.Drop
			}
			return netsim.Pass
		})
		c, err := e.NewSerialClient()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fh, _, err := c.Create(c.Root(), "shrunk", 0o644, true)
		if err != nil {
			t.Fatal(err)
		}
		armed.Store(true)
		done := make(chan error, 1)
		go func() {
			_, err := c.Write(fh, 0, pattern(unit, 1), true)
			done <- err
		}()
		<-lost
		e.Chaos().KillReplica(2)
		if err := <-done; err != nil {
			t.Fatalf("write retransmitted to the survivors: %v", err)
		}
		for i := 0; i < 2; i++ {
			if size, ok := e.Storage[i].Store().Size(storage.ObjectOf(fh)); !ok || size != unit {
				t.Fatalf("survivor %d holds %d bytes (ok %v), want %d", i, size, ok, unit)
			}
		}
		quiescent(t, e)
	})
	t.Run("grow", func(t *testing.T) {
		e := newEnsemble(t, func(cfg *ensemble.Config) {
			cfg.StorageNodes = 2
			cfg.SmallFileServers, cfg.DirServers = 0, 1
			cfg.ClientRPC = rpc
		})
		// Before Begin every storage reply is lost, and the node that sent
		// the first is the write's one target. After Begin the first reply
		// of the other node, the one the write now also goes to, is lost
		// too, and the tap counts those it lets through.
		var begun, dropOnce atomic.Bool
		var first, heard atomic.Int32
		first.Store(-1)
		dropOnce.Store(true)
		lost := make(chan struct{}, 1)
		tapAhead(t, e, func(d []byte) netsim.Verdict {
			i, ok := storageReply(d)
			switch {
			case !ok:
			case !begun.Load():
				first.CompareAndSwap(-1, int32(i))
				select {
				case lost <- struct{}{}:
				default:
				}
				return netsim.Drop
			case int32(i) != first.Load():
				if dropOnce.CompareAndSwap(true, false) {
					return netsim.Drop
				}
				heard.Add(1)
			}
			return netsim.Pass
		})
		c, err := e.NewSerialClient()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fh, _, err := c.Create(c.Root(), "grown", 0o644, true)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := c.Write(fh, 0, pattern(unit, 2), true)
			done <- err
		}()
		<-lost
		phys := e.StorageTable.Physical()
		next := make([]netsim.Addr, len(phys))
		for i, a := range phys {
			next[i] = e.Storage[1-int(a.Host-ensemble.HostStorage0)].Addr()
		}
		epoch, err := e.StorageTable.Begin(next, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.StorageTable.Abort(epoch)
		begun.Store(true)
		if err := <-done; err != nil {
			t.Fatalf("write retransmitted across Begin: %v", err)
		}
		if dropOnce.Load() || heard.Load() == 0 {
			t.Fatal("the client was acknowledged before the write's new target replied")
		}
		other := 1 - int(first.Load())
		if size, ok := e.Storage[other].Store().Size(storage.ObjectOf(fh)); !ok || size != unit {
			t.Fatalf("the write's new target, node %d, holds %d bytes (ok %v), want %d", other, size, ok, unit)
		}
		quiescent(t, e)
	})
}

// clientAt mounts a serial client on host, so a test can cut or slow the
// links from that host alone.
func clientAt(t *testing.T, e *ensemble.Ensemble, host uint32, rpc oncrpc.ClientConfig) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{
		Net:        e.Net,
		Host:       host,
		Server:     e.Virtual,
		Threshold:  e.IOPolicy.Threshold,
		StripeUnit: e.IOPolicy.StripeUnit,
		RPC:        rpc,
		Window:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Mount(); err != nil {
		t.Fatal(err)
	}
	return c
}

// waitFor polls cond until it holds, failing the test after a few seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRetransmittedWriteRemarksAfterFlush: a flush keeps the record of a
// WRITE in flight but strips its dirty mark. The write's retransmission is
// routed like a call, so it marks the object again, and spread reads pin
// to the primary from then on: no read returns the old contents after one
// returned the new. The group has k = 2 members, and member 1's copy of
// the write is lost until the end.
func TestRetransmittedWriteRemarksAfterFlush(t *testing.T) {
	const unit = 32 << 10
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.StorageNodes, cfg.Replication = 2, 2
		cfg.SmallFileServers, cfg.DirServers = 0, 1
	})
	const writer = ensemble.HostClient0 + 101
	w := clientAt(t, e, writer, oncrpc.ClientConfig{Timeout: 100 * time.Millisecond, Retries: 10})
	r := clientAt(t, e, writer+1, oncrpc.ClientConfig{})
	fh, _, err := w.Create(w.Root(), "remarked", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	obj := storage.ObjectOf(fh)
	member1 := e.Storage[1].Addr().Host
	want := pattern(unit, 3)

	e.Net.PartitionOneWay(writer, member1)
	lost := e.Net.Stats().Faulted
	done := make(chan error, 1)
	go func() {
		_, err := w.Write(fh, 0, want, true)
		done <- err
	}()
	waitFor(t, "the write's first copy to member 1 to be lost", func() bool { return e.Net.Stats().Faulted > lost })
	waitFor(t, "member 0 to apply the write", func() bool {
		size, ok := e.Storage[0].Store().Size(obj)
		return ok && size == unit
	})
	lost = e.Net.Stats().Faulted
	e.Proxy.FlushSoftState()
	waitFor(t, "the retransmission's copy to member 1 to be lost", func() bool { return e.Net.Stats().Faulted > lost })
	if !e.Proxy.ObjectDirty(fh) {
		t.Error("the retransmitted WRITE did not mark its object dirty again")
	}

	got := make([]byte, unit)
	sawNew := false
	for i := 0; i < 40; i++ {
		n, _, err := r.Read(fh, 0, got)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		switch {
		case n == unit && bytes.Equal(got, want):
			sawNew = true
		case n == 0 && sawNew:
			t.Fatalf("read %d returned the old contents after an earlier read returned the new", i)
		case n != 0:
			t.Fatalf("read %d returned %d bytes, neither the old contents nor the new", i, n)
		}
	}

	e.Net.Heal(writer, member1)
	if err := <-done; err != nil {
		t.Fatalf("write after the partition healed: %v", err)
	}
	if size, ok := e.Storage[1].Store().Size(obj); !ok || size != unit {
		t.Fatalf("member 1 holds %d bytes (ok %v), want %d", size, ok, unit)
	}
	quiescent(t, e)
}

// TestReplyFromServerOffPathDropped: a reply counts only from a server on
// its record's current path. A WRITE's first transmission is held on its
// way to node X by fabric latency; a transition's commit then rebinds the
// stripe to node Y, and the client's retransmission is routed there and
// lost. X's reply, released after the retransmission, must not complete
// the record: the write's home is now Y, which has not applied it. The
// µproxy counts it as its one drop.
func TestReplyFromServerOffPathDropped(t *testing.T) {
	const unit = 32 << 10
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.StorageNodes = 2
		cfg.SmallFileServers, cfg.DirServers = 0, 1
	})
	const writer = ensemble.HostClient0 + 101
	c := clientAt(t, e, writer, oncrpc.ClientConfig{Timeout: 50 * time.Millisecond, Retries: 12})
	fh, _, err := c.Create(c.Root(), "moved", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	obj := storage.ObjectOf(fh)
	path, err := e.IOPolicy.WriteTargets(fh, 0)
	if err != nil || len(path) != 1 {
		t.Fatalf("write path %v, %v: want one node", path, err)
	}
	x := int(path[0].Host - ensemble.HostStorage0)
	y := 1 - x
	want := pattern(unit, 4)

	const hold = 400 * time.Millisecond
	e.Net.SetLinkFault(writer, e.Storage[x].Addr().Host, netsim.LinkFault{Latency: hold})
	e.Net.PartitionOneWay(writer, e.Storage[y].Addr().Host)
	requests, dropped, lost := e.Proxy.Stats().Requests, e.Proxy.Stats().Dropped, e.Net.Stats().Faulted
	done := make(chan error, 1)
	go func() {
		_, err := c.Write(fh, 0, want, true)
		done <- err
	}()
	waitFor(t, "the write's first transmission", func() bool { return e.Proxy.Stats().Requests > requests })
	next := e.StorageTable.Physical()
	for i, a := range next {
		next[i] = e.Storage[1-int(a.Host-ensemble.HostStorage0)].Addr()
	}
	epoch, err := e.StorageTable.Begin(next, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !e.StorageTable.Commit(epoch) {
		t.Fatal("the transition did not commit")
	}
	waitFor(t, "the retransmission to node Y to be lost", func() bool { return e.Net.Stats().Faulted > lost })
	waitFor(t, "node X to apply the held first transmission", func() bool {
		size, ok := e.Storage[x].Store().Size(obj)
		return ok && size == unit
	})
	select {
	case err := <-done:
		t.Fatalf("the client was answered (%v) by node X, which the commit took off the write's path, before node Y applied the write", err)
	case <-time.After(100 * time.Millisecond):
	}

	e.Net.Heal(writer, e.Storage[y].Addr().Host)
	e.Net.SetLinkFault(writer, e.Storage[x].Addr().Host, netsim.LinkFault{})
	if err := <-done; err != nil {
		t.Fatalf("write after the partition healed: %v", err)
	}
	if n := e.Proxy.Stats().Dropped - dropped; n != 1 {
		t.Fatalf("the µproxy counted %d drops, want 1: node X's reply", n)
	}
	if size, ok := e.Storage[y].Store().Size(obj); !ok || size != unit {
		t.Fatalf("node Y holds %d bytes (ok %v), want %d", size, ok, unit)
	}
	got, err := c.ReadAll(fh)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes, %v, equal %v", len(got), err, bytes.Equal(got, want))
	}
	quiescent(t, e)
}
