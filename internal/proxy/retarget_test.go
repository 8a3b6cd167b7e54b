package proxy_test

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

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
