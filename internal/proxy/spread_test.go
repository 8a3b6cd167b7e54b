package proxy_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/oncrpc"
	"slice/internal/route"
)

// spreadFile builds a k-way replicated ensemble of one group with the
// tap in front of the µproxy, and writes and commits a 1 MiB file through
// a serial client, so the file's reads spread over the group.
func spreadFile(t *testing.T, k int, rpc oncrpc.ClientConfig, tap netsim.TapFunc) (*ensemble.Ensemble, *client.Client, fhandle.Handle, []byte) {
	t.Helper()
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.StorageNodes, cfg.Replication = k, k
		cfg.SmallFileServers, cfg.DirServers = 0, 1
		cfg.ClientRPC = rpc
	})
	tapAhead(t, e, tap)
	c, err := e.NewSerialClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fh, _, err := c.Create(c.Root(), "spread", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(1<<20, 5)
	if err := c.WriteFile(fh, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(fh); err != nil {
		t.Fatal(err)
	}
	if n := e.Proxy.DirtyLen(); n != 0 {
		t.Fatalf("dirty set holds %d entries after a commit", n)
	}
	return e, c, fh, data
}

// TestStalledReadSteersNothing: read spreading keeps no state but the
// dirty set, so one read whose reply is lost — its record waiting on one
// member — changes where no other read goes. Client A's storage replies
// are dropped while client B makes 256 serial reads of the same clean
// object; the busiest member of the k = 2 group must serve at most 0.625
// of them, as it does with no read stalled.
func TestStalledReadSteersNothing(t *testing.T) {
	const (
		reads = 256
		unit  = route.DefaultStripeUnit
	)
	var (
		armed, counting atomic.Bool
		victim          atomic.Uint64 // 1 + the stalled client's host
		mu              sync.Mutex
		served          = map[uint32]int{}
	)
	stalled := make(chan struct{})
	e, a, fh, data := spreadFile(t, 2, oncrpc.ClientConfig{Timeout: 200 * time.Millisecond, Retries: 10},
		func(d []byte) netsim.Verdict {
			if _, ok := storageReply(d); !ok {
				return netsim.Pass
			}
			h, _ := netsim.ParseHeader(d)
			if armed.Load() {
				if victim.CompareAndSwap(0, uint64(h.Dst.Host)+1) {
					close(stalled)
				}
				if victim.Load() == uint64(h.Dst.Host)+1 {
					return netsim.Drop
				}
			}
			if counting.Load() {
				mu.Lock()
				served[h.Src.Host]++
				mu.Unlock()
			}
			return netsim.Pass
		})
	b, err := e.NewSerialClient()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	armed.Store(true)
	defer armed.Store(false) // a failed test must not leave A's retries dropped
	done := make(chan error, 1)
	go func() {
		got := make([]byte, unit)
		n, _, err := a.Read(fh, 0, got)
		if err == nil && (n != unit || !bytes.Equal(got, data[:unit])) {
			err = fmt.Errorf("%d bytes, or they differ", n)
		}
		done <- err
	}()
	<-stalled

	counting.Store(true)
	got := make([]byte, unit)
	for i := 0; i < reads; i++ {
		off := i * unit % len(data)
		if n, _, err := b.Read(fh, uint64(off), got); err != nil || n != unit || !bytes.Equal(got, data[off:off+unit]) {
			t.Fatalf("read %d at %d: n=%d err=%v, or the bytes differ", i, off, n, err)
		}
	}
	counting.Store(false)
	armed.Store(false)
	if err := <-done; err != nil {
		t.Fatalf("the stalled read, retransmitted: %v", err)
	}

	total, most := 0, 0
	for _, n := range served {
		total += n
		most = max(most, n)
	}
	if total != reads {
		t.Fatalf("the group served %d of client B's reads, want %d", total, reads)
	}
	if share := float64(most) / reads; share > 0.625 {
		t.Errorf("with one read stalled, the busiest member served %.3f of the others' reads (%v), want at most 0.625",
			share, served)
	}
	quiescent(t, e)
}

// TestRetransmittedReadGoesToNextMember: a spread read whose reply from
// member X was lost is retransmitted to another member of the group, so a
// member that stopped answering without being marked down costs a read
// one retransmission, not all of them.
func TestRetransmittedReadGoesToNextMember(t *testing.T) {
	const unit = route.DefaultStripeUnit
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			var (
				armed    atomic.Bool
				lost     atomic.Int32 // 1 + the member whose reply was dropped
				answered atomic.Int32 // 1 + the member that answered after it
			)
			e, c, fh, data := spreadFile(t, k, oncrpc.ClientConfig{Timeout: 20 * time.Millisecond, Retries: 5},
				func(d []byte) netsim.Verdict {
					i, ok := storageReply(d)
					if !ok || !armed.Load() {
						return netsim.Pass
					}
					if lost.CompareAndSwap(0, int32(i)+1) {
						return netsim.Drop
					}
					answered.CompareAndSwap(0, int32(i)+1)
					return netsim.Pass
				})
			got := make([]byte, unit)
			for r := 0; r < 8; r++ {
				lost.Store(0)
				answered.Store(0)
				armed.Store(true)
				off := r * 5 * unit % len(data)
				if n, _, err := c.Read(fh, uint64(off), got); err != nil || n != unit || !bytes.Equal(got, data[off:off+unit]) {
					t.Fatalf("read %d at %d: n=%d err=%v, or the bytes differ", r, off, n, err)
				}
				armed.Store(false)
				if lost.Load() == 0 || answered.Load() == 0 {
					t.Fatalf("read %d: no reply dropped (%d) or none answered (%d)", r, lost.Load(), answered.Load())
				}
				if answered.Load() == lost.Load() {
					t.Fatalf("read %d: the retransmission went back to member %d, whose reply was lost", r, lost.Load()-1)
				}
			}
			quiescent(t, e)
		})
	}
}
