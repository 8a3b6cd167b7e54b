package oncrpc

import (
	"sync"
	"testing"
	"time"

	"slice/internal/netsim"
	"slice/internal/xdr"
)

// TestConcurrentCallsMatchReplies: many calls in flight on one client at
// once, each from its own goroutine, on a clean network: every result is
// matched to its own arguments.
func TestConcurrentCallsMatchReplies(t *testing.T) {
	cli, _ := newPair(t, netsim.Config{}, echoHandler, ClientConfig{})
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(v uint32) {
			defer wg.Done()
			body, err := cli.Call(7, 1, 3, func(e *xdr.Encoder) { e.PutUint32(v) })
			if err != nil {
				t.Errorf("call %d: %v", v, err)
				return
			}
			got, err := xdr.NewDecoder(body).Uint32()
			if err != nil || got != v {
				t.Errorf("call %d echoed %d, %v", v, got, err)
			}
		}(uint32(i))
	}
	wg.Wait()
}

// TestConcurrentCallsUnderFaults drives concurrent windows of calls from
// several goroutines through a link injected with loss, duplication, and
// reordering in both directions, and asserts reply matching never
// cross-wires two in-flight calls: every reply body must carry the exact
// (caller, sequence) pair its call sent. Run under -race this also
// checks the sharded pending map for data races.
func TestConcurrentCallsUnderFaults(t *testing.T) {
	n := netsim.New(netsim.Config{Seed: 7})
	sp, err := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sp, echoHandler)
	cp, err := n.Bind(netsim.Addr{Host: 1, Port: 100})
	if err != nil {
		t.Fatal(err)
	}
	// An attempt is lost when its call or its reply is dropped:
	// p = 1 − 0.85² ≈ 0.278 (duplication and reordering only help). A run
	// makes 8 × 16 × 12 = 1 536 calls, so with 8 attempts it failed with
	// probability ≈ 1 536 · p⁸ ≈ 5.4 %. With 17, a call fails with
	// p¹⁷ ≈ 3.4 · 10⁻¹⁰ and a run with ≈ 5 · 10⁻⁷. The extra attempts wait
	// at most the capped ladder — 20 ms doubling to 2 s, 22.5 s in all
	// (24.8 s with jitter) — and are reached only by calls the old ladder
	// failed.
	cli := NewClient(cp, srv.Addr(), ClientConfig{
		Timeout: 20 * time.Millisecond,
		Retries: 17,
	})
	t.Cleanup(func() { cli.Close(); srv.Close() })
	fault := netsim.LinkFault{
		Drop:          0.15,
		Duplicate:     0.15,
		Reorder:       0.3,
		ReorderWindow: 4 * time.Millisecond,
	}
	n.SetLinkFault(1, 2, fault)
	n.SetLinkFault(2, 1, fault)

	const (
		callers = 8
		window  = 16
		rounds  = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, callers*window)
	for caller := 0; caller < callers; caller++ {
		wg.Add(1)
		go func(caller uint32) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// One round is a window of calls in flight together, each
				// on its own goroutine; the next round starts when every
				// call of this one has its reply.
				var round sync.WaitGroup
				failed := make(chan struct{}, window)
				for i := 0; i < window; i++ {
					a, b := caller, uint32(r*window+i)
					round.Add(1)
					go func() {
						defer round.Done()
						body, err := cli.Call(7, 1, 3, func(e *xdr.Encoder) {
							e.PutUint32(a)
							e.PutUint32(b)
						})
						if err != nil {
							errs <- err
							failed <- struct{}{}
							return
						}
						d := xdr.NewDecoder(body)
						ga, _ := d.Uint32()
						gb, err := d.Uint32()
						if err != nil || ga != a || gb != b {
							t.Errorf("cross-wired reply: sent (%d,%d) got (%d,%d) err=%v", a, b, ga, gb, err)
							failed <- struct{}{}
						}
					}()
				}
				round.Wait()
				if len(failed) > 0 {
					return
				}
			}
		}(uint32(caller))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("call failed under faults: %v", err)
	}
}

// TestAsyncCallsAfterClose verifies that calls started concurrently on a
// closed client all fail fast instead of waiting out their retransmission
// timers: the client's timeout is far longer than the test allows.
func TestAsyncCallsAfterClose(t *testing.T) {
	cli, _ := newPair(t, netsim.Config{}, echoHandler, ClientConfig{
		Timeout: time.Minute,
		Retries: 4,
	})
	cli.Close()
	const n = 16
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := cli.Call(7, 1, 3, nil)
			errs <- err
		}()
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("call after Close succeeded")
			}
		case <-deadline:
			t.Fatalf("%d of %d calls after Close still blocked", n-i, n)
		}
	}
}
