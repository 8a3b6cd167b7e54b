package oncrpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/xdr"
)

func newPair(t *testing.T, netCfg netsim.Config, h Handler, clientCfg ClientConfig) (*Client, *Server) {
	t.Helper()
	n := netsim.New(netCfg)
	sp, err := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sp, h)
	cp, err := n.Bind(netsim.Addr{Host: 1, Port: 100})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cp, srv.Addr(), clientCfg)
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// echoHandler replies with the call body it received.
var echoHandler = HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
	body := append([]byte(nil), call.Body...)
	return func(e *xdr.Encoder) { e.PutFixedOpaque(body) }, AcceptSuccess
})

func TestCallReply(t *testing.T) {
	cli, _ := newPair(t, netsim.Config{}, echoHandler, ClientConfig{})
	body, err := cli.Call(7, 1, 3, func(e *xdr.Encoder) { e.PutUint32(0xC0FFEE) })
	if err != nil {
		t.Fatal(err)
	}
	v, err := xdr.NewDecoder(body).Uint32()
	if err != nil || v != 0xC0FFEE {
		t.Fatalf("echo = %x, %v", v, err)
	}
}

// TestCallBodyEndingInOldTraceMagic: a call's body reaches the handler
// whole whatever its last bytes are — here eight arbitrary bytes and then
// "SLICTRAC", the magic that once marked an optional trace trailer, which
// the server stripped as one and so cut 16 bytes off the arguments.
func TestCallBodyEndingInOldTraceMagic(t *testing.T) {
	cli, _ := newPair(t, netsim.Config{}, echoHandler, ClientConfig{})
	args := append([]byte("file data, then "), 1, 2, 3, 4, 5, 6, 7, 8)
	args = append(args, "SLICTRAC"...)
	body, err := cli.Call(7, 1, 3, func(e *xdr.Encoder) { e.PutFixedOpaque(args) })
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(args) {
		t.Fatalf("the handler saw %d bytes %q, want %d bytes %q", len(body), body, len(args), args)
	}
}

func TestHeaderOffsets(t *testing.T) {
	payload := EncodeCall(42, 100003, 3, 6, func(e *xdr.Encoder) { e.PutUint32(9) })
	d := xdr.NewDecoder(payload)
	xid, _ := d.UintAt(OffXid)
	mt, _ := d.UintAt(OffMsgType)
	prog, _ := d.UintAt(OffProgram)
	vers, _ := d.UintAt(OffVersion)
	proc, _ := d.UintAt(OffProc)
	if xid != 42 || mt != MsgCall || prog != 100003 || vers != 3 || proc != 6 {
		t.Fatalf("fields %d %d %d %d %d", xid, mt, prog, vers, proc)
	}
	call, err := ParseCall(payload)
	if err != nil {
		t.Fatal(err)
	}
	if call.Xid != 42 || call.Proc != 6 || len(call.Body) != 4 {
		t.Fatalf("ParseCall: %+v", call)
	}
}

func TestParseRejects(t *testing.T) {
	if _, err := ParseCall([]byte{1, 2, 3}); err == nil {
		t.Fatal("short call accepted")
	}
	reply := EncodeReply(1, AcceptSuccess, nil)
	if _, err := ParseCall(reply); err == nil {
		t.Fatal("reply parsed as call")
	}
	call := EncodeCall(1, 2, 3, 4, nil)
	if _, err := ParseReply(call); err == nil {
		t.Fatal("call parsed as reply")
	}
}

func TestIsCall(t *testing.T) {
	c := EncodeCall(1, 2, 3, 4, nil)
	r := EncodeReply(1, AcceptSuccess, nil)
	if ok, err := IsCall(c); err != nil || !ok {
		t.Fatalf("IsCall(call) = %v, %v", ok, err)
	}
	if ok, err := IsCall(r); err != nil || ok {
		t.Fatalf("IsCall(reply) = %v, %v", ok, err)
	}
	if _, err := IsCall([]byte{0}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestRetransmissionOnLoss(t *testing.T) {
	// 30% loss: calls must still succeed via retransmission.
	cli, _ := newPair(t, netsim.Config{LossRate: 0.3, Seed: 5}, echoHandler,
		ClientConfig{Timeout: 20 * time.Millisecond, Retries: 10})
	for i := 0; i < 30; i++ {
		if _, err := cli.Call(7, 1, 1, func(e *xdr.Encoder) { e.PutUint32(uint32(i)) }); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if cli.Retransmissions() == 0 {
		t.Fatal("expected retransmissions under 30% loss")
	}
}

func TestTimeoutWhenServerGone(t *testing.T) {
	n := netsim.New(netsim.Config{})
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	cli := NewClient(cp, netsim.Addr{Host: 9, Port: 9}, ClientConfig{
		Timeout: 5 * time.Millisecond, Retries: 2,
	})
	defer cli.Close()
	_, err := cli.Call(1, 1, 1, nil)
	if !errors.Is(err, ErrTimedOut) {
		t.Fatalf("err = %v, want ErrTimedOut", err)
	}
}

func TestRejectedCall(t *testing.T) {
	h := HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		return nil, AcceptProcUnavail
	})
	cli, _ := newPair(t, netsim.Config{}, h, ClientConfig{})
	_, err := cli.Call(1, 1, 99, nil)
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Accept != AcceptProcUnavail {
		t.Fatalf("err = %v, want ErrRejected{ProcUnavail}", err)
	}
	if want := fmt.Sprintf("accept_stat %d", AcceptProcUnavail); !strings.Contains(err.Error(), want) {
		t.Fatalf("rejection %q does not name %s", err, want)
	}
}

// TestDuplicateRequestCache verifies that a retransmitted non-idempotent
// call executes once: the server hands it to the handler, which answers
// it from the outcome it recorded.
func TestDuplicateRequestCache(t *testing.T) {
	var executions atomic.Uint64
	h := countingHandler(&executions)
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, h)
	defer srv.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	defer cp.Close()

	// Send the same xid twice, manually.
	payload := EncodeCall(1234, 7, 1, 1, nil)
	for i := 0; i < 2; i++ {
		if err := cp.SendTo(srv.Addr(), payload); err != nil {
			t.Fatal(err)
		}
		d, err := cp.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ParseReply(netsim.Payload(d))
		if err != nil {
			t.Fatal(err)
		}
		v, _ := xdr.NewDecoder(rep.Body).Uint64()
		if v != 1 {
			t.Fatalf("attempt %d: execution counter in reply = %d, want 1", i, v)
		}
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("handler executed %d times, want 1", got)
	}
}

// TestSlowHandlerRetransmitDropped: a retransmission arriving while the
// original is still executing must not run the handler twice. The
// original is served on the goroutine that sends it, so it is sent from
// one of its own; the retransmission is dropped on the test's.
func TestSlowHandlerRetransmitDropped(t *testing.T) {
	var executions atomic.Uint64
	entered := make(chan struct{})
	release := make(chan struct{})
	h := HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		if executions.Add(1) == 1 {
			close(entered)
		}
		<-release
		return func(e *xdr.Encoder) {}, AcceptSuccess
	})
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, h)
	defer srv.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	defer cp.Close()

	payload := EncodeCall(77, 7, 1, 1, nil)
	sent := make(chan error, 1)
	go func() { sent <- cp.SendTo(srv.Addr(), payload) }()
	<-entered
	_ = cp.SendTo(srv.Addr(), payload) // retransmit while in flight
	close(release)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Recv(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("handler executed %d times, want 1", got)
	}
}

func TestConcurrentCalls(t *testing.T) {
	cli, _ := newPair(t, netsim.Config{}, echoHandler, ClientConfig{})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i uint32) {
			defer wg.Done()
			body, err := cli.Call(7, 1, 2, func(e *xdr.Encoder) { e.PutUint32(i) })
			if err != nil {
				errs <- err
				return
			}
			v, _ := xdr.NewDecoder(body).Uint32()
			if v != i {
				errs <- errors.New("reply/call mismatch across concurrent xids")
			}
		}(uint32(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientCloseFailsCalls(t *testing.T) {
	cli, _ := newPair(t, netsim.Config{}, echoHandler, ClientConfig{})
	cli.Close()
	if _, err := cli.Call(1, 1, 1, nil); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

// recorded is a role's at-most-once table in miniature (package once is
// the product's): the value each call was answered with, by its source
// and xid and the verifier a retransmission repeats.
type recorded struct {
	mu sync.Mutex
	m  map[recordedKey]uint64
}

type recordedKey struct {
	src                   netsim.Addr
	xid, prog, vers, proc uint32
	n                     int
}

// once returns the value call was answered with before, or runs run and
// records its value.
func (r *recorded) once(call Call, from netsim.Addr, run func() uint64) uint64 {
	k := recordedKey{from, call.Xid, call.Program, call.Version, call.Proc, len(call.Body)}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m[k]
	if !ok {
		if r.m == nil {
			r.m = make(map[recordedKey]uint64)
		}
		v = run()
		r.m[k] = v
	}
	return v
}

// countingHandler replies with the number of times it has executed. It
// is at most once as a role is: it records that number as the call's
// outcome, and answers a retransmission of a call it executed from it.
func countingHandler(executions *atomic.Uint64) Handler {
	var done recorded
	return handlerOf(func(call Call, from netsim.Addr, e *xdr.Encoder) uint32 {
		e.PutUint64(done.once(call, from, func() uint64 { return executions.Add(1) }))
		return AcceptSuccess
	})
}

// TestClientRestartNoStaleDRCReplay is the regression test for xid
// seeding: a client restarted on the same host/port must not match its
// previous incarnation's duplicate-request-cache entries and receive a
// stale reply. With the old fixed nextXid=1 seed, the second client's
// first call collided with the first client's and the server replayed the
// dead incarnation's reply instead of executing.
func TestClientRestartNoStaleDRCReplay(t *testing.T) {
	var executions atomic.Uint64
	n := netsim.New(netsim.Config{})
	sp, err := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sp, countingHandler(&executions))
	defer srv.Close()

	clientAddr := netsim.Addr{Host: 1, Port: 100}
	callOnce := func() uint64 {
		t.Helper()
		cp, err := n.Bind(clientAddr)
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClient(cp, srv.Addr(), ClientConfig{})
		defer cli.Close()
		body, err := cli.Call(7, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := xdr.NewDecoder(body).Uint64()
		return v
	}

	if got := callOnce(); got != 1 {
		t.Fatalf("first incarnation saw execution %d, want 1", got)
	}
	// "Restart" the client: same host, same port, fresh incarnation.
	if got := callOnce(); got != 2 {
		t.Fatalf("restarted client saw execution %d, want 2 (stale DRC replay)", got)
	}
	if got := executions.Load(); got != 2 {
		t.Fatalf("handler executed %d times, want 2", got)
	}
}

// TestXidSeedsPerClient: distinct clients draw distinct random xid seeds.
func TestXidSeedsPerClient(t *testing.T) {
	var mu sync.Mutex
	var xids []uint32
	h := HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		mu.Lock()
		xids = append(xids, call.Xid)
		mu.Unlock()
		return func(e *xdr.Encoder) {}, AcceptSuccess
	})
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, h)
	defer srv.Close()

	for i := 0; i < 4; i++ {
		cp, err := n.BindAny(1)
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClient(cp, srv.Addr(), ClientConfig{})
		if _, err := cli.Call(7, 1, 1, nil); err != nil {
			t.Fatal(err)
		}
		cli.Close()
	}
	mu.Lock()
	firstXids := append([]uint32(nil), xids...)
	mu.Unlock()
	seen := make(map[uint32]bool)
	for _, x := range firstXids {
		if x == 1 {
			t.Fatal("client still seeds xid from the fixed value 1")
		}
		if seen[x] {
			t.Fatalf("two clients drew the same first xid %d", x)
		}
		seen[x] = true
	}
}

// TestResolverRetargetsRestartedServer: a client whose config carries a
// Resolver follows the service to a replacement address — including via
// retransmission within a single in-flight Call, the failover path a
// restarted manager depends on.
func TestResolverRetargetsRestartedServer(t *testing.T) {
	var executions atomic.Uint64
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srvA := NewServer(sp, countingHandler(&executions))

	var target atomic.Value // netsim.Addr
	target.Store(srvA.Addr())
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	cli := NewClient(cp, srvA.Addr(), ClientConfig{
		Timeout: 20 * time.Millisecond,
		Retries: 8,
		Resolve: func() netsim.Addr { return target.Load().(netsim.Addr) },
	})
	defer cli.Close()

	if _, err := cli.Call(7, 1, 1, nil); err != nil {
		t.Fatalf("call to original server: %v", err)
	}

	// Kill the server. Mid-call, flip the resolver to a replacement on a
	// different host after the first transmission has already timed out.
	srvA.Close()
	done := make(chan error, 1)
	go func() {
		_, err := cli.Call(7, 1, 2, nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	sp2, _ := n.Bind(netsim.Addr{Host: 3, Port: 2049})
	srvB := NewServer(sp2, countingHandler(&executions))
	defer srvB.Close()
	target.Store(srvB.Addr())

	if err := <-done; err != nil {
		t.Fatalf("call did not fail over to restarted server: %v", err)
	}
	if cli.Retransmissions() == 0 {
		t.Fatal("expected the failover to happen via retransmission")
	}
}

// TestCallToNamesEachDestination: one client with no server of its own
// reaches every site by naming it per call, and a zero destination goes
// where Call goes — the resolver's current answer.
func TestCallToNamesEachDestination(t *testing.T) {
	n := netsim.New(netsim.Config{})
	var execs [3]atomic.Uint64
	var srvs [3]*Server
	for i := range srvs {
		sp, err := n.Bind(netsim.Addr{Host: uint32(2 + i), Port: 2049})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = NewServer(sp, countingHandler(&execs[i]))
		defer srvs[i].Close()
	}
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	cli := NewClient(cp, netsim.Addr{}, ClientConfig{Resolve: srvs[2].Addr})
	defer cli.Close()

	for i, want := range []int{0, 1, 0} {
		if _, err := cli.CallTo(srvs[want].Addr(), 7, 1, uint32(i+1), nil); err != nil {
			t.Fatalf("call %d to server %d: %v", i, want, err)
		}
	}
	if _, err := cli.CallTo(netsim.Addr{}, 7, 1, 9, nil); err != nil {
		t.Fatalf("call to the resolved server: %v", err)
	}
	if a, b, c := execs[0].Load(), execs[1].Load(), execs[2].Load(); a != 2 || b != 1 || c != 1 {
		t.Fatalf("executions = %d/%d/%d, want 2/1/1", a, b, c)
	}
}

// TestKeyResolverRoutesByFlow: keyed calls route through ResolveKey per
// flow key, fall back to the static server for unknown keys, and
// re-resolve per retransmission — so when a flow's owner dies mid-call
// and the key remaps, the retry lands on the sibling.
func TestKeyResolverRoutesByFlow(t *testing.T) {
	var execA, execB atomic.Uint64
	n := netsim.New(netsim.Config{})
	pa, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srvA := NewServer(pa, countingHandler(&execA))
	defer srvA.Close()
	pb, _ := n.Bind(netsim.Addr{Host: 3, Port: 2049})
	srvB := NewServer(pb, countingHandler(&execB))
	defer srvB.Close()

	// Flow 1 -> A, flow 2 -> B, behind an atomic table so the test can
	// remap mid-call.
	var owners [3]atomic.Value // netsim.Addr per flow key
	owners[1].Store(srvA.Addr())
	owners[2].Store(srvB.Addr())
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	cli := NewClient(cp, srvA.Addr(), ClientConfig{
		Timeout: 20 * time.Millisecond,
		Retries: 8,
		ResolveKey: func(key uint64) netsim.Addr {
			if key < uint64(len(owners)) {
				if a, ok := owners[key].Load().(netsim.Addr); ok {
					return a
				}
			}
			return netsim.Addr{} // fall back to the static server
		},
	})
	defer cli.Close()

	if _, err := cli.CallKeyed(2, 7, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if execB.Load() != 1 || execA.Load() != 0 {
		t.Fatalf("keyed call misrouted: A=%d B=%d", execA.Load(), execB.Load())
	}
	// An unmapped key falls back to the static server (A).
	if _, err := cli.CallKeyed(0, 7, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if execA.Load() != 1 {
		t.Fatalf("fallback call misrouted: A=%d B=%d", execA.Load(), execB.Load())
	}

	// Kill flow 1's owner, then remap the flow to B mid-call: the
	// retransmission must follow the key to the sibling.
	srvA.Close()
	done := make(chan error, 1)
	go func() {
		_, err := cli.CallKeyed(1, 7, 1, 2, nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	owners[1].Store(srvB.Addr())
	if err := <-done; err != nil {
		t.Fatalf("keyed call did not fail over: %v", err)
	}
	if cli.Retransmissions() == 0 {
		t.Fatal("expected the keyed failover to happen via retransmission")
	}
	if execB.Load() != 2 {
		t.Fatalf("sibling did not absorb the failed-over call: B=%d", execB.Load())
	}
}

// FuzzParse ensures the RPC header parsers never panic on hostile bytes —
// they run on every datagram a server or µproxy receives.
func FuzzParse(f *testing.F) {
	f.Add(EncodeCall(1, 100003, 3, 6, func(e *xdr.Encoder) { e.PutUint32(9) }))
	f.Add(EncodeReply(1, AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(9) }))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, _ = ParseCall(payload)
		_, _ = ParseReply(payload)
		_, _ = IsCall(payload)
	})
}

// TestStrayReplyRejected pins the peer-address check: a reply carrying
// the right xid but sourced from an address the call was never sent to
// must be ignored, leaving the call registered for the real peer's
// answer. This is what stops one replica of an interposed fan-out from
// acknowledging a write directly to the client after the router lost
// its soft state.
func TestStrayReplyRejected(t *testing.T) {
	n := netsim.New(netsim.Config{})
	sp, err := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	imposter, err := n.Bind(netsim.Addr{Host: 9, Port: 9})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := n.Bind(netsim.Addr{Host: 1, Port: 100})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cp, sp.Addr(), ClientConfig{Timeout: time.Second, Retries: 2})
	defer cli.Close()

	clientAddr := cp.Addr()
	go func() {
		d, err := sp.Recv(0)
		if err != nil {
			return
		}
		call, err := ParseCall(netsim.Payload(d))
		netsim.FreeBuf(d)
		if err != nil {
			return
		}
		// The imposter answers first, from the wrong address…
		stray := EncodeReply(call.Xid, AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(0xBAD) })
		_ = imposter.SendTo(clientAddr, stray)
		// …and only after the client has provably seen and rejected it
		// does the real server reply.
		for i := 0; i < 200 && cli.StrayReplies() == 0; i++ {
			time.Sleep(time.Millisecond)
		}
		real := EncodeReply(call.Xid, AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(0x600D) })
		_ = sp.SendTo(clientAddr, real)
	}()

	body, err := cli.Call(7, 1, 3, nil)
	if err != nil {
		t.Fatalf("call failed: %v", err)
	}
	v, err := xdr.NewDecoder(body).Uint32()
	if err != nil || v != 0x600D {
		t.Fatalf("got body %x, %v; want the real server's reply", v, err)
	}
	if got := cli.StrayReplies(); got != 1 {
		t.Fatalf("StrayReplies = %d, want 1", got)
	}
}

// TestDRCVerifiesCallIdentity is the regression test for cross-client
// reply replay: the DRC used to key replays on {src, xid} alone, so when
// a fabric source address was recycled (gateway synthetic-host reuse plus
// netsim ephemeral-port recycling) a new client whose xid collided with a
// dead client's cached entry was handed the dead client's reply — for a
// different procedure. A same-{src, xid} call that differs in program,
// version, procedure, or body length must execute fresh.
func TestDRCVerifiesCallIdentity(t *testing.T) {
	var executions atomic.Uint64
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, countingHandler(&executions))
	defer srv.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	defer cp.Close()

	call := func(payload []byte) uint64 {
		t.Helper()
		if err := cp.SendTo(srv.Addr(), payload); err != nil {
			t.Fatal(err)
		}
		d, err := cp.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ParseReply(netsim.Payload(d))
		netsim.FreeBuf(d)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := xdr.NewDecoder(rep.Body).Uint64()
		return v
	}

	const xid = 4242
	if got := call(EncodeCall(xid, 7, 1, 1, nil)); got != 1 {
		t.Fatalf("first call saw execution %d, want 1", got)
	}
	// Identical call, same {src, xid}: a true retransmission — replayed.
	if got := call(EncodeCall(xid, 7, 1, 1, nil)); got != 1 {
		t.Fatalf("retransmission saw execution %d, want replay of 1", got)
	}
	// Same {src, xid}, different procedure: an address-reuse collision,
	// not a retransmission — must execute fresh.
	if got := call(EncodeCall(xid, 7, 1, 2, nil)); got != 2 {
		t.Fatalf("colliding different-proc call saw %d, want fresh execution 2", got)
	}
	// The collision evicted the stale entry; retransmitting the *new*
	// call now replays the new call's reply.
	if got := call(EncodeCall(xid, 7, 1, 2, nil)); got != 2 {
		t.Fatalf("retransmit after collision saw %d, want replay of 2", got)
	}
	// A different body length under the same {src, xid, proc} also misses.
	if got := call(EncodeCall(xid, 7, 1, 2, func(e *xdr.Encoder) { e.PutUint32(1) })); got != 3 {
		t.Fatalf("different-body call saw %d, want fresh execution 3", got)
	}
	if got := executions.Load(); got != 3 {
		t.Fatalf("handler executed %d times, want 3", got)
	}
}

// TestServerRetainsNoReply: a server keeps no reply. A retransmitted
// WRITE, CREATE or SETATTR is answered by the handler from the outcome it
// recorded, without running the mutation again, and the reply is
// rebuilt byte for byte; a retransmitted READ or GETATTR, idempotent,
// re-executes — READ returning identical bytes — and so does a peer chunk
// read, whose handler records nothing. Once the calls are answered the
// server holds nothing of them.
func TestServerRetainsNoReply(t *testing.T) {
	const (
		procGetAttr = 1
		procSetAttr = 2
		procRead    = 6
		procWrite   = 7
		procCreate  = 8
	)
	bulk := make([]byte, 32<<10)
	for i := range bulk {
		bulk[i] = byte(i * 131)
	}
	// peerProg stands for a storage node's peer program: not NFS, so its
	// calls stay at most once in flight, and its chunk read replies in
	// bulk.
	const peerProg, procChunk = 200102, 3
	var runs [procCreate + 1]atomic.Uint64
	var chunkRuns atomic.Uint64
	var done recorded
	h := handlerOf(func(call Call, from netsim.Addr, e *xdr.Encoder) uint32 {
		switch {
		case call.Program == peerProg:
			chunkRuns.Add(1)
			e.PutOpaque(bulk)
		case call.Proc == procRead:
			runs[call.Proc].Add(1)
			e.PutOpaque(bulk)
		case call.Proc == procGetAttr:
			e.PutUint64(runs[call.Proc].Add(1))
		default:
			e.PutUint64(done.once(call, from, func() uint64 { return runs[call.Proc].Add(1) }))
		}
		return AcceptSuccess
	})
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, h)
	defer srv.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	defer cp.Close()

	exchange := func(payload []byte) []byte {
		t.Helper()
		if err := cp.SendTo(srv.Addr(), payload); err != nil {
			t.Fatal(err)
		}
		d, err := cp.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer netsim.FreeBuf(d)
		if _, err := netsim.Parse(d); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), netsim.Payload(d)...)
	}

	// Non-idempotent: the retransmission is answered from the outcome.
	for xid, c := range map[uint32]struct {
		proc uint32
		body []byte
	}{501: {procWrite, bulk}, 503: {procCreate, []byte("name")}, 504: {procSetAttr, []byte("attr")}} {
		call := EncodeCall(xid, 100003, 3, c.proc, func(e *xdr.Encoder) { e.PutOpaque(c.body) })
		first := exchange(call)
		if again := exchange(call); string(again) != string(first) {
			t.Fatalf("retransmitted proc %d answered differently", c.proc)
		}
		if got := runs[c.proc].Load(); got != 1 {
			t.Fatalf("proc %d mutated %d times for one call and its retransmission, want 1", c.proc, got)
		}
	}

	read := EncodeCall(502, 100003, 3, procRead, nil)
	first := exchange(read)
	rep, err := ParseReply(first)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := xdr.NewDecoder(rep.Body).Opaque(); err != nil || string(data) != string(bulk) {
		t.Fatalf("READ returned %d bytes, err %v", len(data), err)
	}
	if again := exchange(read); string(again) != string(first) {
		t.Fatal("retransmitted READ returned different bytes")
	}
	if got := runs[procRead].Load(); got != 2 {
		t.Fatalf("READ handler ran %d times, want 2 (idempotent calls re-execute)", got)
	}

	getattr := EncodeCall(505, 100003, 3, procGetAttr, func(e *xdr.Encoder) { e.PutUint32(9) })
	exchange(getattr)
	exchange(getattr)
	if got := runs[procGetAttr].Load(); got != 2 {
		t.Fatalf("GETATTR handler ran %d times for one call and its retransmission, want 2", got)
	}

	chunk := EncodeCall(506, peerProg, 1, procChunk, nil)
	first = exchange(chunk)
	if again := exchange(chunk); string(again) != string(first) {
		t.Fatal("retransmitted chunk read returned different bytes")
	}
	if got := chunkRuns.Load(); got != 2 {
		t.Fatalf("chunk read handler ran %d times, want 2", got)
	}

	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.inflight) != 0 {
		t.Fatalf("the server holds %d calls in flight after every reply", len(srv.inflight))
	}
}

// TestClientOnFabricPortStartsNoReceiver: on a fabric port the client's
// reply dispatch is the port's upcall, not a receive goroutine, so a reply
// has been matched to its waiting call — or counted as a stray — by the
// time the sender's SendTo returns. Its calls through a server complete.
func TestClientOnFabricPortStartsNoReceiver(t *testing.T) {
	n := netsim.New(netsim.Config{})
	peer, err := n.Bind(netsim.Addr{Host: 3, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	other, err := n.Bind(netsim.Addr{Host: 4, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	cp, err := n.Bind(netsim.Addr{Host: 1, Port: 100})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cp, peer.Addr(), ClientConfig{})
	defer cli.Close()

	xid, pc, err := cli.register()
	if err != nil {
		t.Fatal(err)
	}
	cli.noteSent(xid, peer.Addr())
	reply := EncodeReply(xid, AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(42) })
	// From an address the call was never sent to: rejected in the send.
	if err := other.SendTo(cp.Addr(), reply); err != nil {
		t.Fatal(err)
	}
	if got := cli.StrayReplies(); got != 1 {
		t.Fatalf("stray reply counted %d times when its send returned, want 1", got)
	}
	// From the call's peer: handed to the caller in the send.
	if err := peer.SendTo(cp.Addr(), reply); err != nil {
		t.Fatal(err)
	}
	select {
	case rep := <-pc.ch:
		if got, _ := xdr.NewDecoder(rep.Body).Uint32(); got != 42 {
			t.Fatalf("reply body %d, want 42", got)
		}
		rep.Free()
	default:
		t.Fatal("reply not dispatched to its call by the time its send returned")
	}
	cli.unregister(xid)

	sp, err := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sp, echoHandler)
	defer srv.Close()
	cp2, err := n.Bind(netsim.Addr{Host: 1, Port: 101})
	if err != nil {
		t.Fatal(err)
	}
	cli2 := NewClient(cp2, srv.Addr(), ClientConfig{})
	defer cli2.Close()
	for i := uint32(0); i < 8; i++ {
		body, err := cli2.Call(7, 1, 3, func(e *xdr.Encoder) { e.PutUint32(i) })
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := xdr.NewDecoder(body).Uint32(); got != i {
			t.Fatalf("call %d answered with %d", i, got)
		}
	}
}

// TestCallKeyedReplyOwnsItsBuffer: an owned reply's body stays intact
// while the caller holds it, however many other replies arrive meanwhile,
// and Call's copy survives the buffer's reuse.
func TestCallKeyedReplyOwnsItsBuffer(t *testing.T) {
	h := HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		fill := byte(call.Proc)
		return func(e *xdr.Encoder) {
			p := e.Reserve(32 << 10)
			for i := range p {
				p[i] = fill
			}
		}, AcceptSuccess
	})
	cli, _ := newPair(t, netsim.Config{}, h, ClientConfig{})
	intact := func(body []byte, fill byte) bool {
		for _, b := range body {
			if b != fill {
				return false
			}
		}
		return len(body) >= 32<<10
	}
	held, err := cli.CallKeyedReply(0, 7, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := cli.Call(7, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for proc := uint32(3); proc < 40; proc++ {
		rep, err := cli.CallKeyedReply(0, 7, 1, proc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !intact(rep.Body, byte(proc)) {
			t.Fatalf("proc %d: reply body corrupt on arrival", proc)
		}
		rep.Free()
		rep.Free() // idempotent
	}
	if !intact(held.Body, 1) {
		t.Fatal("held reply was overwritten by later traffic")
	}
	held.Free()
	if !intact(copied, 2) {
		t.Fatal("Call's copy aliases a recycled buffer")
	}
}

// TestReplyEncodedIntoItsDatagram: a server encodes its reply into the
// buffer that crosses the fabric — the region a handler filled is, at the
// same address, the body of the datagram the network carries — and the
// server's time for the call is written into that same buffer's header.
func TestReplyEncodedIntoItsDatagram(t *testing.T) {
	n := netsim.New(netsim.Config{})
	sp, err := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	filled := make(chan *byte, 1)
	srv := NewServer(sp, HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		return func(e *xdr.Encoder) {
			p := e.Reserve(4096)
			for i := range p {
				p[i] = byte(i)
			}
			filled <- &p[0]
		}, AcceptSuccess
	}))
	srv.SetObserver(func(obs.CallID, uint32, uint32, int64, int64) {})
	sent := make(chan *byte, 1)
	n.AddTap(netsim.TapFunc(func(d []byte) netsim.Verdict {
		if h, err := netsim.ParseHeader(d); err == nil && h.Src == srv.Addr() {
			sent <- &d[netsim.HeaderSize+ReplyHeader]
		}
		return netsim.Pass
	}))
	cp, err := n.Bind(netsim.Addr{Host: 1, Port: 100})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cp, srv.Addr(), ClientConfig{})
	t.Cleanup(func() { cli.Close(); srv.Close() })

	rep, err := cli.CallKeyedReply(0, 7, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Free()
	if <-filled != <-sent {
		t.Fatal("the reply was copied between its encoder and its datagram")
	}
	if len(rep.Body) != 4096 || rep.Body[4095] != 4095%256 {
		t.Fatalf("reply body of %d bytes", len(rep.Body))
	}
	if rep.ServerNS == 0 {
		t.Fatal("no server time in the reply header")
	}
}

// TestBuildReplyMatchesBuild: a reply encoded straight into its datagram
// is byte for byte EncodeReply's message sealed by Build.
func TestBuildReplyMatchesBuild(t *testing.T) {
	src, dst := netsim.Addr{Host: 9, Port: 2049}, netsim.Addr{Host: 3, Port: 700}
	res := func(e *xdr.Encoder) { e.PutOpaque([]byte("result")) }
	got, err := BuildReply(src, dst, 77, AcceptSuccess, res)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := netsim.Build(src, dst, EncodeReply(77, AcceptSuccess, res))
	if string(got) != string(want) {
		t.Fatalf("BuildReply %x, Build of EncodeReply %x", got, want)
	}
	if _, err := BuildReply(src, dst, 77, AcceptSuccess, func(e *xdr.Encoder) {
		e.Reserve(netsim.MaxDatagram)
	}); err == nil {
		t.Fatal("a reply beyond the fabric MTU was built")
	}
}

// TestLazyClientClose: Close closes only a client Get built, and a Get
// after Close binds nothing: it returns netsim.ErrClosed, or the closed
// client, whose calls fail with it.
func TestLazyClientClose(t *testing.T) {
	n := netsim.New(netsim.Config{})
	unused := NewLazyClient(n, 1, ClientConfig{})
	unused.Close()
	if c, err := unused.Get(); c != nil || !errors.Is(err, netsim.ErrClosed) {
		t.Fatalf("Get after Close = %v, %v; want netsim.ErrClosed", c, err)
	}

	used := NewLazyClient(n, 1, ClientConfig{})
	c, err := used.Get()
	if err != nil {
		t.Fatal(err)
	}
	used.Close()
	used.Close()
	if again, err := used.Get(); again != c || err != nil {
		t.Fatalf("Get after Close = %v, %v; want the closed client", again, err)
	}
	if _, err := c.CallTo(netsim.Addr{Host: 2, Port: 2049}, 1, 1, 0, nil); !errors.Is(err, netsim.ErrClosed) {
		t.Fatalf("call on the closed client: %v, want netsim.ErrClosed", err)
	}
}
