package oncrpc

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slice/internal/netsim"
	"slice/internal/xdr"
)

// TestInlineServerStartsNoWorker: a server serves a call on the goroutine
// that sends it — the reply is queued at the caller's port when the send
// returns — and starts no goroutine, neither to receive nor to serve.
func TestInlineServerStartsNoWorker(t *testing.T) {
	n := netsim.New(netsim.Config{})
	before := runtime.NumGoroutine()
	sp, err := n.BindAny(2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sp, echoHandler)
	defer srv.Close()
	cp, err := n.BindAny(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if err := cp.SendTo(srv.Addr(), EncodeCall(9, 7, 1, 3, func(e *xdr.Encoder) { e.PutUint32(0xFEED) })); err != nil {
		t.Fatal(err)
	}
	d, ok := cp.TryRecv()
	if !ok {
		t.Fatal("no reply queued when the call's send returned: the call was not served inline")
	}
	rep, err := ParseReply(netsim.Payload(d))
	if err != nil || rep.Xid != 9 {
		t.Fatalf("reply %+v, %v", rep, err)
	}
	if v, _ := xdr.NewDecoder(rep.Body).Uint32(); v != 0xFEED {
		t.Fatalf("reply echoes %#x", v)
	}
	netsim.FreeBuf(d)
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after a server started and served, %d before", got, before)
	}
}

// TestInlineServerCloseWaitsForHandler: Close on a server returns
// only once a handler in flight — blocked on a channel, on its sender's
// goroutine — has returned, so a server restarted over the same store
// never overlaps one of the old server's handlers. A call delivered after
// Close began is not served.
func TestInlineServerCloseWaitsForHandler(t *testing.T) {
	n := netsim.New(netsim.Config{})
	sp, err := n.BindAny(2)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var returned, served atomic.Int32
	srv := NewServer(sp, HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		served.Add(1)
		if call.Proc == 1 {
			close(entered)
			<-release
			returned.Store(1)
		}
		return nil, AcceptSuccess
	}))
	cp, err := n.BindAny(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()

	sent := make(chan error, 1)
	go func() { sent <- cp.SendTo(srv.Addr(), EncodeCall(1, 7, 1, 1, nil)) }()
	<-entered
	closed := make(chan int32, 1)
	go func() {
		srv.Close()
		closed <- returned.Load()
	}()
	// Wait for Close to have begun, then check it has not returned.
	for srv.serving.Load()&closing == 0 {
		runtime.Gosched()
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was blocked")
	default:
	}
	// A call reaching the upcall now is dropped unserved.
	srv.serveInline(mustBuild(t, cp.Addr(), srv.Addr(), EncodeCall(2, 7, 1, 2, nil)))
	close(release)
	if r := <-closed; r != 1 {
		t.Fatal("Close returned before the blocked handler did")
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if got := served.Load(); got != 1 {
		t.Fatalf("%d calls served, want only the one that arrived before Close", got)
	}
}

// TestInlineServerNeverBound: a server bounds nothing, because each call
// is served on its sender's goroutine. With many handlers blocked, one
// more call is still served; so is a handler that calls back into its own
// server and waits — the shape of a directory server's peer RPC, which a
// bounded pool of receivers would deadlock — because the nested call is
// served on the handler's own goroutine. Once the handlers are released
// and the server closed, no goroutine is left.
func TestInlineServerNeverBound(t *testing.T) {
	const (
		procBlock = 1
		procEcho  = 2
		procPeer  = 3
		blocked   = 32
	)
	before := runtime.NumGoroutine()

	n := netsim.New(netsim.Config{})
	bind := func(host uint32) *netsim.Port {
		p, err := n.BindAny(host)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// No call may be decided by a retransmission: every wait below is for
	// an event, and the timeout only bounds a failing run.
	patient := ClientConfig{Timeout: time.Minute, Retries: 1}
	entered := make(chan struct{}, blocked)
	release := make(chan struct{})
	var peer *Client
	srv := NewServer(bind(2), HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		switch call.Proc {
		case procBlock:
			entered <- struct{}{}
			<-release
		case procPeer:
			if _, err := peer.Call(7, 1, procEcho, nil); err != nil {
				return nil, AcceptSystemErr
			}
		}
		return nil, AcceptSuccess
	}))
	peer = NewClient(bind(3), srv.Addr(), patient)
	cli := NewClient(bind(1), srv.Addr(), patient)

	var calls sync.WaitGroup
	blockedErrs := make(chan error, blocked)
	for i := 0; i < blocked; i++ {
		calls.Add(1)
		go func() {
			defer calls.Done()
			if _, err := cli.Call(7, 1, procBlock, nil); err != nil {
				blockedErrs <- err
			}
		}()
	}
	for i := 0; i < blocked; i++ {
		<-entered
	}
	if _, err := cli.Call(7, 1, procEcho, nil); err != nil {
		t.Fatalf("call behind %d blocked handlers: %v", blocked, err)
	}
	if _, err := cli.Call(7, 1, procPeer, nil); err != nil {
		t.Fatalf("handler calling back into its own server: %v", err)
	}
	close(release)
	calls.Wait()
	close(blockedErrs)
	for err := range blockedErrs {
		t.Fatalf("blocked call: %v", err)
	}

	cli.Close()
	peer.Close()
	srv.Close()
	// The callers have returned when calls.Wait does; the runtime may take
	// a moment more to retire their goroutines.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the server started, %d after it closed", before, runtime.NumGoroutine())
		}
	}
}

func mustBuild(t *testing.T, src, dst netsim.Addr, payload []byte) []byte {
	t.Helper()
	d, err := netsim.Build(src, dst, payload)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// recordingConn is a client's Conn that never answers: it keeps a copy of
// every call it transmits, by the method that carried it. sealingConn is
// the same Conn with Send, which a fabric port has.
type recordingConn struct {
	mu     sync.Mutex
	sentTo [][]byte // payloads through SendTo
	sealed [][]byte // payloads through Send
	closed chan struct{}
	once   sync.Once
}

type sealingConn struct{ *recordingConn }

func (c *recordingConn) SendTo(dst netsim.Addr, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sentTo = append(c.sentTo, append([]byte(nil), payload...))
	return nil
}

func (c sealingConn) Send(dst netsim.Addr, d []byte) error {
	defer netsim.FreeBuf(d)
	if err := netsim.Seal(d, c.Addr(), dst); err != nil {
		return err
	}
	if _, err := netsim.Parse(d); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sealed = append(c.sealed, append([]byte(nil), netsim.Payload(d)...))
	return nil
}

func (c *recordingConn) Recv(time.Duration) ([]byte, error) {
	<-c.closed
	return nil, netsim.ErrClosed
}

func (c *recordingConn) Addr() netsim.Addr { return netsim.Addr{Host: 1, Port: 100} }
func (c *recordingConn) Close()            { c.once.Do(func() { close(c.closed) }) }

// TestRetransmissionReencodesCall: on a Conn that seals in place every
// transmission of a call is encoded afresh into its own datagram — args
// runs once per transmission — and a retransmission carries a payload
// byte-identical to the first, which the duplicate-request cache needs. A
// Conn without Send carries every transmission through SendTo, from one
// encoding.
func TestRetransmissionReencodesCall(t *testing.T) {
	const attempts = 3
	data := make([]byte, 32<<10)
	for i := range data {
		data[i] = byte(i*13 + i>>8)
	}
	server := netsim.Addr{Host: 2, Port: 2049}
	for _, seal := range []bool{true, false} {
		rec := &recordingConn{closed: make(chan struct{})}
		var conn Conn = rec
		if seal {
			conn = sealingConn{rec}
		}
		cli := NewClient(conn, server, ClientConfig{Timeout: time.Millisecond, Retries: attempts, Jitter: -1})
		var encodes atomic.Int32
		_, err := cli.Call(7, 1, 5, func(e *xdr.Encoder) {
			encodes.Add(1)
			e.PutUint32(0xC0FFEE)
			e.PutOpaque(data)
		})
		cli.Close()
		if !errors.Is(err, ErrTimedOut) {
			t.Fatalf("seal=%v: err = %v, want a timeout", seal, err)
		}
		used, unused, wantEncodes := rec.sealed, rec.sentTo, int32(attempts)
		if !seal {
			used, unused, wantEncodes = rec.sentTo, rec.sealed, 1
		}
		if len(used) != attempts || len(unused) != 0 {
			t.Fatalf("seal=%v: %d transmissions on the expected path, %d on the other; want %d and 0",
				seal, len(used), len(unused), attempts)
		}
		if got := encodes.Load(); got != wantEncodes {
			t.Fatalf("seal=%v: args ran %d times, want %d", seal, got, wantEncodes)
		}
		for i, p := range used[1:] {
			if !bytes.Equal(p, used[0]) {
				t.Fatalf("seal=%v: transmission %d differs from the first", seal, i+2)
			}
		}
		call, err := ParseCall(used[0])
		if err != nil {
			t.Fatal(err)
		}
		d := xdr.NewDecoder(call.Body)
		tag, _ := d.Uint32()
		body, _ := d.Opaque()
		if call.Program != 7 || call.Proc != 5 || tag != 0xC0FFEE || !bytes.Equal(body, data) {
			t.Fatalf("seal=%v: the transmitted call does not decode to what args encoded", seal)
		}
	}
}

// TestRetransmitLadderIsCapped: the retransmission timeout doubles up to
// maxTimeout and stays there, so the 40-attempt, 25 ms ladder the replica
// chaos tests configure waits at most 69.175 s before jitter, where
// uncapped its 13th attempt alone would wait 102.4 s. An initial timeout
// above the cap is kept as configured.
func TestRetransmitLadderIsCapped(t *testing.T) {
	want := []time.Duration{25, 50, 100, 200, 400, 800, 1600}
	timeout, total := 25*time.Millisecond, time.Duration(0)
	for attempt := 0; attempt < 40; attempt++ {
		w := 2 * time.Second
		if attempt < len(want) {
			w = want[attempt] * time.Millisecond
		}
		if timeout != w {
			t.Fatalf("attempt %d waits %v, want %v", attempt+1, timeout, w)
		}
		total += timeout
		timeout = backedOff(timeout)
	}
	if total != 69175*time.Millisecond {
		t.Fatalf("the ladder waits %v in all, want 69.175s", total)
	}
	if got := backedOff(time.Minute); got != time.Minute {
		t.Fatalf("a one-minute initial timeout backs off to %v", got)
	}
}

// word is an args function built the way callers build theirs: a method
// value (nfsproto.Msg.Encode) made for one call.
type word struct{ v uint32 }

func (w *word) encode(e *xdr.Encoder) { e.PutUint32(w.v) }

// TestArgsStayOnTheCallersStack: a call's args is only called, never kept,
// on either transmission path, so the method value a caller makes for one
// call costs it no allocation. (Kept in a struct beside the payload that
// SendTo receives, args escaped: one allocation more per RPC.)
func TestArgsStayOnTheCallersStack(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// mallocs is testing.AllocsPerRun without its rounding down: under the
	// race detector pools drop buffers at random, which a mean of many
	// calls absorbs and a leaked args, a whole allocation per call, does not.
	mallocs := func(f func()) float64 {
		const runs = 1000
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs
	}
	n := netsim.New(netsim.Config{})
	sp, err := n.BindAny(2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sp, HandlerFunc(func(Call, netsim.Addr) (func(*xdr.Encoder), uint32) {
		return nil, AcceptSuccess
	}))
	defer srv.Close()
	for _, seal := range []bool{true, false} {
		cp, err := n.BindAny(1)
		if err != nil {
			t.Fatal(err)
		}
		var conn Conn = cp
		if !seal {
			conn = recvOnly{cp}
		}
		cli := NewClient(conn, srv.Addr(), ClientConfig{Timeout: time.Minute, Retries: 1})
		bare := mallocs(func() {
			if _, err := cli.Call(7, 1, 1, nil); err != nil {
				t.Fatal(err)
			}
		})
		withArgs := mallocs(func() {
			w := word{v: 1}
			if _, err := cli.Call(7, 1, 1, w.encode); err != nil {
				t.Fatal(err)
			}
		})
		cli.Close()
		if withArgs-bare >= 0.5 {
			t.Fatalf("seal=%v: a call with args allocates %.2f times, without %.2f", seal, withArgs, bare)
		}
	}
}
