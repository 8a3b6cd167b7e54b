package oncrpc

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slice/internal/netsim"
	"slice/internal/xdr"
)

// scriptedConn is a client's Conn under the test's control: it hands each
// transmitted payload to the test, which supplies the datagrams the client
// receives one at a time, and its transmissions can be made to fail. Made
// with upcall set it offers SetUpcall, as a fabric port does, and a
// datagram is dispatched on the test's goroutine; otherwise the client's
// receive loop takes it from Recv.
type scriptedConn struct {
	sent     chan []byte   // a copy of each transmitted payload
	deliver  chan []byte   // datagrams for Recv
	inRecv   chan struct{} // Recv was entered: the previous datagram is fully dealt with
	failSend bool          // only touched on the calling goroutine (SendTo, the Resolve hook)
	closed   chan struct{}
	once     sync.Once
}

// upcallConn is a scriptedConn that offers the upcall.
type upcallConn struct {
	*scriptedConn
	up func(d []byte) // the client's dispatch, set by NewClient
}

func (c *upcallConn) SetUpcall(fn func(d []byte)) { c.up = fn }

// scripted is what the tests drive: either kind of scripted Conn.
type scripted interface {
	Conn
	base() *scriptedConn
	// answer delivers the reply to the call last sent, echoing v, and
	// returns once the client has dispatched it.
	answer(t *testing.T, from netsim.Addr, v uint32)
	// ready waits until the client can receive.
	ready()
}

func newScriptedConn(upcall bool) scripted {
	c := &scriptedConn{
		sent:    make(chan []byte, 1),
		deliver: make(chan []byte),
		inRecv:  make(chan struct{}),
		closed:  make(chan struct{}),
	}
	if upcall {
		return &upcallConn{scriptedConn: c}
	}
	return c
}

// onBothPaths runs a test against each kind of scripted Conn.
func onBothPaths(t *testing.T, test func(t *testing.T, upcall bool)) {
	for _, upcall := range []bool{true, false} {
		name := "recvloop"
		if upcall {
			name = "upcall"
		}
		t.Run(name, func(t *testing.T) { test(t, upcall) })
	}
}

var errSendFailed = errors.New("send failed")

func (c *scriptedConn) base() *scriptedConn { return c }

func (c *scriptedConn) SendTo(dst netsim.Addr, payload []byte) error {
	if c.failSend {
		return errSendFailed
	}
	c.sent <- append([]byte(nil), payload...)
	return nil
}

func (c *scriptedConn) Recv(time.Duration) ([]byte, error) {
	select {
	case c.inRecv <- struct{}{}:
	case <-c.closed:
		return nil, netsim.ErrClosed
	}
	select {
	case d := <-c.deliver:
		return d, nil
	case <-c.closed:
		return nil, netsim.ErrClosed
	}
}

func (c *scriptedConn) Addr() netsim.Addr { return netsim.Addr{Host: 1, Port: 100} }
func (c *scriptedConn) Close()            { c.once.Do(func() { close(c.closed) }) }

// reply builds the datagram answering the call last sent on c.
func (c *scriptedConn) reply(t *testing.T, from netsim.Addr, v uint32) []byte {
	call, err := ParseCall(<-c.sent)
	if err != nil {
		t.Error(err)
		return nil
	}
	d, err := netsim.Build(from, c.Addr(), EncodeReply(call.Xid, AcceptSuccess,
		func(e *xdr.Encoder) { e.PutUint32(v) }))
	if err != nil {
		t.Error(err)
		return nil
	}
	return d
}

func (c *scriptedConn) answer(t *testing.T, from netsim.Addr, v uint32) {
	if d := c.reply(t, from, v); d != nil {
		c.deliver <- d
		<-c.inRecv
	}
}

func (c *scriptedConn) ready() { <-c.inRecv }

func (c *upcallConn) answer(t *testing.T, from netsim.Addr, v uint32) {
	if d := c.reply(t, from, v); d != nil {
		c.up(d)
	}
}

func (c *upcallConn) ready() {}

// TestGivenUpCallRecordNotRecycled: a call that gives up may still have a
// reply land in its record's channel — the dispatch matches it, and only
// then sends — so that record must never serve another call. Here the
// order is forced: the reply to the first transmission is matched and sent
// after the call's first timeout and before its second transmission, which
// fails, so the call returns an error with the reply sitting in its
// channel. Every later call must then get its own reply, not that one.
// Both ways a reply reaches dispatch are run.
func TestGivenUpCallRecordNotRecycled(t *testing.T) {
	onBothPaths(t, testGivenUpCallRecordNotRecycled)
}

func testGivenUpCallRecordNotRecycled(t *testing.T, upcall bool) {
	// One P, so that a record put back would be the next one taken: the
	// pool keeps a per-P slot other Ps cannot reach. (The race detector
	// still drops one Put in four at random: run with -count.)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	server := netsim.Addr{Host: 2, Port: 2049}

	hasty := newScriptedConn(upcall)
	resolves := 0
	cli := NewClient(hasty, server, ClientConfig{
		Timeout: time.Millisecond, Retries: 2, Jitter: -1,
		// Runs on the calling goroutine before every transmission; the
		// second time, between the timeout and the retransmission it
		// triggers, is where the late reply arrives.
		Resolve: func() netsim.Addr {
			if resolves++; resolves == 2 {
				hasty.answer(t, server, 0xDEAD)
				hasty.base().failSend = true
			}
			return netsim.Addr{}
		},
	})
	defer cli.Close()
	hasty.ready()
	if _, err := cli.Call(7, 1, 1, nil); !errors.Is(err, errSendFailed) {
		t.Fatalf("first call: err = %v, want the failed retransmission's", err)
	}

	// Later calls share the record pool, whichever client makes them.
	patient := newScriptedConn(upcall)
	cli2 := NewClient(patient, server, ClientConfig{Timeout: time.Minute, Retries: 1})
	defer cli2.Close()
	patient.ready()
	for i := uint32(0); i < 16; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			patient.answer(t, server, i)
		}()
		body, err := cli2.Call(7, 1, 1, nil)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got, _ := xdr.NewDecoder(body).Uint32(); got != i {
			t.Fatalf("call %d completed with reply %#x: the record of a call that gave up was recycled", i, got)
		}
		<-done
	}
}

// recvOnly hides a fabric port's upcall, so a client on it runs its
// receive loop: the path every Conn without SetUpcall takes.
type recvOnly struct{ Conn }

// TestRepliesRacingTimeoutsNeverCrossCalls is the same property on the
// path it usually takes: replies arrive around the time their
// single-attempt calls give up, so some calls succeed, some time out, and
// some replies are dispatched while their call is already on its way out —
// or while its timer is firing, whose tick must not be left in a recycled
// record either. Whatever the interleaving, a call that returns a reply
// returns its own, and a call fails only by timing out. It runs with the
// replies dispatched by their senders (the upcall) and by a receive loop.
// (How often the windows are hit depends on timing; that the outcome is
// right does not.)
func TestRepliesRacingTimeoutsNeverCrossCalls(t *testing.T) {
	onBothPaths(t, testRepliesRacingTimeoutsNeverCrossCalls)
}

func testRepliesRacingTimeoutsNeverCrossCalls(t *testing.T, upcall bool) {
	const timeout = 300 * time.Microsecond
	n := netsim.New(netsim.Config{})
	sp, err := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sp, echoHandler)
	defer srv.Close()
	cp, err := n.Bind(netsim.Addr{Host: 1, Port: 100})
	if err != nil {
		t.Fatal(err)
	}
	var conn Conn = cp
	if !upcall {
		conn = recvOnly{cp}
	}
	cli := NewClient(conn, srv.Addr(), ClientConfig{Timeout: timeout, Retries: 1, Jitter: -1})
	defer cli.Close()
	// Replies only: half arrive at once, half up to two timeouts late.
	n.SetLinkFault(2, 1, netsim.LinkFault{Reorder: 0.5, ReorderWindow: 2 * timeout})
	const callers, rounds = 8, 150
	var wg sync.WaitGroup
	var ok, late atomic.Int64
	for caller := uint32(0); caller < callers; caller++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint32(0); seq < rounds; seq++ {
				want := caller<<16 | seq
				body, err := cli.Call(7, 1, 3, func(e *xdr.Encoder) { e.PutUint32(want) })
				if errors.Is(err, ErrTimedOut) {
					late.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("call %#x: %v", want, err)
					return
				}
				if got, _ := xdr.NewDecoder(body).Uint32(); got != want {
					t.Errorf("call %#x completed with the reply to %#x", want, got)
					return
				}
				ok.Add(1)
			}
		}()
	}
	wg.Wait()
	t.Logf("%d calls answered in time, %d gave up", ok.Load(), late.Load())
}
