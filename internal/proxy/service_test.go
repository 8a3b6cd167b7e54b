package proxy

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/route"
)

// pacedRig is a µproxy paced at one request per ServiceTime on a bare
// fabric: a client port, and a directory server port that receives what
// the µproxy forwards and never answers.
type pacedRig struct {
	p              *Proxy
	client, server *netsim.Port
	virtual        netsim.Addr
}

func newPacedRig(t *testing.T, serviceTime time.Duration) *pacedRig {
	t.Helper()
	net := netsim.New(netsim.Config{QueueLen: 1024})
	dirAddr := netsim.Addr{Host: 30, Port: 2049}
	server, err := net.Bind(dirAddr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := net.Bind(netsim.Addr{Host: 200, Port: 999})
	if err != nil {
		t.Fatal(err)
	}
	r := &pacedRig{client: client, server: server, virtual: netsim.Addr{Host: 100, Port: 2049}}
	dirs := route.NewTable(1, []netsim.Addr{dirAddr})
	r.p = New(Config{
		Net: net, Host: 99, Virtual: r.virtual, ServiceTime: serviceTime,
		IO:    route.NewIOPolicy(nil, dirs),
		Names: route.NewNamePolicy(route.MkdirSwitching, 0, dirs),
	})
	t.Cleanup(func() {
		r.p.Close()
		r.drain()
		client.Close()
		server.Close()
	})
	return r
}

// send sends n ACCESS calls, each with an xid of its own.
func (r *pacedRig) send(t *testing.T, n int) {
	t.Helper()
	fh := fhandle.Handle{Volume: 1, FileID: 43, Gen: 1, Type: uint8(attr.TypeReg)}
	for i := 0; i < n; i++ {
		call := oncrpc.EncodeCall(uint32(i+1), nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcAccess),
			(&nfsproto.AccessArgs{FH: fh, Access: 1}).Encode)
		if err := r.client.SendTo(r.virtual, call); err != nil {
			t.Fatal(err)
		}
	}
}

// drain frees every call queued at the directory server and counts them.
func (r *pacedRig) drain() int {
	n := 0
	for d, ok := r.server.TryRecv(); ok; d, ok = r.server.TryRecv() {
		netsim.FreeBuf(d)
		n++
	}
	return n
}

// TestServiceLoopPaces: a paced µproxy forwards a burst no faster than
// one request per ServiceTime once its catch-up credit of 32 requests is
// spent, so the last of n requests leaves no sooner than (n - 33) service
// times after the first arrived.
func TestServiceLoopPaces(t *testing.T) {
	const (
		serviceTime = 2 * time.Millisecond
		n           = 90
	)
	r := newPacedRig(t, serviceTime)
	start := time.Now()
	r.send(t, n)
	for i := 0; i < n; i++ {
		d, err := r.server.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("%d of %d calls forwarded: %v", i, n, err)
		}
		netsim.FreeBuf(d)
	}
	if elapsed, floor := time.Since(start), (n-33)*serviceTime; elapsed < floor {
		t.Fatalf("%d calls forwarded in %v, want at least %v at one per %v beyond the credit", n, elapsed, floor, serviceTime)
	}
}

// TestServiceLoopShedsAndCloses: a burst larger than the service queue is
// shed at the queue and counted as dropped, and Close frees the calls still
// queued and leaves no service goroutine behind.
func TestServiceLoopShedsAndCloses(t *testing.T) {
	const m = serviceQueue + 144
	r := newPacedRig(t, 50*time.Millisecond)
	r.send(t, m)
	dropped := int(r.p.Stats().Dropped)
	puts := netsim.PoolStats().Puts
	r.p.Close()
	freed := netsim.PoolStats().Puts - puts
	forwarded := r.drain()

	// A call is queued unless the queue is full, and the queue holds
	// serviceQueue calls besides those the loop has taken out of it, each
	// of which it forwarded.
	if dropped == 0 || dropped < m-serviceQueue-forwarded {
		t.Fatalf("%d of %d calls shed with %d forwarded, want at least %d", dropped, m, forwarded, m-serviceQueue-forwarded)
	}
	if n := len(r.p.workCh); n != 0 {
		t.Fatalf("%d calls left queued after Close", n)
	}
	if queued := m - forwarded - dropped; freed < uint64(queued) {
		t.Fatalf("Close freed %d buffers, want the %d calls still queued", freed, queued)
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "(*Proxy).serviceLoop") {
		t.Fatal("the service loop outlived Close")
	}
}
