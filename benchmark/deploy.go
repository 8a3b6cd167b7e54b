package main

import (
	"fmt"
	"time"

	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/wire"
)

// numLanes is the closed-loop client count. The reference box has two
// cores and the whole ensemble runs in this process, so two callers —
// each blocking on every reply, as an NFS caller does — already saturate
// it; more lanes would measure the Go scheduler, not the system.
const numLanes = 2

// clientQueueDepth mirrors ensemble.NewClient's window sizing (array
// width × per-node depth), so lanes built here over a wrapped Conn run
// the same bulk window as stock clients.
const clientQueueDepth = 4

// deployment is one stock, unpaced ensemble plus the load lanes bound to
// it. No Net.Latency, no *ServiceTime: every figure is what the code
// costs on this machine, not a model.
type deployment struct {
	e     *ensemble.Ensemble
	lanes []*lane
}

// lane is one closed-loop caller: its own client, connection, subtree
// and files, and the per-op records of the pass it is running.
type lane struct {
	id int
	c  *client.Client
	tr *laneTrace // nil on the untraced pass
	r  runner

	// opLimit bounds the warm-up; pace, set for the timed phase, cuts it
	// into slices.
	opLimit int
	pace    *pacer

	lat      []time.Duration // one sample per op, failed or not
	failed   int
	firstErr error
	payload  uint64 // READ/WRITE payload bytes moved by successful ops
	reads    int    // Read calls issued / served with no RPC started inside
	raHits   int
	hashing  bool   // warm-up: generated ops feed seqHash
	seqHash  uint64 // hash of the ops the warm-up generated
	opStart  time.Time
	lastDone time.Time
}

func newDeployment(w *workloadSpec, seed uint64, scale float64, traced bool) (*deployment, error) {
	cfg := ensemble.Config{
		StorageNodes: 4, DirServers: 2, SmallFileServers: 2,
		Coordinator: true, NameKind: route.MkdirSwitching, MkdirP: 0.25,
	}
	if w.tcp {
		cfg.TCPListen = "127.0.0.1:0"
	}
	e, err := ensemble.New(cfg)
	if err != nil {
		return nil, err
	}
	d := &deployment{e: e}
	for i := 0; i < numLanes; i++ {
		l, err := d.newLane(w, i, seed, scale, traced)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("lane %d: %w", i, err)
		}
		d.lanes = append(d.lanes, l)
	}
	return d, nil
}

func (d *deployment) newLane(w *workloadSpec, i int, seed uint64, scale float64, traced bool) (*lane, error) {
	e := d.e
	ccfg := client.Config{
		Server:     e.Virtual,
		Threshold:  e.IOPolicy.Threshold,
		StripeUnit: e.IOPolicy.StripeUnit,
		Window:     e.IOPolicy.WindowFor(clientQueueDepth),
		Obs:        obs.NewRegistry(fmt.Sprintf("client[%d]", i)),
	}
	var conn oncrpc.Conn
	if w.tcp {
		// Loopback TCP through the record-marking gateway: not a real
		// link, but the only path on which internal/wire does any work.
		wc, err := wire.Dial(e.Gateways[0].Addr().String())
		if err != nil {
			return nil, err
		}
		conn = wc
	} else {
		port, err := e.Net.BindAny(ensemble.HostClient0 + 1 + uint32(i))
		if err != nil {
			return nil, err
		}
		conn = port
		ccfg.Net, ccfg.Host, ccfg.Fleet = e.Net, port.Addr().Host, e.Front
	}
	l := &lane{id: i}
	if traced {
		l.tr = newLaneTrace(i)
		conn = &tracedConn{Conn: conn, tr: l.tr}
	}
	l.c = client.NewWithConn(conn, ccfg)
	if err := l.c.Mount(); err != nil {
		l.c.Close()
		return nil, fmt.Errorf("mount: %w", err)
	}
	l.r = w.newRunner(l, seed, scale)
	return l, nil
}

func (d *deployment) close() {
	for _, l := range d.lanes {
		l.c.Close()
	}
	d.e.Close()
}

// more reports whether the lane should issue another op. In the timed
// phase it also closes the slice the last op ran over.
func (l *lane) more() bool {
	if p := l.pace; p != nil {
		if l.lastDone.Sub(p.from) >= p.sliceLen {
			p.endSlice(l)
		}
		return p.left > 0
	}
	return len(l.lat) < l.opLimit
}

// begin opens one op. kind and arg identify the generated op for the
// sequence hash; they never reach the program under test. The hash
// covers the warm-up, whose op count is fixed, so runs of any length
// compare.
func (l *lane) begin(kind uint8, arg uint64) {
	if l.hashing {
		l.seqHash = mix64(l.seqHash ^ uint64(kind)<<56 ^ arg)
	}
	if l.tr != nil {
		l.tr.beginOp()
	}
	l.opStart = time.Now()
}

// end closes the op opened by begin. A non-nil err — an RPC error, a
// short transfer or a content mismatch — counts the op as failed.
func (l *lane) end(err error) {
	l.lastDone = time.Now()
	l.lat = append(l.lat, l.lastDone.Sub(l.opStart))
	if l.tr != nil {
		l.tr.endOp()
	}
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
}

// sends is the lane's transmissions so far, as the traced Conn counts
// them; the untraced pass has no count.
func (l *lane) sends() uint64 {
	if l.tr == nil {
		return 0
	}
	return l.tr.sends()
}

// reset drops the warm-up's records so the timed phase starts clean; the
// generator state (and so the op sequence) carries on.
func (l *lane) reset() {
	l.lat = l.lat[:0]
	l.failed, l.firstErr, l.payload, l.reads, l.raHits = 0, nil, 0, 0, 0
	if l.tr != nil {
		l.tr.reset()
	}
}

// mix64 is the splitmix64 finalizer: the generators' PRNG step and the
// sequence hash both use it.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// rng is a seeded splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fill writes the stream's next bytes over p.
func (r *rng) fill(p []byte) {
	for i := 0; i+8 <= len(p); i += 8 {
		v := r.next()
		p[i], p[i+1], p[i+2], p[i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		p[i+4], p[i+5], p[i+6], p[i+7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
	}
}
