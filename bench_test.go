// Benchmarks regenerating each table and figure of the paper (§5). Every
// benchmark reports the experiment's headline metric with b.ReportMetric,
// so `go test -bench=.` doubles as a compact reproduction run. For the
// full formatted report, use `go run ./cmd/slicebench -exp all`.
package slice_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slice/internal/attr"
	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/fhandle"
	"slice/internal/front"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/proxy"
	"slice/internal/route"
	"slice/internal/sim"
	"slice/internal/storage"
	"slice/internal/wire"
	"slice/internal/workload"
	"slice/internal/xdr"
)

// BenchmarkTable2BulkIO regenerates Table 2: bulk I/O bandwidth per
// workload, single-client and at saturation.
func BenchmarkTable2BulkIO(b *testing.B) {
	rows := []struct {
		name     string
		write    bool
		mirrored bool
	}{
		{"read", false, false},
		{"write", true, false},
		{"read-mirrored", false, true},
		{"write-mirrored", true, true},
	}
	for _, r := range rows {
		b.Run(r.name+"/single-client", func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				res := sim.RunBulk(sim.BulkConfig{
					StorageNodes: 8, Clients: 1,
					Write: r.write, Mirrored: r.mirrored,
					BytesPerClient: 64 << 20,
				})
				mbps = res.PerClientMBps
			}
			b.ReportMetric(mbps, "MB/s")
		})
		b.Run(r.name+"/saturation", func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				res := sim.RunBulk(sim.BulkConfig{
					StorageNodes: 8, Clients: 16, Tuned: true,
					Write: r.write, Mirrored: r.mirrored,
					BytesPerClient: 32 << 20,
				})
				mbps = res.AggregateMBps
			}
			b.ReportMetric(mbps, "MB/s")
		})
	}
}

// BenchmarkTable3ProxyCPU regenerates Table 3: per-stage µproxy CPU cost
// measured on the live implementation under the untar workload.
func BenchmarkTable3ProxyCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := ensemble.New(ensemble.Config{
			StorageNodes: 2, DirServers: 2, SmallFileServers: 1,
			Coordinator: true, NameKind: route.MkdirSwitching, MkdirP: 0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		c, err := e.NewClient()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		if _, err := workload.Untar(c, c.Root(), workload.UntarConfig{Entries: 500}); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		st := e.Proxy.Stats()
		if pkts := st.Requests + st.Responses; pkts > 0 {
			b.ReportMetric(float64(st.InterceptNS)/float64(pkts), "intercept-ns/pkt")
			b.ReportMetric(float64(st.DecodeNS)/float64(pkts), "decode-ns/pkt")
			b.ReportMetric(float64(st.RewriteNS)/float64(pkts), "rewrite-ns/pkt")
			b.ReportMetric(float64(st.SoftStateNS)/float64(pkts), "softstate-ns/pkt")
		}
		c.Close()
		e.Close()
		b.StartTimer()
	}
}

// BenchmarkFig3DirScaling regenerates Figure 3: mean untar completion
// time for the N-MFS baseline and Slice-N at a representative load.
func BenchmarkFig3DirScaling(b *testing.B) {
	const procs = 16
	configs := []struct {
		name     string
		servers  int
		baseline bool
	}{
		{"N-MFS", 1, true},
		{"Slice-1", 1, false},
		{"Slice-2", 2, false},
		{"Slice-4", 4, false},
	}
	for _, cfg := range configs {
		b.Run(fmt.Sprintf("%s/procs=%d", cfg.name, procs), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				res := sim.RunUntar(sim.UntarConfig{
					DirServers: cfg.servers, Baseline: cfg.baseline,
					Processes: procs, Kind: route.MkdirSwitching,
					P: 1 / float64(cfg.servers),
				})
				lat = res.MeanLatency
			}
			b.ReportMetric(lat, "untar-sec")
		})
	}
}

// BenchmarkFig4Affinity regenerates Figure 4: untar latency across the
// directory-affinity sweep at 16 processes on 4 directory servers.
func BenchmarkFig4Affinity(b *testing.B) {
	for _, affinity := range []float64{0, 0.4, 0.8, 1.0} {
		b.Run(fmt.Sprintf("affinity=%.0f%%", affinity*100), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				res := sim.RunUntar(sim.UntarConfig{
					DirServers: 4, Processes: 16, ClientNodes: 4,
					Kind: route.MkdirSwitching, P: 1 - affinity,
				})
				lat = res.MeanLatency
			}
			b.ReportMetric(lat, "untar-sec")
		})
	}
}

// BenchmarkFig5SfsThroughput regenerates Figure 5: SPECsfs97 delivered
// IOPS at saturation for each configuration.
func BenchmarkFig5SfsThroughput(b *testing.B) {
	configs := []struct {
		name     string
		nodes    int
		baseline bool
	}{
		{"NFS", 1, true},
		{"Slice-1", 1, false},
		{"Slice-2", 2, false},
		{"Slice-4", 4, false},
		{"Slice-8", 8, false},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			var iops float64
			for i := 0; i < b.N; i++ {
				res := sim.RunSfs(sim.SfsConfig{
					StorageNodes: cfg.nodes, Baseline: cfg.baseline,
					OfferedIOPS: 9000, Duration: 20, Warmup: 4,
				})
				iops = res.DeliveredIOPS
			}
			b.ReportMetric(iops, "IOPS")
		})
	}
}

// BenchmarkFig6SfsLatency regenerates Figure 6: mean SPECsfs latency at a
// below-saturation and a past-cache-overflow operating point.
func BenchmarkFig6SfsLatency(b *testing.B) {
	points := []struct {
		name    string
		nodes   int
		offered float64
	}{
		{"Slice-8/light", 8, 500},
		{"Slice-8/overflowed", 8, 4000},
		{"Slice-8/near-saturation", 8, 6000},
	}
	for _, p := range points {
		b.Run(p.name, func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				res := sim.RunSfs(sim.SfsConfig{
					StorageNodes: p.nodes, OfferedIOPS: p.offered,
					Duration: 20, Warmup: 4,
				})
				ms = res.MeanLatencyMs
			}
			b.ReportMetric(ms, "latency-ms")
		})
	}
}

// --- Micro-benchmarks of the µproxy-critical code paths -----------------

// BenchmarkProxyDecode measures the packet-decode stage in isolation: the
// dominant µproxy cost in Table 3.
func BenchmarkProxyDecode(b *testing.B) {
	fh := fhandle.Handle{Volume: 1, FileID: 42, Type: 1, CellKey: 42, Site: 1, Gen: 1}
	args := nfsproto.LookupArgs{Dir: fh, Name: "src"}
	e := xdr.NewEncoder(128)
	args.Encode(e)
	body := e.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nfsproto.ParseCall(nfsproto.ProcLookup, body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNameKey measures the MD5 fingerprint that keys both hash
// chains and the name-hashing policy.
func BenchmarkNameKey(b *testing.B) {
	fh := fhandle.Handle{Volume: 1, FileID: 42, Gen: 1}
	for i := 0; i < b.N; i++ {
		fhandle.NameKey(fh, "some-file-name.c")
	}
}

func benchAddrs(n int) []netsim.Addr {
	out := make([]netsim.Addr, n)
	for i := range out {
		out[i] = netsim.Addr{Host: uint32(10 + i), Port: 2049}
	}
	return out
}

// BenchmarkRouteIO measures bulk-I/O target selection.
func BenchmarkRouteIO(b *testing.B) {
	table := route.NewTable(8, benchAddrs(8))
	policy := route.NewIOPolicy(nil, table)
	fh := fhandle.Handle{Volume: 1, FileID: 7, Gen: 1}
	for i := 0; i < b.N; i++ {
		if _, err := policy.ReadTarget(fh, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Contended data-path benchmarks -------------------------------------
//
// These exercise the sharded soft state and the pooled-buffer forward path
// under concurrency (run with -cpu 1,4 to see scaling). Baselines from
// before the sharding/pooling rework live in BENCH_proxy.json.

// forwardHarness is a self-contained proxy forward-path rig: one µproxy
// interposed between per-goroutine client ports and per-goroutine
// directory-server ports, exercising tap → classify → route → rewrite →
// forward and the pass-through response path with no real servers.
type forwardHarness struct {
	net     *netsim.Network
	p       *proxy.Proxy
	io      *route.IOPolicy
	virtual netsim.Addr
	lanes   atomic.Uint32
	logical int
	servers []*netsim.Port
}

const fwdLanes = 64

func newForwardHarness(b *testing.B) *forwardHarness {
	b.Helper()
	n := netsim.New(netsim.Config{QueueLen: 1024})
	dirAddrs := make([]netsim.Addr, fwdLanes)
	servers := make([]*netsim.Port, fwdLanes)
	for i := range dirAddrs {
		dirAddrs[i] = netsim.Addr{Host: uint32(1000 + i), Port: 2049}
		port, err := n.Bind(dirAddrs[i])
		if err != nil {
			b.Fatal(err)
		}
		servers[i] = port
	}
	dirs := route.NewTable(fwdLanes, dirAddrs)
	storage := route.NewTable(fwdLanes, dirAddrs)
	virtual := netsim.Addr{Host: 9999, Port: 2049}
	// Tracing and histograms stay on in the benchmark: the observability
	// layer is always-on in deployments, so its cost (one pooled span and
	// a handful of atomic adds per request) is part of the budget the
	// 0 allocs/op gate protects.
	io := route.NewIOPolicy(nil, storage)
	p := proxy.New(proxy.Config{
		Net:     n,
		Host:    9998,
		Virtual: virtual,
		IO:      io,
		Names:   route.NewNamePolicy(route.MkdirSwitching, 0, dirs),
		Obs:     obs.NewRegistry("uproxy"),
		Tracer:  obs.NewTracer(256),
	})
	b.Cleanup(p.Close)
	return &forwardHarness{net: n, p: p, io: io, virtual: virtual, logical: fwdLanes, servers: servers}
}

// fwdLane is one goroutine's private client endpoint + request template.
// The FH site pins each lane to its own directory server. target is the
// virtual address the lane's requests are sent to — the single proxy in
// the forward benchmarks, the lane's ring-resolved owner in the fleet
// benchmark.
type fwdLane struct {
	target  netsim.Addr
	client  *netsim.Port
	server  *netsim.Port
	request []byte
	reply   []byte
	xid     uint32
}

func (h *forwardHarness) newLane(b *testing.B) *fwdLane {
	i := h.lanes.Add(1) - 1
	client, err := h.net.Bind(netsim.Addr{Host: uint32(2000 + i), Port: 999})
	if err != nil {
		b.Fatal(err)
	}
	server := h.servers[i%fwdLanes]
	fh := fhandle.Handle{Volume: 1, FileID: uint64(100 + i), Gen: 1, Site: i % uint32(h.logical)}
	args := nfsproto.AccessArgs{FH: fh, Access: 1}
	request := oncrpc.EncodeCall(1, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcAccess), args.Encode)
	reply := oncrpc.EncodeReply(1, oncrpc.AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(0) })
	return &fwdLane{target: h.virtual, client: client, server: server, request: request, reply: reply}
}

func (l *fwdLane) roundTrip(b *testing.B) {
	l.xid++
	binary.BigEndian.PutUint32(l.request[oncrpc.OffXid:], l.xid)
	binary.BigEndian.PutUint32(l.reply[oncrpc.OffXid:], l.xid)
	if err := l.client.SendTo(l.target, l.request); err != nil {
		b.Fatal(err)
	}
	d, err := l.server.Recv(0)
	if err != nil {
		b.Fatal(err)
	}
	src := netsim.Addr{
		Host: binary.BigEndian.Uint32(d[netsim.OffSrcHost:]),
		Port: binary.BigEndian.Uint16(d[netsim.OffSrcPort:]),
	}
	netsim.FreeBuf(d)
	if err := l.server.SendTo(src, l.reply); err != nil {
		b.Fatal(err)
	}
	d, err = l.client.Recv(0)
	if err != nil {
		b.Fatal(err)
	}
	netsim.FreeBuf(d)
}

// BenchmarkProxyForwardParallel drives concurrent request/response round
// trips through the µproxy data path from independent clients.
func BenchmarkProxyForwardParallel(b *testing.B) {
	h := newForwardHarness(b)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		l := h.newLane(b)
		for pb.Next() {
			l.roundTrip(b)
		}
	})
}

// BenchmarkProxyForwardSerial is the same path single-threaded, for
// per-op cost and allocation accounting.
func BenchmarkProxyForwardSerial(b *testing.B) {
	h := newForwardHarness(b)
	l := h.newLane(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.roundTrip(b)
	}
}

// newBulkLane is a lane whose round trip is a READ of unit bytes: the
// request is forwarded to the storage node the I/O policy places the
// stripe on, and that node's reply — data behind a placeholder attribute
// block, as storage.Node encodes it — comes back through the µproxy, which
// must patch attributes and the EOF flag into the received datagram rather
// than re-encode the data. One GETATTR round trip first puts the file's
// attributes in the µproxy's cache; without them the reply is re-encoded.
func (h *forwardHarness) newBulkLane(b *testing.B, unit uint32) *fwdLane {
	l := h.newLane(b)
	fh := fhandle.Handle{Volume: 1, FileID: 7000, Gen: 1, Type: uint8(attr.TypeReg)}
	at := attr.Attr{Type: attr.TypeReg, Nlink: 1, FileID: fh.FileID, Size: uint64(unit), Used: uint64(unit)}

	l.server = h.servers[fh.Site] // the file's directory server
	l.request = oncrpc.EncodeCall(1, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcGetAttr), (&nfsproto.GetAttrArgs{FH: fh}).Encode)
	l.reply = oncrpc.EncodeReply(1, oncrpc.AcceptSuccess, (&nfsproto.GetAttrRes{Status: nfsproto.OK, Attr: at}).Encode)
	l.roundTrip(b)

	addr, err := h.io.ReadTarget(fh, 0)
	if err != nil {
		b.Fatal(err)
	}
	l.server = h.servers[addr.Host-1000]
	data := make([]byte, unit)
	rargs := nfsproto.ReadArgs{FH: fh, Offset: 0, Count: unit}
	l.request = oncrpc.EncodeCall(1, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcRead), rargs.Encode)
	l.reply = oncrpc.EncodeReply(1, oncrpc.AcceptSuccess, func(e *xdr.Encoder) {
		nfsproto.EncodeRead(e, at, unit, func(p []byte) (int, bool) { return copy(p, data), true })
	})
	return l
}

// BenchmarkProxyBulkReply is the bulk twin of BenchmarkProxyForwardSerial:
// a 32 KiB READ request and reply through the µproxy. The gate holds it
// at 0 allocs/op — the in-place reply patch allocates nothing, where a
// re-encode costs a 40 KiB buffer per reply.
func BenchmarkProxyBulkReply(b *testing.B) {
	h := newForwardHarness(b)
	l := h.newBulkLane(b, 32<<10)
	b.ReportAllocs()
	b.SetBytes(32 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.roundTrip(b)
	}
}

// BenchmarkProxyHandleRead times Proxy.Handle alone on a READ request and
// its reply, at two reply sizes. The datagrams are built, and the ports
// the µproxy forwards them to are drained (where Recv verifies them), with
// the timer stopped. The paper's µproxy cost does not grow with the packet
// (§4.1): it repairs checksums differentially and never reads the data.
// BENCH_proxy.json's ratio rule holds the 32 KiB case to 1.3× the 4 KiB
// one, same run.
func BenchmarkProxyHandleRead(b *testing.B) {
	for _, sz := range []struct {
		name string
		unit uint32
	}{{"4KiB", 4 << 10}, {"32KiB", 32 << 10}} {
		b.Run(sz.name, func(b *testing.B) {
			h := newForwardHarness(b)
			l := h.newBulkLane(b, sz.unit)
			client, server := l.client.Addr(), l.server.Addr()
			drain := func(port *netsim.Port) {
				d, ok := port.TryRecv()
				if !ok {
					b.Fatalf("nothing forwarded to %v", port.Addr())
				}
				netsim.FreeBuf(d)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if i > 0 {
					drain(l.server)
					drain(l.client)
				}
				l.xid++
				binary.BigEndian.PutUint32(l.request[oncrpc.OffXid:], l.xid)
				binary.BigEndian.PutUint32(l.reply[oncrpc.OffXid:], l.xid)
				req, err := netsim.Build(client, h.virtual, l.request)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := netsim.Build(server, client, l.reply)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if h.p.Handle(req) != netsim.Consumed || h.p.Handle(rep) != netsim.Consumed {
					b.Fatal("the µproxy passed a READ datagram through")
				}
			}
			b.StopTimer()
			drain(l.server)
			drain(l.client)
		})
	}
}

// newLookupLane is a lane whose round trip is a LOOKUP: the name-path
// message, 128 bytes each way. The reply carries the child's attributes,
// which the µproxy observes and patches from its cache in the received
// datagram.
func (h *forwardHarness) newLookupLane(b *testing.B) *fwdLane {
	l := h.newLane(b)
	dir := fhandle.Handle{Volume: 1, FileID: 42, Gen: 1, Type: uint8(attr.TypeDir)}
	child := fhandle.Handle{Volume: 1, FileID: 43, Gen: 1, Type: uint8(attr.TypeReg)}
	l.server = h.servers[dir.Site]
	l.request = oncrpc.EncodeCall(1, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcLookup),
		(&nfsproto.LookupArgs{Dir: dir, Name: "f0001234.c"}).Encode)
	l.reply = oncrpc.EncodeReply(1, oncrpc.AcceptSuccess, (&nfsproto.LookupRes{Status: nfsproto.OK, FH: child,
		Attr: nfsproto.Some(attr.Attr{Type: attr.TypeReg, Mode: 0o644, Nlink: 1, FileID: child.FileID})}).Encode)
	return l
}

// BenchmarkProxyLookupPair is the name-path twin of
// BenchmarkProxyBulkReply: a LOOKUP request and its reply through the
// µproxy, the pair benchmark/ledger.go reports as proxy.handle_*. The gate
// holds it at 1 alloc/op — the name string nfsproto.ParseCall makes of the
// request; the reply is patched in place and allocates nothing, where the
// decode and re-encode it replaced cost four.
func BenchmarkProxyLookupPair(b *testing.B) {
	h := newForwardHarness(b)
	l := h.newLookupLane(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.roundTrip(b)
	}
}

// BenchmarkRPCNullCall is one NULL call from an oncrpc.Client to an
// oncrpc.Server over a bare fabric: the RPC layer's own cost per message,
// which every name operation pays twice over (client to µproxy-routed
// server and back). The gate holds its allocations: the two message
// encoders and the server's duplicate-request-cache copy of the reply.
func BenchmarkRPCNullCall(b *testing.B) {
	n := netsim.New(netsim.Config{})
	sp, err := n.Bind(netsim.Addr{Host: 3, Port: 2049})
	if err != nil {
		b.Fatal(err)
	}
	srv := oncrpc.NewServer(sp, oncrpc.HandlerFunc(func(oncrpc.Call, netsim.Addr) (func(*xdr.Encoder), uint32) {
		return nil, oncrpc.AcceptSuccess
	}))
	defer srv.Close()
	cp, err := n.BindAny(4)
	if err != nil {
		b.Fatal(err)
	}
	cli := oncrpc.NewClient(cp, srv.Addr(), oncrpc.ClientConfig{})
	defer cli.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcNull), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fleet scale-out benchmark ------------------------------------------
//
// BenchmarkFleetForward measures aggregate forwarded throughput as the
// proxy fleet grows. Raw forwarding is far too cheap to expose scaling on
// this container (one core; see BENCH_proxy.json), so every fleet member
// runs with a paced service loop (Config.ServiceTime) that caps it at a
// fixed per-proxy rate — the saturated-CPU regime of §5. Scaling then
// shows up the way it does in the paper: N shared-nothing proxies deliver
// N times the aggregate rate, because no request ever crosses two members
// and nothing is shared but the (read-mostly) routing tables.

// fleetServiceTime is each member's paced per-request cost: one proxy
// saturates at 1/fleetServiceTime = 20k fwd-ops/s.
const fleetServiceTime = 50 * time.Microsecond

// fleetHarness is the forward-path rig scaled out: n paced µproxies over
// one set of shared routing tables, fronted by the consistent-hash ring
// that assigns each lane's flow to its owner.
type fleetHarness struct {
	net     *netsim.Network
	proxies []*proxy.Proxy
	ring    *front.Ring
	servers []*netsim.Port
}

func newFleetHarness(b *testing.B, n int) *fleetHarness {
	b.Helper()
	net := netsim.New(netsim.Config{QueueLen: 1024})
	dirAddrs := make([]netsim.Addr, fwdLanes)
	servers := make([]*netsim.Port, fwdLanes)
	for i := range dirAddrs {
		dirAddrs[i] = netsim.Addr{Host: uint32(1000 + i), Port: 2049}
		port, err := net.Bind(dirAddrs[i])
		if err != nil {
			b.Fatal(err)
		}
		servers[i] = port
	}
	dirs := route.NewTable(fwdLanes, dirAddrs)
	storage := route.NewTable(fwdLanes, dirAddrs)
	members := make([]route.ProxyMember, n)
	proxies := make([]*proxy.Proxy, n)
	for i := 0; i < n; i++ {
		virtual := netsim.Addr{Host: uint32(9000 + i), Port: 2049}
		host := uint32(8900 + i)
		// Per-member observability stays on, as in the single-proxy
		// benchmarks: the 0 allocs/op budget covers tracing.
		p := proxy.New(proxy.Config{
			Net:         net,
			Host:        host,
			Virtual:     virtual,
			ID:          uint32(i),
			ServiceTime: fleetServiceTime,
			IO:          route.NewIOPolicy(nil, storage),
			Names:       route.NewNamePolicy(route.MkdirSwitching, 0, dirs),
			Obs:         obs.NewRegistry(fmt.Sprintf("uproxy[%d]", i)),
			Tracer:      obs.NewTracer(256),
		})
		b.Cleanup(p.Close)
		proxies[i] = p
		members[i] = route.ProxyMember{ID: uint32(i), Virtual: virtual, Host: host}
	}
	return &fleetHarness{
		net:     net,
		proxies: proxies,
		ring:    front.NewRing(route.NewFleet(members), 0),
		servers: servers,
	}
}

// newLane builds lane i exactly like the single-proxy harness, except the
// lane's target is whichever fleet member the front ring hashes its flow
// to. Returns the owning member's ID so the benchmark can check coverage.
func (h *fleetHarness) newLane(b *testing.B, i uint32) (*fwdLane, uint32) {
	clientAddr := netsim.Addr{Host: uint32(2000 + i), Port: 999}
	client, err := h.net.Bind(clientAddr)
	if err != nil {
		b.Fatal(err)
	}
	fh := fhandle.Handle{Volume: 1, FileID: uint64(100 + i), Gen: 1, Site: i % fwdLanes}
	owner, ok := h.ring.Owner(front.FlowKey(clientAddr, fhandle.HandleKey(fh)))
	if !ok {
		b.Fatal("empty fleet")
	}
	args := nfsproto.AccessArgs{FH: fh, Access: 1}
	request := oncrpc.EncodeCall(1, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcAccess), args.Encode)
	reply := oncrpc.EncodeReply(1, oncrpc.AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(0) })
	return &fwdLane{
		target:  owner.Virtual,
		client:  client,
		server:  h.servers[i%fwdLanes],
		request: request,
		reply:   reply,
	}, owner.ID
}

// BenchmarkFleetForward drives fwdLanes concurrent closed-loop clients
// through a 1/2/4/8-member fleet of rate-paced proxies. ns/op should
// track fleetServiceTime/N — near-linear aggregate scaling — and each
// member must stay at 0 allocs per forwarded request with tracing on.
// Gated by BENCH_proxy.json (ratio rules + exact allocs).
func BenchmarkFleetForward(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("proxies=%d", n), func(b *testing.B) {
			h := newFleetHarness(b, n)
			lanes := make([]*fwdLane, fwdLanes)
			owned := make(map[uint32]bool)
			for i := range lanes {
				lane, owner := h.newLane(b, uint32(i))
				lanes[i] = lane
				owned[owner] = true
			}
			if len(owned) != n {
				b.Fatalf("lanes land on %d of %d fleet members", len(owned), n)
			}
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for i, l := range lanes {
				// Split b.N across the closed-loop lanes; GOMAXPROCS may be 1
				// here, so RunParallel would collapse to a single lane and
				// starve all but one member.
				ops := b.N / len(lanes)
				if i < b.N%len(lanes) {
					ops++
				}
				if ops == 0 {
					continue
				}
				wg.Add(1)
				go func(l *fwdLane, ops int) {
					defer wg.Done()
					for j := 0; j < ops; j++ {
						l.roundTrip(b)
					}
				}(l, ops)
			}
			wg.Wait()
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(b.N)/s, "fwd-ops/s")
			}
		})
	}
}

// BenchmarkAttrCacheHitParallel measures the sharded attribute-cache hit
// path under concurrent readers.
func BenchmarkAttrCacheHitParallel(b *testing.B) {
	e, c, fh := cacheHitEnsemble(b)
	defer e.Close()
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if ok, _ := e.Proxy.CachedAttr(fh); !ok {
				b.Fatal("attr cache miss")
			}
		}
	})
}

// cacheHitEnsemble stands up an ensemble with one file whose attributes
// are resident in the µproxy's cache.
func cacheHitEnsemble(b *testing.B) (*ensemble.Ensemble, *client.Client, fhandle.Handle) {
	b.Helper()
	e, err := ensemble.New(ensemble.Config{
		StorageNodes: 2, DirServers: 2, SmallFileServers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := e.NewClient()
	if err != nil {
		e.Close()
		b.Fatal(err)
	}
	fh, _, err := c.Create(c.Root(), "hot", 0o644, true)
	if err != nil {
		e.Close()
		b.Fatal(err)
	}
	if _, err := c.Write(fh, 0, []byte("x"), false); err != nil {
		e.Close()
		b.Fatal(err)
	}
	return e, c, fh
}

// BenchmarkLiveUntarThroughput measures end-to-end live-stack throughput
// for the name-intensive workload (ops/sec through the full µproxy and
// directory-server path).
func BenchmarkLiveUntarThroughput(b *testing.B) {
	e, err := ensemble.New(ensemble.Config{
		StorageNodes: 2, DirServers: 2, SmallFileServers: 1,
		Coordinator: true, NameKind: route.MkdirSwitching, MkdirP: 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	c, err := e.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	ops := 0
	for i := 0; i < b.N; i++ {
		st, err := workload.Untar(c, c.Root(), workload.UntarConfig{
			Entries: 200, Prefix: fmt.Sprintf("bench%d", i),
		})
		if err != nil {
			b.Fatal(err)
		}
		ops += st.NFSOps
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "nfs-ops/s")
}

// ----------------------------------------------------- windowed bulk I/O

// newBulkArray builds an all-striped storage array — no small-file
// servers, so every byte takes the striped READ/WRITE path — over a
// fabric with per-datagram latency. With wire latency rather than host
// CPU as the bottleneck (the regime a real network presents), the
// serial client pays a full round trip per chunk while the windowed
// client overlaps a window's worth; the gap between the two is the
// pipelining win the bulk-I/O gate holds.
func newBulkArray(b *testing.B, nodes int) *ensemble.Ensemble {
	b.Helper()
	e, err := ensemble.New(ensemble.Config{
		StorageNodes: nodes, DirServers: 1, SmallFileServers: 0,
		Coordinator: true, NameKind: route.MkdirSwitching,
		Net: netsim.Config{Latency: 200 * time.Microsecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	return e
}

func bulkClient(b *testing.B, e *ensemble.Ensemble, serial bool) *client.Client {
	b.Helper()
	var (
		c   *client.Client
		err error
	)
	if serial {
		c, err = e.NewSerialClient()
	} else {
		c, err = e.NewClient()
	}
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// bulkBenchBytes is the per-iteration transfer; 64KB application I/O
// matches the dd workload (and the stripe-unit multiple), so serial and
// windowed runs issue identical chunk sequences.
const (
	bulkBenchBytes = 2 << 20
	bulkBenchIO    = 64 << 10
)

func reportBulkMBps(b *testing.B) {
	b.ReportMetric(float64(b.N)*bulkBenchBytes/1e6/b.Elapsed().Seconds(), "MB/s")
}

func benchBulkWrite(b *testing.B, nodes int, serial bool) {
	e := newBulkArray(b, nodes)
	c := bulkClient(b, e, serial)
	data := make([]byte, bulkBenchBytes)
	for i := range data {
		data[i] = byte(i * 131)
	}
	fh, _, err := c.Create(c.Root(), "bulk", 0o644, false)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(bulkBenchBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < bulkBenchBytes; off += bulkBenchIO {
			if _, err := c.Write(fh, uint64(off), data[off:off+bulkBenchIO], false); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := c.Commit(fh); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportBulkMBps(b)
}

func benchBulkRead(b *testing.B, nodes int, serial bool) {
	e := newBulkArray(b, nodes)
	c := bulkClient(b, e, serial)
	data := make([]byte, bulkBenchBytes)
	for i := range data {
		data[i] = byte(i * 131)
	}
	fh, _, err := c.Create(c.Root(), "bulk", 0o644, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.WriteFile(fh, data); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, bulkBenchIO)
	b.SetBytes(bulkBenchBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < bulkBenchBytes; off += bulkBenchIO {
			n, _, err := c.Read(fh, uint64(off), buf)
			if err != nil || n != bulkBenchIO {
				b.Fatalf("read at %d: n=%d, %v", off, n, err)
			}
		}
	}
	b.StopTimer()
	reportBulkMBps(b)
}

// BenchmarkBulkRead measures dd-style sequential read bandwidth over
// arrays of 1/2/4/8 storage nodes through the windowed client (window =
// stripe width × per-node queue depth), plus the serial (window=1)
// baseline on the 4-node array. The windowed nodes=N entries gate via
// BENCH_bulkio.json; the serial run is the recorded baseline the ≥2×
// speedup claim is measured against.
func BenchmarkBulkRead(b *testing.B) {
	b.Run("serial/nodes=4", func(b *testing.B) { benchBulkRead(b, 4, true) })
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) { benchBulkRead(b, n, false) })
	}
}

// BenchmarkBulkWrite is the write-side twin: unstable 64KB writes
// coalesced and fanned out by the write-behind engine, one COMMIT
// barrier per 2MB transfer.
func BenchmarkBulkWrite(b *testing.B) {
	b.Run("serial/nodes=4", func(b *testing.B) { benchBulkWrite(b, 4, true) })
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) { benchBulkWrite(b, n, false) })
	}
}

// BenchmarkStorageChurn is ddwrite as one storage node sees it: fill a
// 1 MiB object with 32 KiB unstable writes, commit it, remove it, repeat.
// Every block of an object is claimed from the blocks the last one gave
// back (DESIGN.md §14.1), so an op allocates the object record, its block
// map and its unstable list and not one byte of block data; the
// BENCH_bulkio.json row holds allocs_op and b_op there. Its 1 MiB working
// set stays in L2: BenchmarkStorageChurnCold is the same cycle out of it.
func BenchmarkStorageChurn(b *testing.B) {
	const (
		objectBytes = 1 << 20
		writeBytes  = 32 << 10
	)
	s := storage.NewObjectStore()
	p := make([]byte, writeBytes)
	for i := range p {
		p[i] = byte(i * 131)
	}
	cycle := func(id storage.ObjectID) {
		for off := int64(0); off < objectBytes; off += writeBytes {
			if err := s.WriteAt(id, off, p, false); err != nil {
				b.Fatal(err)
			}
		}
		s.Commit(id)
		s.Remove(id)
	}
	cycle(1) // the first object's blocks are the only ones ever allocated
	b.SetBytes(objectBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(storage.ObjectID(i + 2))
	}
}

// BenchmarkStorageChurnCold is BenchmarkStorageChurn with the blocks
// cold, as a ddwrite storage node's are: 64 objects of 1 MiB stay live,
// and an op removes the oldest, then writes (32 KiB unstable writes) and
// commits a new one. The free list is a LIFO, so every block the new
// object claims is one the removed object gave back, last written 64 MiB
// of traffic ago — past both cores' L2 — and WriteAt fills it through
// copyCold (DESIGN.md §14.1).
func BenchmarkStorageChurnCold(b *testing.B) {
	const (
		objectBytes = 1 << 20
		writeBytes  = 32 << 10
		live        = 64
	)
	s := storage.NewObjectStore()
	p := make([]byte, writeBytes)
	for i := range p {
		p[i] = byte(i * 131)
	}
	fill := func(id storage.ObjectID) {
		for off := int64(0); off < objectBytes; off += writeBytes {
			if err := s.WriteAt(id, off, p, false); err != nil {
				b.Fatal(err)
			}
		}
		s.Commit(id)
	}
	for id := storage.ObjectID(1); id <= live; id++ {
		fill(id)
	}
	b.SetBytes(objectBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := storage.ObjectID(live + 1 + i)
		s.Remove(id - live)
		fill(id)
	}
}

// BenchmarkWriteBehind64K is the client's share of a bulk write and
// nothing else: 64 KiB aligned unstable writes, one COMMIT per 2 MiB,
// against a server that acknowledges every call and keeps nothing, over a
// fabric with no latency. A 64 KiB aligned write completes exactly two
// chunks and leaves nothing in the tail (TestWriteBehindMatchesCarve), so
// the client copies each payload byte once, into the pooled buffer it is
// sent from; b_op holds the pool to that — a chunk buffer that stopped
// being recycled would show as 32 KiB per chunk.
func BenchmarkWriteBehind64K(b *testing.B) {
	net := netsim.New(netsim.Config{})
	port, err := net.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		b.Fatal(err)
	}
	srv := oncrpc.NewServer(port, oncrpc.HandlerFunc(func(call oncrpc.Call, _ netsim.Addr) (func(*xdr.Encoder), uint32) {
		switch nfsproto.Proc(call.Proc) {
		case nfsproto.ProcWrite:
			var a nfsproto.WriteArgs
			if a.Decode(xdr.NewDecoder(call.Body)) != nil {
				return nil, oncrpc.AcceptGarbageArgs
			}
			return (&nfsproto.WriteRes{Status: nfsproto.OK, Count: a.Count, Verf: 1}).Encode, oncrpc.AcceptSuccess
		case nfsproto.ProcCommit:
			return (&nfsproto.CommitRes{Status: nfsproto.OK, Verf: 1}).Encode, oncrpc.AcceptSuccess
		}
		return nil, oncrpc.AcceptProcUnavail
	}))
	b.Cleanup(srv.Close)
	c, err := client.New(client.Config{Net: net, Host: 100, Server: srv.Addr()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	fh := fhandle.Handle{Volume: 1, FileID: 9, Type: uint8(attr.TypeReg), CellKey: 9, Gen: 1}
	data := make([]byte, bulkBenchBytes)
	for i := range data {
		data[i] = byte(i * 131)
	}
	const base = 1 << 20 // above the small-file threshold, stripe-aligned
	pass := func() {
		for off := 0; off < bulkBenchBytes; off += bulkBenchIO {
			if _, err := c.Write(fh, uint64(base+off), data[off:off+bulkBenchIO], false); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := c.Commit(fh); err != nil {
			b.Fatal(err)
		}
	}
	pass() // the testing package collects before each run: refill the pools
	b.SetBytes(bulkBenchBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// ------------------------------------------------ replica read scaling
//
// BenchmarkReplicaRead measures aggregate read throughput as one replica
// group grows from k=1 to k=3 members. Raw storage reads are too cheap
// to expose scaling on one core, so every storage node is paced
// (Config.StorageServiceTime) at a fixed per-node rate — the
// saturated-server regime Harmonia-style read spreading exists for. The
// file is written and committed before the timer starts, so the object
// is clean and the µproxy's dirty set lets every read spread across the
// group by power-of-two-choices; throughput should then track k times
// the single-node rate. Gated by BENCH_replica.json (ratio rules
// measured within one run, so no machine tolerance is needed).

const (
	// replicaServiceTime paces each storage node: one node saturates at
	// 1/replicaServiceTime ≈ 6.7k reads/s, so k clean replicas deliver
	// ~k× that in aggregate.
	replicaServiceTime = 150 * time.Microsecond
	// replicaReadLanes closed-loop readers keep every member busy
	// without flooding the paced queues.
	replicaReadLanes = 8
	// One stripe unit per op: each read is exactly one storage READ RPC.
	replicaReadIO    = 32 << 10
	replicaFileBytes = 1 << 20
)

// newReplicaArray builds a k-member single-group replicated array with
// paced nodes. All-striped (no small-file servers), so every read takes
// the spread-capable bulk path.
func newReplicaArray(b *testing.B, k int) *ensemble.Ensemble {
	b.Helper()
	e, err := ensemble.New(ensemble.Config{
		StorageNodes: k, Replication: k,
		DirServers: 1, SmallFileServers: 0,
		Coordinator: true, NameKind: route.MkdirSwitching,
		StorageServiceTime: replicaServiceTime,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	return e
}

func benchReplicaRead(b *testing.B, k int) {
	e := newReplicaArray(b, k)
	w := bulkClient(b, e, false)
	data := make([]byte, replicaFileBytes)
	for i := range data {
		data[i] = byte(i * 131)
	}
	fh, _, err := w.Create(w.Root(), "rep", 0o644, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.WriteFile(fh, data); err != nil {
		b.Fatal(err)
	}
	// Serial clients (window=1): one paced storage READ per op, no
	// readahead inflating the offered load.
	lanes := make([]*client.Client, replicaReadLanes)
	for i := range lanes {
		lanes[i] = bulkClient(b, e, true)
	}
	const nchunks = replicaFileBytes / replicaReadIO
	var wg sync.WaitGroup
	b.SetBytes(replicaReadIO)
	b.ReportAllocs()
	b.ResetTimer()
	for i, c := range lanes {
		// Split b.N across the closed-loop lanes (GOMAXPROCS may be 1;
		// RunParallel would collapse to one lane).
		ops := b.N / len(lanes)
		if i < b.N%len(lanes) {
			ops++
		}
		if ops == 0 {
			continue
		}
		wg.Add(1)
		go func(c *client.Client, lane, ops int) {
			defer wg.Done()
			buf := make([]byte, replicaReadIO)
			for j := 0; j < ops; j++ {
				off := uint64((lane*nchunks/replicaReadLanes + j) % nchunks * replicaReadIO)
				n, _, err := c.Read(fh, off, buf)
				if err != nil || n != replicaReadIO {
					b.Errorf("read at %d: n=%d, %v", off, n, err)
					return
				}
			}
		}(c, i, ops)
	}
	wg.Wait()
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "reads/s")
	}
}

// BenchmarkReplicaRead drives the closed-loop read lanes against
// replica groups of 1/2/3 paced members. ns/op should track
// replicaServiceTime/k; BENCH_replica.json gates the k=2/k=3 speedups
// over k=1 at ≥1.6×/2.2×.
func BenchmarkReplicaRead(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) { benchReplicaRead(b, k) })
	}
}

// --------------------------------------------------- real-wire serving
//
// BenchmarkWireRead/BenchmarkWireWrite measure the full TCP serving
// path: a client on a real loopback socket, record-marked ONC-RPC
// through the wire gateway, the interposed µproxy, and a 4-node striped
// array. At a 128 KiB stripe unit every bulk chunk rides a single
// record bigger than the old 96 KiB datagram cap — the property
// BENCH_wire.json gates alongside throughput.

const (
	wireStripe    = 128 << 10
	wireFileBytes = 2 << 20
)

// newWireBench builds an all-striped TCP-served ensemble and a client
// dialed through its gateway.
func newWireBench(b *testing.B) (*ensemble.Ensemble, *client.Client) {
	b.Helper()
	e, err := ensemble.New(ensemble.Config{
		StorageNodes: 4, DirServers: 1, SmallFileServers: 0,
		Coordinator: true, StripeUnit: wireStripe,
		TCPListen: "127.0.0.1:0",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	conn, err := wire.Dial(e.Gateways[0].Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	c := client.NewWithConn(conn, client.Config{Server: e.Virtual, StripeUnit: wireStripe})
	b.Cleanup(c.Close)
	if err := c.Mount(); err != nil {
		b.Fatal(err)
	}
	return e, c
}

// assertWireRecords fails the benchmark if no record crossed the old
// datagram cap: the stream path must not be silently datagram-bound.
func assertWireRecords(b *testing.B, e *ensemble.Ensemble) {
	b.Helper()
	const oldCap = 96 * 1024
	st := e.Gateways[0].Stats()
	if st.MaxRxRecord <= oldCap && st.MaxTxRecord <= oldCap {
		b.Fatalf("no record exceeded %d bytes (rx max %d, tx max %d)",
			oldCap, st.MaxRxRecord, st.MaxTxRecord)
	}
}

func BenchmarkWireRead(b *testing.B) {
	e, c := newWireBench(b)
	data := make([]byte, wireFileBytes)
	for i := range data {
		data[i] = byte(i * 37)
	}
	fh, _, err := c.Create(c.Root(), "wire-read", 0o644, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.WriteFile(fh, data); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, wireStripe)
	b.SetBytes(wireFileBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < wireFileBytes; off += wireStripe {
			n, _, err := c.Read(fh, uint64(off), buf)
			if err != nil || n != wireStripe {
				b.Fatalf("read at %d: n=%d, %v", off, n, err)
			}
		}
	}
	b.StopTimer()
	assertWireRecords(b, e)
}

func BenchmarkWireWrite(b *testing.B) {
	e, c := newWireBench(b)
	data := make([]byte, wireFileBytes)
	for i := range data {
		data[i] = byte(i * 41)
	}
	fh, _, err := c.Create(c.Root(), "wire-write", 0o644, false)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(wireFileBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteFile(fh, data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	assertWireRecords(b, e)
}

// ------------------------------------------------ rebalance throughput
//
// BenchmarkRebalanceThroughput measures online migration bandwidth:
// grow a four-node array to six while a SPECsfs-like foreground mix
// runs against it, and report the driver's copy traffic as MB/s (only
// bytes the migration itself moved count — double-written foreground
// traffic lands via the I/O policy, not the driver). Each op is a full
// ensemble lifecycle, so run it with a small -benchtime count. Gated by
// BENCH_rebalance.json.
func BenchmarkRebalanceThroughput(b *testing.B) {
	var movedMB, secs float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := ensemble.New(ensemble.Config{
			StorageNodes: 4, DirServers: 2, SmallFileServers: 1,
			Coordinator: true, NameKind: route.MkdirSwitching,
			LogicalSites: 12,
		})
		if err != nil {
			b.Fatal(err)
		}
		c, err := e.NewClient()
		if err != nil {
			b.Fatal(err)
		}
		// Bulk ballast is what the driver actually has to move.
		if _, err := workload.DD(c, c.Root(), workload.DDConfig{
			Name: "rebal-ballast", Bytes: 8 << 20, Write: true,
		}); err != nil {
			b.Fatal(err)
		}
		loadDone := make(chan error, 1)
		go func() {
			_, err := workload.Sfs(c, c.Root(), workload.SfsConfig{
				Files: 40, Ops: 600, Prefix: "rebal-load", Seed: 3,
			})
			loadDone <- err
		}()
		b.StartTimer()
		start := time.Now()
		if err := e.Grow(2); err != nil {
			b.Fatal(err)
		}
		secs += time.Since(start).Seconds()
		b.StopTimer()
		movedMB += float64(e.RebalanceStatus().BytesMoved) / (1 << 20)
		if err := <-loadDone; err != nil {
			b.Fatalf("foreground mix failed during grow: %v", err)
		}
		c.Close()
		e.Close()
	}
	if secs > 0 {
		b.ReportMetric(movedMB/secs, "MB/s")
	}
}
