package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"slice/internal/attr"
	"slice/internal/coord"
	"slice/internal/dirsrv"
	"slice/internal/fhandle"
	"slice/internal/front"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/proxy"
	"slice/internal/route"
	"slice/internal/smallfile"
	"slice/internal/storage"
	"slice/internal/wal"
	"slice/internal/wire"
	"slice/internal/xdr"
)

// The ledger characterises each layer alone, the way the Linux
// disk/RAID measurement paper (PAPERS.md) characterises each level of a
// storage stack before composing them: a loop in this package calls the
// layer's exported functions directly, on the request shapes the four
// workloads generate — a 128-byte name-op message, a 4 KiB small-file
// I/O, a 32 KiB stripe-unit chunk. Every entry is the minimum of three
// timed loops of one calibrated length.

const (
	ledgerRuns = 3
	// checkpointEvery bounds the in-memory journals the loops append to.
	checkpointEvery = 8192
	smallMsg        = 128
	smallIO         = 4 << 10
	chunk           = 32 << 10
)

// timeLoop calibrates an iteration count so one loop lasts about budget,
// runs the loop ledgerRuns times and returns the best ns per iteration.
// loop(n) must run n iterations.
func timeLoop(budget time.Duration, loop func(n int)) float64 {
	n := 16
	for {
		t0 := time.Now()
		loop(n)
		el := time.Since(t0)
		if el >= budget/4 || n >= 1<<28 {
			n = int(float64(n) * float64(budget) / float64(el+1))
			break
		}
		n *= 4
	}
	if n < 1 {
		n = 1
	}
	best := 0.0
	for r := 0; r < ledgerRuns; r++ {
		t0 := time.Now()
		loop(n)
		per := float64(time.Since(t0)) / float64(n)
		if r == 0 || per < best {
			best = per
		}
	}
	return best
}

// allocsPer returns heap allocations per iteration of loop(n).
func allocsPer(n int, loop func(n int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	loop(n)
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

var ledgerFH = fhandle.Handle{Volume: 1, FileID: 42, Type: uint8(attr.TypeDir), CellKey: 42, Gen: 1}

// runLedger measures every L metric, spending about budget per timed
// loop.
func runLedger(budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	for _, part := range []func(time.Duration, map[string]float64) error{
		ledgerCodec, ledgerFabric, ledgerWire, ledgerProxy, ledgerRoute,
		ledgerDirsrv, ledgerStores, ledgerCoordWAL,
	} {
		if err := part(budget, m); err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
	}
	return m, nil
}

// ledgerCodec: xdr and nfsproto, no I/O.
func ledgerCodec(budget time.Duration, m map[string]float64) error {
	lookup := nfsproto.LookupArgs{Dir: ledgerFH, Name: "f0001234.c"}
	data := make([]byte, chunk)
	enc := xdr.NewEncoder(chunk + 256)
	var sink int

	m["xdr.small_msg_ns"] = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			enc.Reset()
			lookup.Encode(enc)
			var out nfsproto.LookupArgs
			if out.Decode(xdr.NewDecoder(enc.Bytes())) == nil {
				sink += len(out.Name)
			}
		}
	})
	m["xdr.opaque_ns_per_kib"] = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			enc.Reset()
			enc.PutOpaque(data)
			p, _ := xdr.NewDecoder(enc.Bytes()).Opaque()
			sink += len(p)
		}
	}) / (chunk >> 10)

	// The two bodies the µproxy parses most: a LOOKUP, and a WRITE whose
	// header it reads without touching the payload.
	enc.Reset()
	lookup.Encode(enc)
	lookupBody := append([]byte(nil), enc.Bytes()...)
	write := nfsproto.WriteArgs{FH: ledgerFH, Offset: 1 << 20, Count: chunk, Stable: nfsproto.Unstable, Data: data}
	enc.Reset()
	write.Encode(enc)
	writeBody := append([]byte(nil), enc.Bytes()...)
	parse := func(n int) {
		for i := 0; i < n; i++ {
			a, _ := nfsproto.ParseCall(nfsproto.ProcLookup, lookupBody)
			b, _ := nfsproto.ParseCall(nfsproto.ProcWrite, writeBody)
			sink += len(a.Name) + int(b.Count)
		}
	}
	m["nfsproto.parse_call_ns"] = timeLoop(budget, parse) / 2

	read := nfsproto.ReadRes{Status: nfsproto.OK, Count: chunk, Data: data}
	renc := xdr.NewEncoder(chunk + 256)
	read.Encode(renc)
	readBody := renc.Bytes()
	bulk := func(n int) {
		for i := 0; i < n; i++ {
			enc.Reset()
			write.Encode(enc)
			var out nfsproto.ReadRes
			if out.Decode(xdr.NewDecoder(readBody)) == nil {
				sink += len(out.Data)
			}
		}
	}
	m["nfsproto.bulk_codec_ns_per_kib"] = timeLoop(budget, bulk) / (2 * chunk >> 10)
	m["nfsproto.allocs_per_msg"] = (allocsPer(1000, parse) + allocsPer(1000, bulk)) / 4
	_ = sink
	return nil
}

// ledgerFabric: a netsim hop, and a NULL call to a trivial oncrpc.Server
// over a bare fabric.
func ledgerFabric(budget time.Duration, m map[string]float64) error {
	net := netsim.New(netsim.Config{})
	a, err := net.Bind(netsim.Addr{Host: 1, Port: 1})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := net.Bind(netsim.Addr{Host: 2, Port: 1})
	if err != nil {
		return err
	}
	defer b.Close()
	for _, sz := range []struct {
		key string
		n   int
	}{{"netsim.hop_ns_128b", smallMsg}, {"netsim.hop_ns_32k", chunk}} {
		payload := make([]byte, sz.n)
		var herr error
		m[sz.key] = timeLoop(budget, func(n int) {
			for i := 0; i < n && herr == nil; i++ {
				if herr = a.SendTo(b.Addr(), payload); herr != nil {
					return
				}
				var d []byte
				if d, herr = b.Recv(0); herr == nil {
					netsim.FreeBuf(d)
				}
			}
		})
		if herr != nil {
			return herr
		}
	}

	sport, err := net.Bind(netsim.Addr{Host: 3, Port: 2049})
	if err != nil {
		return err
	}
	srv := oncrpc.NewServer(sport, oncrpc.HandlerFunc(func(oncrpc.Call, netsim.Addr) (func(*xdr.Encoder), uint32) {
		return nil, oncrpc.AcceptSuccess
	}))
	defer srv.Close()
	cport, err := net.BindAny(4)
	if err != nil {
		return err
	}
	cli := oncrpc.NewClient(cport, srv.Addr(), oncrpc.ClientConfig{})
	defer cli.Close()
	var cerr error
	null := func(n int) {
		for i := 0; i < n && cerr == nil; i++ {
			_, cerr = cli.Call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcNull), nil)
		}
	}
	m["oncrpc.null_rtt_us"] = timeLoop(budget, null) / 1e3
	m["oncrpc.allocs_per_call"] = allocsPer(1000, null)
	return cerr
}

// ledgerWire: one record round trip wire.Dial → Gateway → an echo port
// on the fabric, over loopback TCP.
func ledgerWire(budget time.Duration, m map[string]float64) error {
	net := netsim.New(netsim.Config{})
	virtual := netsim.Addr{Host: 100, Port: 2049}
	echo, err := net.Bind(virtual)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			d, err := echo.Recv(0)
			if err != nil {
				return
			}
			if h, err := netsim.Parse(d); err == nil {
				_ = echo.SendTo(h.Src, netsim.Payload(d)) // a lost echo shows as a Recv timeout below
			}
			netsim.FreeBuf(d)
		}
	}()
	defer func() { echo.Close(); <-done }()
	gw, err := wire.NewGateway("127.0.0.1:0", net, virtual)
	if err != nil {
		return err
	}
	defer gw.Close()
	conn, err := wire.Dial(gw.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	for _, sz := range []struct {
		key string
		n   int
	}{{"wire.rtt_us_128b", smallMsg}, {"wire.rtt_us_32k", chunk}} {
		payload := make([]byte, sz.n)
		var werr error
		m[sz.key] = timeLoop(budget, func(n int) {
			for i := 0; i < n && werr == nil; i++ {
				if werr = conn.SendTo(virtual, payload); werr != nil {
					return
				}
				var d []byte
				if d, werr = conn.Recv(time.Second); werr == nil {
					netsim.FreeBuf(d)
				}
			}
		}) / 1e3
		if werr != nil {
			return werr
		}
	}
	return nil
}

// ledgerProxy: Proxy.Handle on a prepared LOOKUP request datagram and on
// its reply, timed apart. Requests are handled in batches that fit the
// server port's queue; draining the queues between batches is untimed.
func ledgerProxy(budget time.Duration, m map[string]float64) error {
	const batch = 256
	net := netsim.New(netsim.Config{QueueLen: 2 * batch})
	dirAddr := netsim.Addr{Host: 30, Port: 2049}
	server, err := net.Bind(dirAddr)
	if err != nil {
		return err
	}
	defer server.Close()
	client, err := net.Bind(netsim.Addr{Host: 200, Port: 999})
	if err != nil {
		return err
	}
	defer client.Close()
	virtual := netsim.Addr{Host: 100, Port: 2049}
	dirs := route.NewRingTable([]netsim.Addr{dirAddr})
	p := proxy.New(proxy.Config{
		Net: net, Host: 99, Virtual: virtual,
		IO:    route.NewIOPolicy(nil, route.NewTable(1, []netsim.Addr{dirAddr})),
		Names: route.NewNamePolicy(route.MkdirSwitching, 0.25, dirs),
	})
	defer p.Close()

	args := nfsproto.LookupArgs{Dir: ledgerFH, Name: "f0001234.c"}
	request := oncrpc.EncodeCall(1, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcLookup), args.Encode)
	child := ledgerFH
	child.FileID, child.Type = 43, uint8(attr.TypeReg)
	res := nfsproto.LookupRes{Status: nfsproto.OK, FH: child,
		Attr: nfsproto.Some(attr.Attr{Type: attr.TypeReg, Mode: 0o644, Nlink: 1, FileID: 43})}
	reply := oncrpc.EncodeReply(1, oncrpc.AcceptSuccess, res.Encode)

	var reqNS, repNS time.Duration
	var xid uint32
	var perr error
	reqs, reps := make([][]byte, batch), make([][]byte, batch)
	round := func() {
		for i := range reqs {
			xid++
			binary.BigEndian.PutUint32(request[oncrpc.OffXid:], xid)
			binary.BigEndian.PutUint32(reply[oncrpc.OffXid:], xid)
			if reqs[i], perr = netsim.Build(client.Addr(), virtual, request); perr != nil {
				return
			}
			if reps[i], perr = netsim.Build(dirAddr, client.Addr(), reply); perr != nil {
				return
			}
		}
		t0 := time.Now()
		for _, d := range reqs {
			p.Handle(d)
		}
		reqNS += time.Since(t0)
		for range reqs {
			d, err := server.Recv(time.Second)
			if err != nil {
				perr = fmt.Errorf("proxy did not forward the request: %w", err)
				return
			}
			netsim.FreeBuf(d)
		}
		t0 = time.Now()
		for _, d := range reps {
			p.Handle(d)
		}
		repNS += time.Since(t0)
		for range reps {
			d, err := client.Recv(time.Second)
			if err != nil {
				perr = fmt.Errorf("proxy did not return the reply: %w", err)
				return
			}
			netsim.FreeBuf(d)
		}
	}
	bestReq, bestRep := 0.0, 0.0
	for r := 0; r < ledgerRuns && perr == nil; r++ {
		reqNS, repNS = 0, 0
		rounds := 0
		for t0 := time.Now(); time.Since(t0) < budget && perr == nil; rounds++ {
			round()
		}
		n := float64(rounds * batch)
		if rq, rp := float64(reqNS)/n, float64(repNS)/n; r == 0 || rq+rp < bestReq+bestRep {
			bestReq, bestRep = rq, rp
		}
	}
	m["proxy.handle_ns_request"], m["proxy.handle_ns_reply"] = bestReq, bestRep
	m["proxy.handle_allocs"] = allocsPer(2*batch, func(int) { round() })
	return perr
}

// ledgerRoute: the placement decisions on the request path.
func ledgerRoute(budget time.Duration, m map[string]float64) error {
	addrs := func(base uint32, n int) []netsim.Addr {
		out := make([]netsim.Addr, n)
		for i := range out {
			out[i] = netsim.Addr{Host: base + uint32(i), Port: 2049}
		}
		return out
	}
	io := route.NewIOPolicy(route.NewRingTable(addrs(50, 2)), route.NewTable(0, addrs(10, 4)))
	fh := ledgerFH
	fh.Type = uint8(attr.TypeReg)
	var rerr error
	var sink int
	m["route.io_target_ns"] = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			a, err := io.ReadTarget(fh, uint64(i))
			ws, err2 := io.WriteTargets(fh, uint64(i))
			if err != nil || err2 != nil {
				rerr = fmt.Errorf("io target: %v %v", err, err2)
				return
			}
			sink += int(a.Port) + len(ws)
		}
	}) / 2
	names := route.NewNamePolicy(route.MkdirSwitching, 0.25, route.NewRingTable(addrs(30, 2)))
	info := nfsproto.RequestInfo{Proc: nfsproto.ProcLookup, FH: ledgerFH, Name: "f0001234.c", HasName: true}
	m["route.name_target_ns"] = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			a, err := names.AddrFor(&info)
			if err != nil {
				rerr = err
				return
			}
			sink += int(a.Port)
		}
	})
	ring := front.NewRing(route.NewFleet([]route.ProxyMember{{ID: 0, Virtual: netsim.Addr{Host: 100, Port: 2049}, Host: 99}}), 0)
	m["front.resolve_ns"] = timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			sink += int(ring.Resolve(uint64(i) * 0x9E3779B97F4A7C15).Port)
		}
	})
	_ = sink
	return rerr
}

// ledgerDirsrv: LOOKUP and CREATE as RPCs straight to a stand-alone
// directory server, minus the NULL round trip measured on the same kind
// of fabric — what is left is the server's handler and its WAL append.
func ledgerDirsrv(budget time.Duration, m map[string]float64) error {
	net := netsim.New(netsim.Config{})
	addr := netsim.Addr{Host: 30, Port: 2049}
	port, err := net.Bind(addr)
	if err != nil {
		return err
	}
	log, err := wal.Open(wal.NewMemStore())
	if err != nil {
		return err
	}
	srv := dirsrv.New(port, dirsrv.Config{
		Site: 0, Volume: 1, Kind: route.MkdirSwitching,
		Table: route.NewRingTable([]netsim.Addr{addr}), Log: log, Net: net, Host: 30,
	})
	defer srv.Close()
	root, err := srv.CreateRoot()
	if err != nil {
		return err
	}
	cport, err := net.BindAny(200)
	if err != nil {
		return err
	}
	cli := oncrpc.NewClient(cport, addr, oncrpc.ClientConfig{})
	defer cli.Close()
	call := func(proc nfsproto.Proc, args, res nfsproto.Msg) error {
		body, err := cli.Call(nfsproto.Program, nfsproto.Version, uint32(proc), args.Encode)
		if err != nil {
			return err
		}
		return res.Decode(xdr.NewDecoder(body))
	}
	var derr error
	created := 0
	create := func(n int) {
		for i := 0; i < n && derr == nil; i++ {
			args := nfsproto.CreateArgs{Dir: root, Name: fmt.Sprintf("f%07d.c", created), Exclusive: true,
				Sattr: attr.SetAttr{SetMode: true, Mode: 0o644}}
			created++
			var res nfsproto.CreateRes
			if derr = call(nfsproto.ProcCreate, &args, &res); derr == nil {
				derr = res.Status.Error()
			}
		}
	}
	m["dirsrv.create_rtt_us"] = timeLoop(budget, create)/1e3 - m["oncrpc.null_rtt_us"]
	k := 0
	m["dirsrv.lookup_rtt_us"] = timeLoop(budget, func(n int) {
		for i := 0; i < n && derr == nil; i++ {
			args := nfsproto.LookupArgs{Dir: root, Name: fmt.Sprintf("f%07d.c", k%created)}
			k++
			var res nfsproto.LookupRes
			if derr = call(nfsproto.ProcLookup, &args, &res); derr == nil {
				derr = res.Status.Error()
			}
		}
	})/1e3 - m["oncrpc.null_rtt_us"]
	return derr
}

// ledgerStores: the small-file store at 4 KiB and the object store at
// 32 KiB, called directly.
func ledgerStores(budget time.Duration, m map[string]float64) error {
	log, err := wal.Open(wal.NewMemStore())
	if err != nil {
		return err
	}
	small := smallfile.NewStore(storage.NewObjectStore(), storage.ObjectID(1), log)
	const files = 256
	fh := ledgerFH
	fh.Type = uint8(attr.TypeReg)
	block := make([]byte, smallIO)
	var serr error
	k := 0
	write := func(n int) {
		for i := 0; i < n && serr == nil; i++ {
			fh.FileID = uint64(1000 + k%files)
			if k++; k%checkpointEvery == 0 {
				serr = log.Checkpoint()
			}
			if serr == nil {
				serr = small.Write(fh, 0, block, true)
			}
		}
	}
	write(files) // the timed loop overwrites; first writes allocate
	m["smallfile.write_4k_ns"] = timeLoop(budget, write)
	m["smallfile.read_4k_ns"] = timeLoop(budget, func(n int) {
		for i := 0; i < n && serr == nil; i++ {
			fh.FileID = uint64(1000 + k%files)
			k++
			_, _, serr = small.Read(fh, 0, block)
		}
	})
	if serr != nil {
		return serr
	}

	// WriteAt on fresh extents, as ddwrite produces them: a new object
	// every 32 MiB, the previous one removed.
	store := storage.NewObjectStore()
	data := make([]byte, chunk)
	const perObject = ddFileSize / chunk
	w := 0
	m["storage.write_32k_ns"] = timeLoop(budget, func(n int) {
		for i := 0; i < n && serr == nil; i++ {
			id := storage.ObjectID(1 + w/perObject)
			if w%perObject == 0 && id > 1 {
				store.Remove(id - 1)
			}
			serr = store.WriteAt(id, int64(w%perObject)*chunk, data, false)
			w++
		}
	})
	if serr != nil {
		return serr
	}
	const rd = storage.ObjectID(1 << 40)
	for i := 0; i < perObject; i++ {
		if err := store.WriteAt(rd, int64(i)*chunk, data, false); err != nil {
			return err
		}
	}
	r := 0
	m["storage.read_32k_ns"] = timeLoop(budget, func(n int) {
		for i := 0; i < n && serr == nil; i++ {
			_, _, serr = store.ReadAt(rd, int64(r%perObject)*chunk, data)
			r++
		}
	})
	return serr
}

// ledgerCoordWAL: an intention's life at the coordinator, and a 128-byte
// AppendSync. Both journals are wal.MemStores: no device flush is in any
// WAL figure of this benchmark.
func ledgerCoordWAL(budget time.Duration, m map[string]float64) error {
	net := netsim.New(netsim.Config{})
	port, err := net.Bind(netsim.Addr{Host: 90, Port: 3049})
	if err != nil {
		return err
	}
	clog, err := wal.Open(wal.NewMemStore())
	if err != nil {
		return err
	}
	co := coord.New(port, coord.Config{
		Log: clog, Storage: route.NewTable(0, []netsim.Addr{{Host: 10, Port: 2049}}), Net: net, Host: 90,
	})
	defer co.Close()
	var cerr error
	m["coord.intend_complete_us"] = timeLoop(budget, func(n int) {
		for i := 0; i < n && cerr == nil; i++ {
			var id uint64
			if id, cerr = co.Intend(coord.OpRemove, ledgerFH, 0); cerr == nil {
				co.Complete(id)
			}
			if i%checkpointEvery == 0 && cerr == nil {
				cerr = clog.Checkpoint()
			}
		}
	}) / 1e3
	if cerr != nil {
		return cerr
	}

	log, err := wal.Open(wal.NewMemStore())
	if err != nil {
		return err
	}
	rec := make([]byte, smallMsg)
	m["wal.append_sync_ns"] = timeLoop(budget, func(n int) {
		for i := 0; i < n && cerr == nil; i++ {
			if _, cerr = log.AppendSync(1, rec); i%checkpointEvery == 0 && cerr == nil {
				cerr = log.Checkpoint()
			}
		}
	})
	return cerr
}
