// Command sliced runs a complete Slice ensemble — storage nodes, a
// block-service coordinator, directory servers, small-file servers, and
// the interposed µproxy — and exports the resulting virtual NFS server
// over real sockets through the ensemble's wire gateways: UDP always,
// record-marked TCP with -tcp. Point cmd/slicectl at the printed address.
//
//	sliced -storage 8 -dirs 4 -small 2 -policy switch -p 0.25 -listen 127.0.0.1:20490
//
// µproxies are freely replicable (§2.1): -proxies N fronts the ensemble
// with an N-member fleet — shared-nothing soft state, one set of routing
// tables — and member i listens at the -listen (and -tcp) port + i. The
// only constraint is that each client's request stream passes through a
// single µproxy; clients of different endpoints share the volume with no
// coordination between the members beyond their (read-mostly) tables.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"time"

	"slice/internal/ensemble"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/route"
	"slice/internal/wire"
)

func main() {
	var (
		storage = flag.Int("storage", 4, "number of storage nodes")
		dirs    = flag.Int("dirs", 2, "number of directory servers")
		small   = flag.Int("small", 2, "number of small-file servers")
		proxies = flag.Int("proxies", 1, "µproxy fleet size (1..8); member i listens at the -listen/-tcp port + i")
		policy  = flag.String("policy", "switch", "name-space policy: switch | hash")
		p       = flag.Float64("p", 0.25, "mkdir redirection probability (switch policy)")
		repl    = flag.Int("replication", 1, "k-way replica groups over the storage nodes (1 = unreplicated; -storage must be a multiple)")
		capkey  = flag.String("capkey", "", "storage capability key (enables the secure-object model)")
		listen  = flag.String("listen", "127.0.0.1:20490", "UDP listen address")
		tcp     = flag.String("tcp", "", "TCP listen address for record-marked ONC-RPC (empty = UDP only)")
		portmap = flag.String("portmap", "", "portmapper TCP listen address (requires -tcp; use :111 for real mount clients)")
		stats   = flag.Duration("stats", 10*time.Second, "stats print interval (0 = off)")
		pprof   = flag.String("pprof", "", "serve net/http/pprof, with mutex and block profiling armed, on this address (empty = off)")
	)
	flag.Parse()

	if *pprof != "" {
		// Contention profiling of the sharded data path: sample one mutex
		// event in 5 and every block of 10µs or more, served at
		// /debug/pprof/{mutex,block}.
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(10_000)
		go func() {
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				log.Printf("sliced: pprof server: %v", err)
			}
		}()
		fmt.Printf("sliced: pprof at http://%s/debug/pprof/\n", *pprof)
	}

	kind := route.MkdirSwitching
	if *policy == "hash" {
		kind = route.NameHashing
	}
	e, err := ensemble.New(ensemble.Config{
		StorageNodes:      *storage,
		DirServers:        *dirs,
		SmallFileServers:  *small,
		Proxies:           *proxies,
		Coordinator:       true,
		NameKind:          kind,
		MkdirP:            *p,
		Replication:       *repl,
		WritebackInterval: 2 * time.Second,
		CapabilityKey:     []byte(*capkey),
		UDPListen:         *listen,
		TCPListen:         *tcp,
		PortmapListen:     *portmap,
	})
	if err != nil {
		log.Fatalf("sliced: ensemble: %v", err)
	}
	defer e.Close()

	fmt.Printf("sliced: serving volume %v\n", e.Root)
	fmt.Printf("  storage nodes      : %d (replication %d)\n", len(e.Storage), max(1, *repl))
	fmt.Printf("  directory servers  : %d (%s, p=%.2f)\n", len(e.Dirs), kind, *p)
	fmt.Printf("  small-file servers : %d\n", len(e.Small))
	for i, g := range e.DatagramGateways {
		fmt.Printf("  µproxy #%d UDP      : %v -> %v (slicectl -connect %v <command>)\n", i, g.Addr(), e.VirtualOf(i), g.Addr())
	}
	for i, g := range e.Gateways {
		fmt.Printf("  µproxy #%d TCP      : %v (record-marked ONC-RPC; slicectl -tcp -connect %v <command>)\n", i, g.Addr(), g.Addr())
	}
	if e.Portmap != nil {
		fmt.Printf("  portmapper         : %v (program %d v%d)\n", e.Portmap.Addr(),
			nfsproto.PortmapProgram, nfsproto.PortmapVersion)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	var tick <-chan time.Time
	if *stats > 0 {
		t := time.NewTicker(*stats)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-sig:
			fmt.Println("\nsliced: shutting down")
			printStats(e)
			return
		case <-tick:
			printStats(e)
		}
	}
}

func printStats(e *ensemble.Ensemble) {
	for i, p := range e.Proxies {
		if p == nil {
			continue
		}
		st := p.Stats()
		pending := 0
		for _, sh := range p.ShardStats() {
			pending += sh.Pending
		}
		fmt.Printf("[stats] µproxy[%d]: %d reqs, %d resps, %d absorbed, %d initiated, %d dropped, %d pending\n",
			i, st.Requests, st.Responses, st.Absorbed, st.Initiated, st.Dropped, pending)
	}
	ps := netsim.PoolStats()
	fmt.Printf("[stats] bufpool: %d gets / %d puts / %d fresh allocs / %d foreign frees\n",
		ps.Gets, ps.Puts, ps.News, ps.Ignored)
	for i, d := range e.Dirs {
		c := d.Counters()
		ls := d.Log().Stats()
		fmt.Printf("[stats] dir[%d]: %d ops, %d peer calls, %d cross-site; journal %.1f KB, %.1f KB live, %d compactions in %.1f ms, longest step %.2f ms; %d outcomes held, peak %d\n",
			i, c.Ops, c.PeerCalls, c.CrossSite, float64(ls.Size)/1e3, float64(ls.Live)/1e3,
			ls.Compactions, float64(ls.CompactNS)/1e6, float64(ls.MaxStepNS)/1e6, c.Outcomes, c.OutcomesPeak)
	}
	for i, n := range e.Storage {
		s := n.Store().Stats()
		fmt.Printf("[stats] storage[%d]: %d reads, %d writes, %.1f MB stored\n",
			i, s.Reads, s.Writes, float64(n.Store().PhysicalBytes())/1e6)
	}
	for i, s := range e.Small {
		st := s.Store().Stats()
		fmt.Printf("[stats] smallfile[%d]: %d reads, %d writes, %d files\n",
			i, st.Reads, st.Writes, s.Store().NumFiles())
	}
	for _, gws := range [][]*wire.Gateway{e.DatagramGateways, e.Gateways} {
		for _, g := range gws {
			ws := g.Stats()
			fmt.Printf("[stats] wire %s %v: %d peers (%d total, %d evicted), rx %d recs / %d B (max %d), tx %d recs / %d B (max %d), drops: %d no-peer, %d inject, %d write\n",
				g.Addr().Network(), g.Addr(), ws.Conns, ws.TotalConns, ws.Evicted,
				ws.RxRecords, ws.RxBytes, ws.MaxRxRecord, ws.TxRecords, ws.TxBytes, ws.MaxTxRecord,
				ws.DropNoPeer, ws.DropInject, ws.DropWrite)
		}
	}
	// Latency exposition: every component's op-class histograms plus the
	// µproxy's stage/hop/e2e breakdowns, in the text format `slicectl
	// stats` renders from the same collector over the wire.
	e.Obs.WriteText(os.Stdout)
}
