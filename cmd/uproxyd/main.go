// Command uproxyd demonstrates that µproxies are freely replicable
// (§2.1): it runs an ensemble fronted by an N-member µproxy fleet —
// shared-nothing soft state, one set of routing tables — and exposes
// each member's virtual address behind its own UDP endpoint (and, with
// -tcp, its own TCP endpoint) at consecutive ports. The constraint the
// architecture imposes is only that each client's request stream passes
// through a single µproxy; clients of different endpoints share the
// volume with no coordination between the members beyond their
// (read-mostly) routing tables. The in-process ensemble clients
// additionally exercise the flow-hashed front: their flows spread across
// all N members.
//
//	uproxyd -listen 127.0.0.1:20490 -proxies 4
//
// serves members at :20490 .. :20493.
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
	"slice/internal/proxy"
	"slice/internal/route"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:20490", "UDP endpoint of fleet member 0; member i listens at port+i")
		tcp       = flag.String("tcp", "", "TCP endpoint of fleet member 0 (record-marked ONC-RPC); member i listens at port+i")
		portmap   = flag.String("portmap", "", "portmapper TCP listen address (requires -tcp)")
		proxies   = flag.Int("proxies", 2, "µproxy fleet size (1..8)")
		stats     = flag.Duration("stats", 10*time.Second, "stats print interval")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
		mutexFrac = flag.Int("mutexprofile", 0, "runtime.SetMutexProfileFraction rate (0 = off)")
		blockRate = flag.Int("blockprofile", 0, "runtime.SetBlockProfileRate rate in ns (0 = off)")
	)
	flag.Parse()

	// Contention profiling of the sharded data path: sample mutex hold/wait
	// times and serve them at /debug/pprof/{mutex,block}.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("uproxyd: pprof server: %v", err)
			}
		}()
		fmt.Printf("uproxyd: pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}

	e, err := ensemble.New(ensemble.Config{
		StorageNodes:      4,
		DirServers:        2,
		SmallFileServers:  2,
		Proxies:           *proxies,
		Coordinator:       true,
		NameKind:          route.MkdirSwitching,
		MkdirP:            0.25,
		WritebackInterval: 2 * time.Second,
		UDPListen:         *listen,
		TCPListen:         *tcp,
		PortmapListen:     *portmap,
	})
	if err != nil {
		log.Fatalf("uproxyd: ensemble: %v", err)
	}
	defer e.Close()

	fmt.Printf("uproxyd: one volume, %d interposed µproxies\n", len(e.Proxies))
	for i, g := range e.DatagramGateways {
		fmt.Printf("  µproxy #%d: %v (fabric %v)\n", i, g.Addr(), e.VirtualOf(i))
	}
	for i, g := range e.Gateways {
		fmt.Printf("  µproxy #%d TCP: %v (record-marked ONC-RPC)\n", i, g.Addr())
	}
	if e.Portmap != nil {
		fmt.Printf("  portmapper: %v -> member 0\n", e.Portmap.Addr())
	}
	fmt.Printf("mount any endpoint with: slicectl -connect <addr> ls /\n")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.NewTicker(*stats)
	defer tick.Stop()
	dumpAll := func() {
		for i, p := range e.Proxies {
			if p != nil {
				dump(fmt.Sprintf("µproxy#%d", i), p)
			}
		}
		dumpPool()
	}
	for {
		select {
		case <-sig:
			fmt.Println("\nuproxyd: shutting down")
			dumpAll()
			return
		case <-tick.C:
			dumpAll()
			e.Obs.WriteText(os.Stdout)
		}
	}
}

func dump(name string, p *proxy.Proxy) {
	st := p.Stats()
	pkts := st.Requests + st.Responses
	fmt.Printf("[%s] %d pkts (%d req / %d resp / %d absorbed / %d dropped)", name, pkts,
		st.Requests, st.Responses, st.Absorbed, st.Dropped)
	if pkts > 0 {
		fmt.Printf("; ns/pkt: intercept %.0f decode %.0f rewrite %.0f softstate %.0f",
			float64(st.InterceptNS)/float64(pkts),
			float64(st.DecodeNS)/float64(pkts),
			float64(st.RewriteNS)/float64(pkts),
			float64(st.SoftStateNS)/float64(pkts))
	}
	fmt.Println()

	// Aggregate the per-shard soft-state occupancy and hit rates, noting
	// the hottest shard so routing skew is visible at a glance.
	var pend, attrs, names, maxPend int
	var ahits, amiss, nhits, nmiss uint64
	for _, sh := range p.ShardStats() {
		pend += sh.Pending
		attrs += sh.AttrEntries
		names += sh.NameEntries
		ahits += sh.AttrHits
		amiss += sh.AttrMisses
		nhits += sh.NameHits
		nmiss += sh.NameMisses
		if sh.Pending > maxPend {
			maxPend = sh.Pending
		}
	}
	fmt.Printf("[%s] shards: %d pending (max/shard %d), %d attrs (hit %s), %d names (hit %s)\n",
		name, pend, maxPend, attrs, pct(ahits, amiss), names, pct(nhits, nmiss))
}

func dumpPool() {
	ps := netsim.PoolStats()
	fmt.Printf("[bufpool] %d gets / %d puts / %d fresh allocs / %d foreign frees\n",
		ps.Gets, ps.Puts, ps.News, ps.Ignored)
}

func pct(hits, misses uint64) string {
	if hits+misses == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(hits)/float64(hits+misses))
}
