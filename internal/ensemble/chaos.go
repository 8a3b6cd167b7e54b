package ensemble

import (
	"fmt"

	"slice/internal/coord"
	"slice/internal/dirsrv"
	"slice/internal/netsim"
	"slice/internal/proxy"
	"slice/internal/route"
	"slice/internal/smallfile"
	"slice/internal/storage"
	"slice/internal/wal"
)

// Chaos drives component failures and recoveries against a running
// ensemble. Crashes go through the fabric's fault plane — the victim's
// ports are torn down and in-flight datagrams to it are lost, exactly as
// a machine failure would look from the network — and restarts rebuild
// the component from the durable prefix of its journal (§2.3), rewiring
// the shared routing tables or the µproxy's coordinator address so
// clients recover through ordinary retransmission (§2.1).
type Chaos struct {
	e *Ensemble
}

// Chaos returns the fault controller for this ensemble.
func (e *Ensemble) Chaos() *Chaos { return &Chaos{e: e} }

// rebind swaps old for new in a routing table, preserving every other
// logical site's binding.
func rebind(t *route.Table, oldA, newA netsim.Addr) {
	t.Swap(rebindSites(t.Physical(), oldA, newA))
}

// rebindSites rebinds every logical site of old in the site list to new.
func rebindSites(sites []netsim.Addr, oldA, newA netsim.Addr) []netsim.Addr {
	for i, a := range sites {
		if a == oldA {
			sites[i] = newA
		}
	}
	return sites
}

// --------------------------------------------------------- coordinator

// CrashCoordinator kills the coordinator host: its ports (server and
// client side) are torn down, in-flight RPCs are lost, and only the
// durable prefix of the intentions journal survives for restart.
func (c *Chaos) CrashCoordinator() {
	if c.e.Coord == nil {
		return
	}
	c.e.Net.CrashHost(HostCoord)
	c.e.Coord.Close()
	c.e.Coord = nil
	c.e.CoordLog = c.e.CoordLog.CrashCopy()
}

// RestartCoordinator rebuilds the coordinator from the durable prefix of
// its journal on a fresh port of the same host. Recovery — replaying the
// log and finishing every pending intention — completes before the new
// port accepts calls, and the µproxy is re-pointed at the new address so
// its stuck coordinator RPCs fail over mid-retry.
func (c *Chaos) RestartCoordinator(port uint16) (*coord.Coordinator, error) {
	if c.e.Coord != nil {
		return nil, fmt.Errorf("ensemble: coordinator still running")
	}
	c.e.Net.RestartHost(HostCoord)
	addr := netsim.Addr{Host: HostCoord, Port: port}
	p, err := c.e.Net.Bind(addr)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(c.e.CoordLog)
	if err != nil {
		return nil, err
	}
	co, err := coord.Restart(p, coord.Config{
		Storage:    c.e.StorageTable,
		Replicas:   c.e.Replicas,
		SmallFile:  c.e.SmallTable,
		Net:        c.e.Net,
		Host:       HostCoord,
		ProbeAfter: c.e.cfg.CoordProbeAfter,
		CapKey:     c.e.cfg.CapabilityKey,
	}, log)
	if err != nil {
		return nil, err
	}
	if c.e.obsCoord != nil {
		co.SetObs(c.e.obsCoord)
	}
	c.e.Coord = co
	// Re-point every live fleet member; a crashed proxy picks the new
	// address up from RestartProxy's rebuild.
	for _, p := range c.e.Proxies {
		if p != nil {
			p.SetCoord(addr)
		}
	}
	return co, nil
}

// -------------------------------------------------------------- µproxies

// CrashProxy kills µproxy i: its hosts (virtual address and client
// ports) are torn down, every in-flight request it was brokering is
// lost with its soft state, and the fleet table drops the member — the
// front's failure detection, folded into one membership swap. Flows the
// victim owned remap to the surviving siblings; in-flight calls reach
// them on their next retransmission, new calls immediately.
func (c *Chaos) CrashProxy(i int) {
	if i < 0 || i >= len(c.e.Proxies) || c.e.Proxies[i] == nil {
		return
	}
	c.e.Net.CrashHost(proxyVirtual(i).Host)
	c.e.Net.CrashHost(proxyHost(i))
	c.e.Proxies[i].Close()
	c.e.Proxies[i] = nil
	if i == 0 {
		c.e.Proxy = nil
	}
	members := c.e.Fleet.Members()
	survivors := make([]route.ProxyMember, 0, len(members))
	for _, m := range members {
		if m.ID != uint32(i) {
			survivors = append(survivors, m)
		}
	}
	c.e.Fleet.Swap(survivors)
}

// RestartProxy revives µproxy i on its original slot with empty soft
// state — the architecture's whole point is that nothing else is needed
// (§2.1). The member rejoins the fleet under its old ID, so consistent
// hashing hands it back exactly the flows it owned before the crash,
// and it reports under its old observability labels.
func (c *Chaos) RestartProxy(i int) (*proxy.Proxy, error) {
	if i < 0 || i >= len(c.e.Proxies) {
		return nil, fmt.Errorf("ensemble: no proxy slot %d", i)
	}
	if c.e.Proxies[i] != nil {
		return nil, fmt.Errorf("ensemble: proxy %d still running", i)
	}
	c.e.Net.RestartHost(proxyVirtual(i).Host)
	c.e.Net.RestartHost(proxyHost(i))
	reg, tracer := c.e.proxyObs(i)
	p := c.e.newProxy(i, reg, tracer)
	c.e.Proxies[i] = p
	if i == 0 {
		c.e.Proxy = p
	}
	members := c.e.Fleet.Members()
	rejoined := make([]route.ProxyMember, 0, len(members)+1)
	rejoined = append(rejoined, members...)
	rejoined = append(rejoined, route.ProxyMember{
		ID:      uint32(i),
		Virtual: proxyVirtual(i),
		Host:    proxyHost(i),
	})
	c.e.Fleet.Swap(rejoined)
	return p, nil
}

// --------------------------------------------------- directory servers

// CrashDir kills directory server i's host. The snapshot of its backing
// object must have been taken before the crash (checkpoints are
// periodic in a deployment); pass it to RestartDir.
func (c *Chaos) CrashDir(i int) {
	c.e.Net.CrashHost(HostDir0 + uint32(i))
	c.e.Dirs[i].Close()
	c.e.DirLogs[i] = c.e.DirLogs[i].CrashCopy()
}

// RestartDir rebuilds directory server i from snapshot plus the durable
// suffix of its journal, serving at host (a fresh site, or the original
// host revived). The shared directory table is rebound to the new
// address, which the µproxy observes as a route-version change: pending
// requests re-resolve on their next client retransmission.
func (c *Chaos) RestartDir(i int, snapshot []byte, host uint32) (*dirsrv.Server, error) {
	oldAddr := netsim.Addr{Host: HostDir0 + uint32(i), Port: ServicePort}
	if host == HostDir0+uint32(i) {
		c.e.Net.RestartHost(host)
	}
	addr := netsim.Addr{Host: host, Port: ServicePort}
	port, err := c.e.Net.Bind(addr)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(c.e.DirLogs[i])
	if err != nil {
		return nil, err
	}
	srv, err := dirsrv.Restart(port, c.e.dirConfig(i, host), snapshot, log)
	if err != nil {
		return nil, err
	}
	srv.SetRoot(c.e.Root)
	// The restarted server keeps the original registry: counts accumulate
	// across the failover rather than resetting with the process.
	srv.SetObs(c.e.obsDirs[i])
	c.e.Dirs[i] = srv
	rebind(c.e.DirTable, oldAddr, addr)
	return srv, nil
}

// -------------------------------------------------- small-file servers

// CrashSmall kills small-file server i's host. Its store is dataless:
// everything needed for restart is the backing object (on a storage
// node) plus the durable journal prefix.
func (c *Chaos) CrashSmall(i int) {
	c.e.Net.CrashHost(HostSmall0 + uint32(i))
	c.e.Small[i].Close()
	c.e.SmallLogs[i] = c.e.SmallLogs[i].CrashCopy()
}

// RestartSmall rebuilds small-file server i against its backing object
// at host and rebinds the small-file table.
func (c *Chaos) RestartSmall(i int, host uint32) (*smallfile.Server, error) {
	oldAddr := netsim.Addr{Host: HostSmall0 + uint32(i), Port: ServicePort}
	if host == HostSmall0+uint32(i) {
		c.e.Net.RestartHost(host)
	}
	addr := netsim.Addr{Host: host, Port: ServicePort}
	port, err := c.e.Net.Bind(addr)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(c.e.SmallLogs[i])
	if err != nil {
		return nil, err
	}
	backing, backID := c.e.smallBacking(i)
	srv, err := smallfile.Restart(port, backing, backID, log)
	if err != nil {
		return nil, err
	}
	srv.SetObs(c.e.obsSmall[i])
	c.e.Small[i] = srv
	rebind(c.e.SmallTable, oldAddr, addr)
	return srv, nil
}

// ------------------------------------------------------- storage nodes

// PartitionStorage cuts storage node i off the fabric in both directions
// without killing it: its ports stay bound, so healing restores service
// with all state intact — the classic transient-partition fault.
func (c *Chaos) PartitionStorage(i int) {
	c.e.Net.IsolateHost(HostStorage0 + uint32(i))
}

// HealStorage reconnects a partitioned storage node.
func (c *Chaos) HealStorage(i int) {
	c.e.Net.RejoinHost(HostStorage0 + uint32(i))
}

// RestartStorage reboots storage node i mid-flight: the host's ports are
// torn down (in-flight datagrams to and from it are lost) and the node
// comes back at the same address over the same backing store — a machine
// reboot that keeps its disk. No table rebind is needed.
func (c *Chaos) RestartStorage(i int) (*storage.Node, error) {
	host := HostStorage0 + uint32(i)
	c.e.Net.CrashHost(host)
	c.e.Storage[i].Close()
	c.e.Net.RestartHost(host)
	port, err := c.e.Net.Bind(netsim.Addr{Host: host, Port: ServicePort})
	if err != nil {
		return nil, err
	}
	node := c.e.newStorageNode(port, c.e.Storage[i].Store(), c.e.obsStorage[i])
	c.e.Storage[i] = node
	return node, nil
}

// ------------------------------------------------------ replica groups

// replicaGroup returns the group index storage node i belongs to under
// the consecutive partition (the last group absorbs any remainder).
func (c *Chaos) replicaGroup(i int) int {
	g := i / c.e.cfg.Replication
	if n := c.e.Replicas.NumGroups(); g >= n {
		g = n - 1
	}
	return g
}

// KillReplica kills storage node i together with its disk — the
// total-loss failure replication exists to absorb. The host is torn
// down (in-flight datagrams lost), the object store is discarded, and
// the member is marked down in the replica map: failure detection
// folded into one topology swap, exactly like CrashProxy's fleet swap.
// Writes stop awaiting the dead member, reads stop spreading to it,
// and the version bump retargets stalled in-flight requests onto the
// survivors at their next client retransmission. If i was its group's
// primary the next member is promoted and the storage table rebound.
func (c *Chaos) KillReplica(i int) {
	if i < 0 || i >= len(c.e.Storage) || c.e.Storage[i] == nil {
		return
	}
	c.e.Net.CrashHost(HostStorage0 + uint32(i))
	// A kill subsumes a transient partition of the same host: the crash
	// already drops all its traffic, and the replacement machine must not
	// inherit the partition marker.
	c.e.Net.RejoinHost(HostStorage0 + uint32(i))
	c.e.Storage[i].Close()
	c.e.Storage[i] = nil
	if c.e.Replicas == nil {
		return
	}
	addr := netsim.Addr{Host: HostStorage0 + uint32(i), Port: ServicePort}
	g := c.replicaGroup(i)
	before := c.e.Replicas.Groups()[g].Members[0]
	c.e.Replicas.MarkDown(addr)
	after := c.e.Replicas.Groups()[g].Members[0]
	if after != before {
		rebind(c.e.StorageTable, before, after)
	}
}

// KillReplicaUnderWrite kills the last (non-primary) member of replica
// group g with no quiescing — the canonical mid-write failure the
// replica chaos tests drive while a windowed bulk write or an untar is
// in flight. It returns the index of the node it killed, for the
// matching RestartReplica.
func (c *Chaos) KillReplicaUnderWrite(g int) (int, error) {
	if c.e.Replicas == nil {
		return 0, fmt.Errorf("ensemble: array is not replicated")
	}
	groups := c.e.Replicas.Groups()
	if g < 0 || g >= len(groups) {
		return 0, fmt.Errorf("ensemble: no replica group %d", g)
	}
	m := groups[g].Members[len(groups[g].Members)-1]
	i := int(m.Host - HostStorage0)
	c.KillReplica(i)
	return i, nil
}

// RestartReplica revives storage node i with an empty store and
// rebuilds it as a rebalance transition — the one data mover the array
// has. The service port is bound at once; the pending binding carries
// the replica map with only this member's down mark cleared, so every
// foreground write reaches the member from Begin on while spread reads,
// which follow the live map, never do. The driver copies, size-syncs and
// scrubs the member like any incoming node, and preCommit marks it up
// just before the epoch-guarded commit. If the dead member was its
// group's primary, the pending site list rebinds its sites back to it,
// undoing KillReplica's promotion at the commit. A failed transition
// (a coordinator probe abort included) kills the member again, so it
// stays down and a later restart starts over.
func (c *Chaos) RestartReplica(i int) (*storage.Node, error) {
	if c.e.Replicas == nil {
		return nil, fmt.Errorf("ensemble: array is not replicated")
	}
	if i < 0 || i >= len(c.e.Storage) {
		return nil, fmt.Errorf("ensemble: no storage node %d", i)
	}
	if c.e.Storage[i] != nil {
		return nil, fmt.Errorf("ensemble: storage node %d still running", i)
	}
	host := HostStorage0 + uint32(i)
	addr := netsim.Addr{Host: host, Port: ServicePort}
	c.e.Net.RestartHost(host)
	port, err := c.e.Net.Bind(addr)
	if err != nil {
		return nil, err
	}
	node := c.e.newStorageNode(port, storage.NewObjectStore(), c.e.obsStorage[i])
	c.e.Storage[i] = node

	g := c.replicaGroup(i)
	nextReps := c.e.Replicas.WithUp(addr)
	next := rebindSites(c.e.StorageTable.Physical(),
		c.e.Replicas.Groups()[g].Members[0], nextReps.Groups()[g].Members[0])
	err = c.e.Rebalancer().Run(next, nextReps, func() error {
		c.e.Replicas.MarkUp(addr)
		return nil
	})
	if err != nil {
		c.KillReplica(i)
		return nil, fmt.Errorf("ensemble: rebirth of storage node %d: %w", i, err)
	}
	return node, nil
}
