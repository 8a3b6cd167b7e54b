package ensemble

import (
	"fmt"
	"slices"

	"slice/internal/coord"
	"slice/internal/dirsrv"
	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/oncrpc"
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
// the role from its durable value alone (§2.3), through the same start
// helper New used, rewiring the shared routing tables, the fleet or the
// coordinator's published address so clients recover through ordinary
// retransmission (§2.1). Chaos calls must not run concurrently with
// each other.
type Chaos struct {
	e *Ensemble
}

// Chaos returns the fault controller for this ensemble.
func (e *Ensemble) Chaos() *Chaos { return &Chaos{e: e} }

// rebind swaps old for new in a routing table, preserving every other
// logical site's binding (a no-op when they are the same address).
func rebind(t *route.Table, oldA, newA netsim.Addr) {
	if oldA != newA {
		t.Swap(rebindSites(t.Physical(), oldA, newA))
	}
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

// Role names one kind of ensemble member for Crash and Restart. Each
// role has one durable value, the only thing that survives its crash.
type Role int

const (
	RoleStorage Role = iota // storage node i: its object store
	RoleDir                 // directory server i: DirLogs[i]
	RoleSmall               // small-file server i: SmallLogs[i] and its fragment store
	RoleCoord               // the coordinator (i = 0): CoordLog
	RoleProxy               // µproxy i: nothing
)

func (r Role) String() string {
	return [...]string{"storage node", "directory server", "small-file server", "coordinator", "µproxy"}[r]
}

// roleSlot is one role instance: Restart's key into Ensemble.down.
type roleSlot struct {
	role Role
	i    int
}

// live reports whether slot i of s holds a running member.
func live[T comparable](s []T, i int) bool {
	var none T
	return i >= 0 && i < len(s) && s[i] != none
}

// put stores v in slot i of s, growing s to reach it.
func put[T any](s *[]T, i int, v T) {
	for len(*s) <= i {
		var none T
		*s = append(*s, none)
	}
	(*s)[i] = v
}

// Crash kills role i. The host it currently serves on is torn down
// (in-flight datagrams to and from it are lost), the role is closed and
// its slot nilled, and its journal keeps only its durable prefix; a
// storage node's object store and a small-file server's fragment store
// are kept whole. A crashed µproxy also leaves the fleet table — the
// front's failure detection, folded into one membership swap: flows it
// owned remap to the survivors, in-flight calls on their next
// retransmission. Crash records the address for Restart.
func (c *Chaos) Crash(role Role, i int) error {
	e := c.e
	var at netsim.Addr
	switch {
	case role == RoleStorage && live(e.Storage, i):
		at = e.Storage[i].Addr()
		e.Net.CrashHost(at.Host)
		e.Storage[i].Close()
		e.Storage[i] = nil
	case role == RoleDir && live(e.Dirs, i):
		at = e.Dirs[i].Addr()
		e.Net.CrashHost(at.Host)
		e.Dirs[i].Close()
		e.Dirs[i] = nil
		e.DirLogs[i] = e.DirLogs[i].CrashCopy()
	case role == RoleSmall && live(e.Small, i):
		at = e.Small[i].Addr()
		e.Net.CrashHost(at.Host)
		e.Small[i].Close()
		e.Small[i] = nil
		e.SmallLogs[i] = e.SmallLogs[i].CrashCopy()
	case role == RoleCoord && i == 0 && e.Coord != nil:
		at = e.Coord.Addr()
		e.Net.CrashHost(at.Host)
		e.Coord.Close()
		e.Coord = nil
		e.CoordLog = e.CoordLog.CrashCopy()
	case role == RoleProxy && live(e.Proxies, i):
		at = proxyVirtual(i)
		e.Net.CrashHost(at.Host)
		e.Net.CrashHost(proxyHost(i))
		e.Proxies[i].Close()
		e.Proxies[i] = nil
		if i == 0 {
			e.Proxy = nil
		}
		e.Fleet.Swap(slices.DeleteFunc(slices.Clone(e.Fleet.Members()),
			func(m route.ProxyMember) bool { return m.ID == uint32(i) }))
	default:
		return fmt.Errorf("ensemble: no running %v %d", role, i)
	}
	e.down[roleSlot{role, i}] = at
	return nil
}

// Restart rebuilds crashed role i from its durable value alone, serving
// at at, through the helper New started it with. A directory or
// small-file server replays its journal before it serves and its logical
// site is rebound from the address recorded at the crash to at — the
// µproxy sees a route-version change and pending requests re-resolve on
// their next retransmission. A coordinator finishes every pending
// intention before it serves, and publishes its new address to the
// µproxies and the rebalance driver. A storage node or µproxy has a
// fixed slot in the host plan and refuses any other address; a µproxy
// comes back with empty soft state under its old fleet ID, so
// consistent hashing hands it back exactly the flows it owned (§2.1).
// Restarting a role that is not crashed is an error.
func (c *Chaos) Restart(role Role, i int, at netsim.Addr) error {
	e := c.e
	slot := roleSlot{role, i}
	from, ok := e.down[slot]
	if !ok {
		return fmt.Errorf("ensemble: %v %d is not crashed", role, i)
	}
	if (role == RoleStorage || role == RoleProxy) && at != from {
		return fmt.Errorf("ensemble: %v %d restarts only at %v, not %v", role, i, from, at)
	}
	e.Net.RestartHost(at.Host)
	var err error
	switch role {
	case RoleStorage:
		err = e.startStorage(i, e.disks[i])
	case RoleDir:
		err = e.startDir(i, from, at)
	case RoleSmall:
		err = e.startSmall(i, from, at)
	case RoleCoord:
		err = e.startCoord(at)
	case RoleProxy:
		e.Net.RestartHost(proxyHost(i))
		e.startProxy(i)
	}
	if err != nil {
		return fmt.Errorf("ensemble: restart %v %d at %v: %w", role, i, at, err)
	}
	delete(e.down, slot)
	return nil
}

// ------------------------------------------------------- role start-up

// The helpers below are each role's one construction path, shared by
// New (over an empty durable value) and Restart (over a crashed one):
// bind the port, open the journal, run the recovering constructor,
// attach the role's registry, and bind the role into its table, fleet
// or the published coordinator address.

// registry returns the registry named name, registering it with the
// collector on first use: a restarted role reports into its
// predecessor's, so counts accumulate across failovers.
func (e *Ensemble) registry(name string) *obs.Registry {
	reg := e.regs[name]
	if reg == nil {
		reg = obs.NewRegistry(name)
		e.Obs.AddRegistry(reg)
		e.regs[name] = reg
	}
	return reg
}

// startStorage serves disk as storage node i at its slot in the host
// plan, wired like every node of the array: capability key and
// registry. Placement binds it (New's tables, Grow, a rebirth).
func (e *Ensemble) startStorage(i int, disk *storage.ObjectStore) error {
	port, err := e.Net.Bind(storageAddr(i))
	if err != nil {
		return err
	}
	node := storage.NewNode(port, disk)
	if len(e.cfg.CapabilityKey) > 0 {
		node.RequireCapability(e.cfg.CapabilityKey)
	}
	node.SetObs(e.registry(fmt.Sprintf("storage[%d]", i)))
	put(&e.Storage, i, node)
	put(&e.disks, i, disk)
	return nil
}

// startDir recovers directory server i from DirLogs[i] and serves it at
// at, rebinding its logical site from from.
func (e *Ensemble) startDir(i int, from, at netsim.Addr) error {
	log, err := wal.Open(e.DirLogs[i])
	if err != nil {
		return err
	}
	port, err := e.Net.Bind(at)
	if err != nil {
		return err
	}
	srv, err := dirsrv.Restart(port, dirsrv.Config{
		Site:   uint32(i),
		Volume: 1,
		Kind:   e.cfg.NameKind,
		Table:  e.DirTable,
		Log:    log,
		Net:    e.Net,
		Host:   at.Host,
	})
	if err != nil {
		port.Close()
		return err
	}
	srv.SetRoot(e.Root)
	srv.SetObs(e.registry(fmt.Sprintf("dirsrv[%d]", i)))
	put(&e.Dirs, i, srv)
	rebind(e.DirTable, from, at)
	return nil
}

// startSmall recovers small-file server i from SmallLogs[i] against its
// fragment store and serves it at at, rebinding its logical site from
// from.
func (e *Ensemble) startSmall(i int, from, at netsim.Addr) error {
	log, err := wal.Open(e.SmallLogs[i])
	if err != nil {
		return err
	}
	port, err := e.Net.Bind(at)
	if err != nil {
		return err
	}
	srv, err := smallfile.Restart(port, e.smallDisks[i], log)
	if err != nil {
		port.Close()
		return err
	}
	srv.SetObs(e.registry(fmt.Sprintf("smallfile[%d]", i)))
	put(&e.Small, i, srv)
	rebind(e.SmallTable, from, at)
	return nil
}

// startCoord recovers the coordinator from CoordLog, finishing every
// pending intention before it serves at at, and publishes at to
// coordResolver.
func (e *Ensemble) startCoord(at netsim.Addr) error {
	log, err := wal.Open(e.CoordLog)
	if err != nil {
		return err
	}
	port, err := e.Net.Bind(at)
	if err != nil {
		return err
	}
	co, err := coord.Restart(port, coord.Config{
		Log:        log,
		Storage:    e.StorageTable,
		Replicas:   e.Replicas,
		SmallFile:  e.SmallTable,
		Net:        e.Net,
		Host:       at.Host,
		ProbeAfter: e.cfg.CoordProbeAfter,
		CapKey:     e.cfg.CapabilityKey,
	})
	if err != nil {
		port.Close()
		return err
	}
	co.SetObs(e.registry("coord"))
	e.Coord = co
	e.coordAt.Store(&at)
	return nil
}

// coordResolver is the one way the µproxies and the rebalance driver
// reach the coordinator: the address its latest start published, read
// before every transmission, so a call in flight across a restart
// follows the coordinator to its new host (a crash leaves the old
// address, and calls time out against it until Restart). nil without
// a coordinator.
func (e *Ensemble) coordResolver() oncrpc.Resolver {
	if !e.cfg.Coordinator {
		return nil
	}
	return func() netsim.Addr { return *e.coordAt.Load() }
}

// startProxy starts µproxy i on its slot in the host plan with empty
// soft state and joins it to the fleet under ID i.
func (e *Ensemble) startProxy(i int) {
	p := proxy.New(proxy.Config{
		Net:               e.Net,
		Host:              proxyHost(i),
		Virtual:           proxyVirtual(i),
		ID:                uint32(i),
		IO:                e.IOPolicy,
		Names:             e.NamePolicy,
		Coord:             e.coordResolver(),
		WritebackInterval: e.cfg.WritebackInterval,
		CapKey:            e.cfg.CapabilityKey,
		Obs:               e.registry(memberName("uproxy", i)),
		StatsFn:           e.serveStats,
	})
	put(&e.Proxies, i, p)
	if i == 0 {
		e.Proxy = p
	}
	e.Fleet.Swap(append(slices.Clip(e.Fleet.Members()), route.ProxyMember{
		ID:      uint32(i),
		Virtual: proxyVirtual(i),
		Host:    proxyHost(i),
	}))
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
// folded into one topology swap, exactly like a µproxy crash's fleet
// swap.
// Writes stop awaiting the dead member, reads stop spreading to it,
// and each stalled in-flight request is routed onto the survivors at
// its next client retransmission. If i was its group's
// primary the next member is promoted and the storage table rebound.
func (c *Chaos) KillReplica(i int) {
	if i < 0 || i >= len(c.e.Storage) || c.e.Storage[i] == nil {
		return
	}
	addr := storageAddr(i)
	c.e.Net.CrashHost(addr.Host)
	// A kill subsumes a transient partition of the same host: the crash
	// already drops all its traffic, and the replacement machine must not
	// inherit the partition marker.
	c.e.Net.RejoinHost(addr.Host)
	c.e.Storage[i].Close()
	c.e.Storage[i] = nil
	if c.e.Replicas == nil {
		return
	}
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
	addr := storageAddr(i)
	c.e.Net.RestartHost(addr.Host)
	if err := c.e.startStorage(i, storage.NewObjectStore()); err != nil {
		return nil, err
	}
	node := c.e.Storage[i]

	g := c.replicaGroup(i)
	nextReps := c.e.Replicas.WithUp(addr)
	next := rebindSites(c.e.StorageTable.Physical(),
		c.e.Replicas.Groups()[g].Members[0], nextReps.Groups()[g].Members[0])
	err := c.e.Rebalancer().Run(next, nextReps, func() error {
		c.e.Replicas.MarkUp(addr)
		return nil
	})
	if err != nil {
		c.KillReplica(i)
		return nil, fmt.Errorf("ensemble: rebirth of storage node %d: %w", i, err)
	}
	return node, nil
}
