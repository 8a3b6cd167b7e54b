// Package ensemble assembles a complete Slice deployment on a netsim
// fabric: storage nodes, a block-service coordinator, directory servers,
// small-file servers, and the interposed µproxy presenting the whole
// ensemble as a single virtual NFS server (Figure 1 of the paper).
package ensemble

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/client"
	"slice/internal/coord"
	"slice/internal/dirsrv"
	"slice/internal/fhandle"
	"slice/internal/front"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/proxy"
	"slice/internal/rebalance"
	"slice/internal/replica"
	"slice/internal/route"
	"slice/internal/smallfile"
	"slice/internal/storage"
	"slice/internal/wal"
	"slice/internal/wire"
)

// Host numbering plan for the fabric.
const (
	HostVirtual   = 100 // virtual server of µproxy i at HostVirtual+i (no machine behind it)
	HostProxy     = 99  // µproxy i's own client port at HostProxy-i
	HostCoord     = 90
	HostStorage0  = 10 // storage node i at HostStorage0+i
	HostDir0      = 30 // directory server i at HostDir0+i
	HostSmall0    = 50 // small-file server i at HostSmall0+i
	HostClient0   = 200
	ServicePort   = 2049
	CoordinatorPt = 3049
)

// MaxProxies bounds the fleet: proxy virtual hosts grow up from
// HostVirtual and their client-port hosts grow down from HostProxy, and
// both must stay clear of HostCoord.
const MaxProxies = 8

// proxyVirtual returns the virtual server address µproxy i presents.
func proxyVirtual(i int) netsim.Addr {
	return netsim.Addr{Host: HostVirtual + uint32(i), Port: ServicePort}
}

// proxyHost returns the host µproxy i binds its own client port on.
func proxyHost(i int) uint32 { return HostProxy - uint32(i) }

// VirtualOf returns the virtual server address fleet member i presents —
// the fabric destination behind Gateways[i].
func (e *Ensemble) VirtualOf(i int) netsim.Addr { return proxyVirtual(i) }

// Config sizes and parameterizes an ensemble.
type Config struct {
	StorageNodes     int
	DirServers       int
	SmallFileServers int
	// Proxies sizes the µproxy fleet (default 1, max MaxProxies). Every
	// proxy interposes on its own virtual address over the same shared
	// routing tables; clients pick the proxy owning each flow through
	// the consistent-hash front.
	Proxies int
	// Coordinator enables the block-service coordinator.
	Coordinator bool
	// NameKind selects the name-space policy; MkdirP is the mkdir
	// redirection probability (mkdir switching only).
	NameKind route.NameKind
	MkdirP   float64
	// Threshold and StripeUnit parameterize the I/O policy; zero means
	// the route defaults.
	Threshold  uint64
	StripeUnit uint64
	// Replication >1 partitions the storage nodes into consecutive
	// replica groups of that many members (Harmonia-style, PAPERS.md):
	// the routing tables address only each group's primary, the µproxy
	// fans every WRITE to the whole group and spreads clean reads across
	// members via its dirty set. StorageNodes must be a multiple of
	// Replication, so Grow and Shrink move whole groups.
	Replication int
	// LogicalSites sets routing-table granularity (default: server count).
	LogicalSites int
	// CoordProbeAfter bounds how long an intention may sit pending before
	// the coordinator finishes the operation itself (0 = coord default).
	// Chaos tests shrink it so probes fire within the test budget.
	CoordProbeAfter time.Duration
	// ClientRPC tunes every client's RPC timeouts and retries; the zero
	// value keeps the oncrpc defaults. Chaos tests raise Retries so
	// clients ride out a component's crash-to-restart window.
	ClientRPC oncrpc.ClientConfig
	// Net configures the fabric (loss, latency).
	Net netsim.Config
	// WritebackInterval for the µproxy attribute cache (0 = manual).
	WritebackInterval time.Duration
	// CapabilityKey, when set, enables the §2.2 secure-object model:
	// storage nodes verify keyed capabilities that the µproxy and
	// coordinator stamp into storage-bound handles. Clients bypassing
	// the µproxy are refused by the storage nodes.
	CapabilityKey []byte
	// TCPListen and UDPListen, when non-empty, expose the ensemble on real
	// sockets: one wire gateway per fleet member and framing (record-marked
	// TCP streams, bare UDP datagrams), member i fronting proxy i's virtual
	// address — a remote client is one flow source, so its endpoint choice
	// is its front assignment. "127.0.0.1:0" picks ephemeral ports; a
	// fixed port p assigns member i port p+i.
	TCPListen string
	UDPListen string
	// PortmapListen, when non-empty, starts an embedded portmapper
	// (program 100000 v2) that registers the NFS and MOUNT programs at
	// gateway 0's TCP port. Requires TCPListen.
	PortmapListen string
}

// Ensemble is a running Slice deployment.
type Ensemble struct {
	Net *netsim.Network
	// Virtual is µproxy 0's virtual address, the address single-proxy
	// code paths (gateways, examples) present to the outside.
	Virtual netsim.Addr

	Storage   []*storage.Node
	Dirs      []*dirsrv.Server
	DirLogs   []*wal.MemStore
	Small     []*smallfile.Server
	SmallLogs []*wal.MemStore
	Coord     *coord.Coordinator
	CoordLog  *wal.MemStore
	// coordAt is where the coordinator last started (coordResolver).
	coordAt atomic.Pointer[netsim.Addr]
	// Proxy is µproxy 0; Proxies is the whole fleet (a crashed member
	// is nil until restarted).
	Proxy   *proxy.Proxy
	Proxies []*proxy.Proxy

	StorageTable *route.Table
	DirTable     *route.Table
	SmallTable   *route.Table
	IOPolicy     *route.IOPolicy
	NamePolicy   *route.NamePolicy
	// Replicas is the k-way group map under StorageTable (nil when
	// Config.Replication <= 1). The table routes to primaries only.
	Replicas *replica.Map
	// Fleet is the versioned µproxy membership table; Front is the
	// consistent-hash ring over it that clients resolve flows through.
	Fleet *route.Fleet
	Front *front.Ring

	// Gateways are the per-member stream (TCP) wire gateways in member
	// order (empty without Config.TCPListen), DatagramGateways their UDP
	// siblings (empty without Config.UDPListen); Portmap is the embedded
	// portmapper (nil without Config.PortmapListen).
	Gateways         []*wire.Gateway
	DatagramGateways []*wire.Gateway
	Portmap          *wire.Portmap

	// Obs aggregates every component's histograms and stitches their
	// rings' events by call. It is always on — recording is one atomic
	// add, an event is written for 1 call in 16 — and chaos restarts
	// re-register the same registries, so counts accumulate and rings
	// run on across failovers.
	Obs *obs.Collector

	// regs holds every role's registry by name: a restarted role reports
	// into its predecessor's.
	regs map[string]*obs.Registry

	// disks[i] is storage node i's object store, the one part of a
	// storage node that survives its crash; smallDisks[i] is small-file
	// server i's fragment store, which survives its crash beside
	// SmallLogs[i]; down records each crashed role's last address until
	// Restart (chaos.go).
	disks      []*storage.ObjectStore
	smallDisks []*storage.ObjectStore
	down       map[roleSlot]netsim.Addr

	Root       fhandle.Handle
	cfg        Config
	nextClient uint32

	// rebal is the lazily-built block-migration driver; adminMu orders
	// the async stats-plane grow/shrink verbs.
	rebalMu sync.Mutex
	rebal   *rebalance.Driver
	adminMu sync.Mutex
}

// New builds and starts an ensemble.
func New(cfg Config) (*Ensemble, error) {
	if cfg.StorageNodes <= 0 {
		cfg.StorageNodes = 1
	}
	if cfg.DirServers <= 0 {
		cfg.DirServers = 1
	}
	if cfg.Proxies <= 0 {
		cfg.Proxies = 1
	}
	if cfg.Proxies > MaxProxies {
		return nil, fmt.Errorf("ensemble: %d proxies exceeds the host plan's limit of %d", cfg.Proxies, MaxProxies)
	}
	if cfg.Replication > 1 && cfg.StorageNodes%cfg.Replication != 0 {
		return nil, fmt.Errorf("ensemble: %d storage nodes do not split into replica groups of %d", cfg.StorageNodes, cfg.Replication)
	}
	e := &Ensemble{
		Net:     netsim.New(cfg.Net),
		Virtual: netsim.Addr{Host: HostVirtual, Port: ServicePort},
		Obs:     obs.NewCollector(),
		cfg:     cfg,
		regs:    make(map[string]*obs.Registry),
		down:    make(map[roleSlot]netsim.Addr),
	}

	// Every role starts through the helper that also restarts it
	// (chaos.go), from an empty durable value.
	var storageAddrs []netsim.Addr
	for i := 0; i < cfg.StorageNodes; i++ {
		if err := e.startStorage(i, storage.NewObjectStore()); err != nil {
			return nil, err
		}
		storageAddrs = append(storageAddrs, storageAddr(i))
	}
	logical := cfg.LogicalSites
	tableAddrs := storageAddrs
	if cfg.Replication > 1 {
		// The storage table is built over group primaries only: placement
		// resolves to a primary, and the µproxy's replica map expands it
		// to the whole group underneath.
		e.Replicas = replica.NewMap(cfg.Replication, storageAddrs)
		tableAddrs = nil
		for _, g := range e.Replicas.Groups() {
			tableAddrs = append(tableAddrs, g.Members[0])
		}
	}
	e.StorageTable = route.NewTable(logical, tableAddrs)

	// Small-file and directory servers get one logical site each: site i
	// is server i's durable value (and, for a directory server, the Site
	// stamped into the handles it mints) whatever address serves it, so a
	// failover rebind moves no file (DESIGN.md §13.2).
	smallAddrs := serviceAddrs(HostSmall0, cfg.SmallFileServers)
	if len(smallAddrs) > 0 {
		e.SmallTable = route.NewTable(len(smallAddrs), smallAddrs)
	}
	for i, a := range smallAddrs {
		e.SmallLogs = append(e.SmallLogs, wal.NewMemStore())
		e.smallDisks = append(e.smallDisks, storage.NewObjectStore())
		if err := e.startSmall(i, a, a); err != nil {
			return nil, err
		}
	}
	if cfg.Coordinator {
		e.CoordLog = wal.NewMemStore()
		if err := e.startCoord(netsim.Addr{Host: HostCoord, Port: CoordinatorPt}); err != nil {
			return nil, err
		}
	}
	dirAddrs := serviceAddrs(HostDir0, cfg.DirServers)
	e.DirTable = route.NewTable(len(dirAddrs), dirAddrs)
	for i, a := range dirAddrs {
		e.DirLogs = append(e.DirLogs, wal.NewMemStore())
		if err := e.startDir(i, a, a); err != nil {
			return nil, err
		}
	}

	// Volume root on site 0, shared with all sites for MOUNT.
	root, err := e.Dirs[0].CreateRoot()
	if err != nil {
		return nil, err
	}
	e.Root = root
	for _, d := range e.Dirs[1:] {
		d.SetRoot(root)
	}

	// Routing policies and the µproxy.
	e.IOPolicy = route.NewIOPolicy(e.SmallTable, e.StorageTable)
	e.IOPolicy.Replicas = e.Replicas
	if cfg.Threshold > 0 {
		e.IOPolicy.Threshold = cfg.Threshold
	}
	if cfg.StripeUnit > 0 {
		e.IOPolicy.StripeUnit = cfg.StripeUnit
	}
	if cfg.SmallFileServers == 0 {
		e.IOPolicy.SmallFile = nil
		e.IOPolicy.Threshold = 0
	}
	e.NamePolicy = route.NewNamePolicy(cfg.NameKind, cfg.MkdirP, e.DirTable)

	// The µproxy fleet: shared-nothing instances over the same routing
	// tables. Sharing the Table objects is what makes fleet-wide
	// reconfiguration coordinated — one Swap atomically moves every
	// proxy to the same route-table version.
	e.Fleet = route.NewFleet(nil)
	e.Front = front.NewRing(e.Fleet, 0)
	for i := 0; i < cfg.Proxies; i++ {
		e.startProxy(i)
	}

	// Real-wire serving: every member's gateways, and the embedded
	// portmapper pointing real clients at stream gateway 0.
	for i := 0; i < cfg.Proxies; i++ {
		err := e.startGateway(&e.Gateways, wire.NewGateway, cfg.TCPListen, "wire", i)
		if err == nil {
			err = e.startGateway(&e.DatagramGateways, wire.NewDatagramGateway, cfg.UDPListen, "wire.udp", i)
		}
		if err != nil {
			e.Close()
			return nil, err
		}
	}
	if cfg.PortmapListen != "" {
		if len(e.Gateways) == 0 {
			e.Close()
			return nil, fmt.Errorf("ensemble: PortmapListen requires TCPListen")
		}
		pm, err := wire.NewPortmap(cfg.PortmapListen)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("ensemble: portmap: %w", err)
		}
		port := e.Gateways[0].Port()
		pm.Register(nfsproto.Program, nfsproto.Version, nfsproto.IPProtoTCP, port)
		pm.Register(nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.IPProtoTCP, port)
		reg := obs.NewRegistry("portmap")
		pm.SetObs(reg)
		e.Obs.AddRegistry(reg)
		e.Portmap = pm
	}
	return e, nil
}

// serviceAddrs returns the service addresses of n servers numbered up
// from host0.
func serviceAddrs(host0 uint32, n int) []netsim.Addr {
	addrs := make([]netsim.Addr, n)
	for i := range addrs {
		addrs[i] = netsim.Addr{Host: host0 + uint32(i), Port: ServicePort}
	}
	return addrs
}

// storageAddr is storage node i's fixed slot in the host plan.
func storageAddr(i int) netsim.Addr {
	return netsim.Addr{Host: HostStorage0 + uint32(i), Port: ServicePort}
}

// startGateway starts fleet member i's gateway of one framing on its
// derived listen address (none when listen is empty), with its histograms
// under the role's label, and appends it to gws.
func (e *Ensemble) startGateway(gws *[]*wire.Gateway,
	start func(string, *netsim.Network, netsim.Addr) (*wire.Gateway, error), listen, role string, i int) error {
	if listen == "" {
		return nil
	}
	listen, err := memberListen(listen, i)
	if err != nil {
		return err
	}
	gw, err := start(listen, e.Net, proxyVirtual(i))
	if err != nil {
		return fmt.Errorf("ensemble: %s gateway %d: %w", role, i, err)
	}
	reg := obs.NewRegistry(memberName(role, i))
	gw.SetObs(reg)
	e.Obs.AddRegistry(reg)
	*gws = append(*gws, gw)
	return nil
}

// memberName labels fleet member i's instance of a role: member 0 keeps
// the bare role name single-member tooling expects.
func memberName(role string, i int) string {
	if i == 0 {
		return role
	}
	return fmt.Sprintf("%s[%d]", role, i)
}

// memberListen derives fleet member i's listen address from the
// configured one: an explicit port p maps to p+i, port 0 stays 0.
func memberListen(listen string, i int) (string, error) {
	host, portStr, err := net.SplitHostPort(listen)
	if err != nil {
		return "", fmt.Errorf("ensemble: bad listen address %q: %w", listen, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("ensemble: bad listen port %q: %w", portStr, err)
	}
	if port != 0 {
		port += i
	}
	return net.JoinHostPort(host, strconv.Itoa(port)), nil
}

// serveStats answers the absorbed stats RPC program (obs.Program) from
// the ensemble's collector: snapshots and the latest stitched calls as
// opaque JSON, the calls cut to what one reply datagram carries.
func (e *Ensemble) serveStats(proc, arg uint32) []byte {
	switch proc {
	case obs.ProcSnapshot:
		return e.Obs.SnapshotJSON()
	case obs.ProcTraces:
		max := int(arg)
		if max <= 0 || max > obs.MaxTraces {
			max = obs.MaxTraces
		}
		return e.Obs.StitchJSON(max, netsim.MaxDatagram-netsim.HeaderSize-oncrpc.ReplyHeader-8) // 8: the opaque's length and padding
	case obs.ProcRebalanceStatus:
		return e.Rebalancer().StatusJSON()
	case obs.ProcGrow:
		e.adminGrow(int(arg))
		return []byte(fmt.Sprintf(`{"started":true,"verb":"grow","nodes":%d}`, arg))
	case obs.ProcShrink:
		e.adminShrink(int(arg))
		return []byte(fmt.Sprintf(`{"started":true,"verb":"shrink","nodes":%d}`, arg))
	}
	return nil
}

// clientQueueDepth is the per-storage-node pipeline depth used to size
// client windows: window = array width × this depth (route.WindowFor).
const clientQueueDepth = 4

// NewClient creates and mounts a windowed client on a fresh host, its
// bulk-I/O window sized to the storage array width.
func (e *Ensemble) NewClient() (*client.Client, error) {
	return e.newClient(e.IOPolicy.WindowFor(clientQueueDepth))
}

// NewSerialClient creates and mounts a client on the fully serial
// (one-chunk-at-a-time) bulk path — the baseline the windowed path must
// stay byte-exact with.
func (e *Ensemble) NewSerialClient() (*client.Client, error) {
	return e.newClient(1)
}

func (e *Ensemble) newClient(window int) (*client.Client, error) {
	e.nextClient++
	reg := obs.NewRegistry(fmt.Sprintf("client[%d]", e.nextClient))
	e.Obs.AddRegistry(reg)
	c, err := client.New(client.Config{
		Net:        e.Net,
		Host:       HostClient0 + e.nextClient,
		Server:     e.Virtual,
		Threshold:  e.IOPolicy.Threshold,
		StripeUnit: e.IOPolicy.StripeUnit,
		RPC:        e.cfg.ClientRPC,
		Window:     window,
		Obs:        reg,
		Fleet:      e.Front,
	})
	if err != nil {
		return nil, err
	}
	if err := c.Mount(); err != nil {
		c.Close()
		return nil, fmt.Errorf("ensemble: mount: %w", err)
	}
	return c, nil
}

// Close stops every component.
func (e *Ensemble) Close() {
	if e.Portmap != nil {
		e.Portmap.Close()
	}
	for _, g := range e.Gateways {
		g.Close()
	}
	for _, g := range e.DatagramGateways {
		g.Close()
	}
	for _, p := range e.Proxies {
		if p != nil {
			p.Close()
		}
	}
	if e.Coord != nil {
		e.Coord.Close()
	}
	// A crashed role's slot is nil until it restarts.
	for _, d := range e.Dirs {
		if d != nil {
			d.Close()
		}
	}
	for _, s := range e.Small {
		if s != nil {
			s.Close()
		}
	}
	for _, n := range e.Storage {
		if n != nil {
			n.Close()
		}
	}
	e.rebalMu.Lock()
	if e.rebal != nil {
		e.rebal.Close()
	}
	e.rebalMu.Unlock()
}
