// Package route implements the Slice request routing policies (§3): the
// compact routing tables mapping logical server sites to physical servers,
// the threshold policy separating small-file I/O from bulk I/O, static
// striping placement for bulk I/O, and the two name-space policies, mkdir
// switching and name hashing.
//
// The same policy code drives both the live µproxy (internal/proxy) and
// the discrete-event performance simulator (internal/sim), so the
// experiments measure the behaviour of the code that actually routes
// requests.
package route

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/replica"
)

// Table maps logical server site IDs to physical server addresses. The
// number of logical sites fixes the table size and the minimum granularity
// of rebalancing (§3.3.1); multiple logical sites may map to one physical
// server. Tables are soft state in the µproxy: the mapping is determined
// externally, and Swap installs a new binding without disturbing readers.
//
// Lookups are routing hot path — every datagram through a µproxy resolves
// at least one table — so the binding is published as an immutable
// snapshot behind an atomic pointer: readers never take a lock and never
// contend with each other; Swap installs a fresh snapshot.
type Table struct {
	mu    sync.Mutex // serializes writers (Swap)
	state atomic.Pointer[tableState]
}

// tableState is one immutable logical→physical binding generation. A
// snapshot carries the open transition's pending binding too, so one
// atomic load gives the data path a consistent (current, pending) pair.
type tableState struct {
	sites   []netsim.Addr // logical -> physical; never mutated once stored
	next    *pendingState // open transition's pending binding (nil: none)
	version uint64
}

// ErrEmptyTable is returned when routing through a table with no sites.
var ErrEmptyTable = errors.New("route: empty table")

// NewTable builds a table with the given number of logical sites bound
// round-robin over the physical servers. logical < len(physical) is
// raised to len(physical) so that every server is reachable.
func NewTable(logical int, physical []netsim.Addr) *Table {
	if logical < len(physical) {
		logical = len(physical)
	}
	t := &Table{}
	t.bind(logical, physical, 1)
	return t
}

func (t *Table) bind(logical int, physical []netsim.Addr, version uint64) {
	st := &tableState{version: version}
	if len(physical) > 0 {
		sites := make([]netsim.Addr, logical)
		for i := range sites {
			sites[i] = physical[i%len(physical)]
		}
		st.sites = sites
	}
	t.state.Store(st)
}

// Swap rebinds the table to a new physical server set, preserving the
// number of logical sites. This is the reconfiguration step of §3.3.1:
// after adding or removing a server, only the logical→physical binding
// changes; request keys keep hashing to the same logical sites. In-flight
// lookups keep reading the snapshot they loaded. Swap abandons any open
// transition (failover rebinds outrank a background migration, whose
// epoch-guarded Commit then fails cleanly).
func (t *Table) Swap(physical []netsim.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.state.Load()
	t.bind(len(cur.sites), physical, cur.version+1)
}

// NumLogical returns the number of logical sites.
func (t *Table) NumLogical() int {
	return len(t.state.Load().sites)
}

// Version returns the table generation, incremented by every Swap.
func (t *Table) Version() uint64 {
	return t.state.Load().version
}

// Site returns the logical site for a 64-bit key.
func (t *Table) Site(key uint64) uint32 {
	st := t.state.Load()
	if len(st.sites) == 0 {
		return 0
	}
	return uint32(key % uint64(len(st.sites)))
}

// Lookup returns the physical address bound to a logical site.
func (t *Table) Lookup(site uint32) (netsim.Addr, error) {
	sites := t.state.Load().sites
	if len(sites) == 0 {
		return netsim.Addr{}, ErrEmptyTable
	}
	return sites[int(site)%len(sites)], nil
}

// Route maps a key to a physical address in one step (one snapshot load:
// the site choice and the address resolve against the same generation).
func (t *Table) Route(key uint64) (netsim.Addr, error) {
	st := t.state.Load()
	if len(st.sites) == 0 {
		return netsim.Addr{}, ErrEmptyTable
	}
	return st.sites[key%uint64(len(st.sites))], nil
}

// Physical returns a copy of the current logical→physical binding.
func (t *Table) Physical() []netsim.Addr {
	sites := t.state.Load().sites
	out := make([]netsim.Addr, len(sites))
	copy(out, sites)
	return out
}

// NumPhysical returns the number of distinct physical addresses bound in
// the table — the real array width when several logical sites share a
// node.
func (t *Table) NumPhysical() int {
	return len(distinctAddrs(t.state.Load().sites))
}

// Binding is one immutable logical→physical generation of a table paired
// with the replica map that expands its primaries. It is the one place
// that answers "which nodes hold this key" and "which nodes are there":
// the data path, the coordinator and the rebalance driver all enumerate
// through it, so none of them can forget a replica-group member or a
// pending node the others reach.
type Binding struct {
	sites []netsim.Addr
	reps  *replica.Map
}

// Bindings returns the current binding and, while a transition is open,
// the pending one (NumLogical 0 otherwise), both from one snapshot load.
// reps is the live replica map over the current binding (nil:
// unreplicated); the pending binding expands through the map its
// transition carries, or through reps when it carries none.
func (t *Table) Bindings(reps *replica.Map) (cur, next Binding) {
	st := t.state.Load()
	cur = Binding{sites: st.sites, reps: reps}
	if st.next != nil {
		next = Binding{sites: st.next.sites, reps: st.next.reps}
		if next.reps == nil {
			next.reps = reps
		}
	}
	return cur, next
}

// NumLogical returns the binding's logical site count (0: no binding).
func (b Binding) NumLogical() int { return len(b.sites) }

// AppendNodes appends to dst every node holding key's logical site,
// replica-group members included, skipping nodes dst already has (the
// two bindings of one transition may resolve to the same node). An empty
// binding appends nothing.
func (b Binding) AppendNodes(dst []netsim.Addr, key uint64) []netsim.Addr {
	if len(b.sites) == 0 {
		return dst
	}
	return b.appendGroup(dst, b.sites[key%uint64(len(b.sites))])
}

// AppendAll appends to dst every node of the binding, replica-group
// members included, skipping nodes dst already has.
func (b Binding) AppendAll(dst []netsim.Addr) []netsim.Addr {
	for _, a := range b.sites {
		dst = b.appendGroup(dst, a)
	}
	return dst
}

// appendGroup appends primary's whole replica group (primary alone when
// unreplicated) minus what dst already holds.
func (b Binding) appendGroup(dst []netsim.Addr, primary netsim.Addr) []netsim.Addr {
	members := []netsim.Addr{primary}
	if g, ok := b.reps.GroupOf(primary); ok {
		members = g.Members
	}
	for _, m := range members {
		if !slices.Contains(dst, m) {
			dst = append(dst, m)
		}
	}
	return dst
}

// ------------------------------------------------------------- I/O policy

// Defaults for the I/O routing policy, from §3.1 and §5 of the paper.
const (
	// DefaultThreshold is the small-file threshold offset: I/O below this
	// offset goes to small-file servers, at or above it to storage nodes.
	DefaultThreshold = 64 * 1024
	// DefaultStripeUnit is the striping granularity for bulk I/O.
	DefaultStripeUnit = 32 * 1024
)

// IOTarget describes where one I/O request (or one fragment of it) goes.
type IOTarget struct {
	Addr  netsim.Addr
	Small bool // true if the target is a small-file server
}

// IOPolicy routes read/write/commit traffic. It separates small-file
// traffic from bulk I/O at a fixed threshold offset and declusters bulk
// blocks across the storage array with striping.
//
// With Replicas set, the Storage table is built over replica-group
// PRIMARIES only: placement still resolves one address per stripe, and
// the replica map expands it to the whole group underneath — writes
// must reach every member (WriteTargets does the expansion), while the
// read-side choice among members belongs to the µproxy, which alone
// knows which objects are dirty.
type IOPolicy struct {
	Threshold  uint64       // small-file threshold offset in bytes
	StripeUnit uint64       // bulk striping unit in bytes
	SmallFile  *Table       // small-file servers (nil disables separation)
	Storage    *Table       // storage nodes (group primaries when replicated)
	Replicas   *replica.Map // k-way groups under Storage (nil: none)
}

// NewIOPolicy returns an I/O policy with default threshold and stripe unit.
func NewIOPolicy(smallFile, storage *Table) *IOPolicy {
	return &IOPolicy{
		Threshold:  DefaultThreshold,
		StripeUnit: DefaultStripeUnit,
		SmallFile:  smallFile,
		Storage:    storage,
	}
}

// SmallFileTarget reports whether an I/O at offset on fh routes to a
// small-file server, per the fixed-threshold policy: small-file servers
// receive all I/O below the threshold, even on large files (§3.1).
func (p *IOPolicy) SmallFileTarget(offset uint64) bool {
	return p.SmallFile != nil && offset < p.Threshold
}

// SmallFileServer selects the small-file server for fh, keyed on the
// handle so a file's small-file blocks always live at one site.
func (p *IOPolicy) SmallFileServer(fh fhandle.Handle) (netsim.Addr, error) {
	if p.SmallFile == nil {
		return netsim.Addr{}, ErrEmptyTable
	}
	return p.SmallFile.Route(fhandle.HandleKey(fh))
}

// DataSites lists every site that may hold fh's data: its small-file
// server, then — unless small says the file lies wholly below the
// threshold — every storage node of the current and the pending binding,
// replica groups whole. A remove, truncate or commit must reach each of
// them: a member or a pending node it skipped keeps bytes that a failover
// or the transition's swap would resurrect.
func (p *IOPolicy) DataSites(fh fhandle.Handle, small bool) []netsim.Addr {
	var out []netsim.Addr
	if a, err := p.SmallFileServer(fh); err == nil {
		out = append(out, a)
	}
	if !small {
		cur, next := p.Bindings()
		out = next.AppendAll(cur.AppendAll(out))
	}
	return out
}

// WindowFor sizes a client's bulk-I/O window: stripe width × the
// per-node queue depth, so a full window keeps every storage node
// perNode requests deep. An empty table yields perNode (no fan-out to
// exploit, but pipelining one node still hides round-trip latency).
func (p *IOPolicy) WindowFor(perNode int) int {
	if perNode < 1 {
		perNode = 1
	}
	width := 1
	if p.Storage != nil {
		if n := p.Storage.NumPhysical(); n > width {
			width = n
		}
	}
	return width * perNode
}

// StripeIndex returns the stripe unit index of a byte offset.
func (p *IOPolicy) StripeIndex(offset uint64) uint64 {
	if p.StripeUnit == 0 {
		return 0
	}
	return offset / p.StripeUnit
}

// PlacementKey is the table key of one stripe of a storage object (the
// object ID is fhandle.HandleKey of the file's handle): adding the stripe
// index walks a file round-robin over the sites, and the fingerprint
// spreads files so they do not all start on storage node 0.
func PlacementKey(object, stripe uint64) uint64 {
	return object + stripe
}

// stripeKey is the table key of one stripe of fh.
func stripeKey(fh fhandle.Handle, stripe uint64) uint64 {
	return PlacementKey(fhandle.HandleKey(fh), stripe)
}

// Bindings returns the storage table's current and pending bindings under
// the policy's replica map.
func (p *IOPolicy) Bindings() (cur, next Binding) {
	return p.Storage.Bindings(p.Replicas)
}

// WriteTargets returns every storage node that must receive a write of the
// given stripe: the stripe's node, or — when the array is replicated —
// every member of its replica group. While the storage table has an open
// transition the result is the union of the current and pending
// bindings' targets (double-writing: the migration copier never chases
// bytes written behind it, and an abort loses nothing because the old
// binding saw every write too).
func (p *IOPolicy) WriteTargets(fh fhandle.Handle, stripe uint64) ([]netsim.Addr, error) {
	return p.AppendWriteTargets(nil, fh, stripe)
}

// AppendWriteTargets is WriteTargets appending to dst (skipping nodes dst
// already holds), so a caller with room on its own stack — the µproxy,
// for every WRITE — routes a write without allocating.
func (p *IOPolicy) AppendWriteTargets(dst []netsim.Addr, fh fhandle.Handle, stripe uint64) ([]netsim.Addr, error) {
	cur, next := p.Bindings()
	if cur.NumLogical() == 0 {
		return dst, ErrEmptyTable
	}
	key := stripeKey(fh, stripe)
	return next.AppendNodes(cur.AppendNodes(dst, key), key), nil
}

// ReadTarget returns the storage node to read the given stripe from: the
// stripe's site in the current binding (its group's primary when the
// array is replicated — spreading reads over the other members is the
// µproxy's call, since only it knows which objects have writes in flight).
func (p *IOPolicy) ReadTarget(fh fhandle.Handle, stripe uint64) (netsim.Addr, error) {
	return p.Storage.Route(stripeKey(fh, stripe))
}

// SpanStripes reports the stripe indices [first, last] covered by an I/O
// of count bytes at offset.
func (p *IOPolicy) SpanStripes(offset uint64, count uint32) (uint64, uint64) {
	if count == 0 {
		s := p.StripeIndex(offset)
		return s, s
	}
	return p.StripeIndex(offset), p.StripeIndex(offset + uint64(count) - 1)
}

// ------------------------------------------------------------ name policy

// NameKind selects the name-space routing policy.
type NameKind int

// Name-space policies of §3.2.
const (
	// MkdirSwitching routes name operations to the parent directory's
	// site, except that each mkdir is redirected with probability P to a
	// site chosen by hashing (parent, name).
	MkdirSwitching NameKind = iota
	// NameHashing routes every name operation by a hash of the name and
	// its position in the tree, spreading each directory's entries over
	// all sites.
	NameHashing
)

// String names the policy.
func (k NameKind) String() string {
	if k == NameHashing {
		return "name-hashing"
	}
	return "mkdir-switching"
}

// NamePolicy routes name-space and attribute operations to directory
// servers.
type NamePolicy struct {
	Kind NameKind
	// P is the mkdir redirection probability (mkdir switching only).
	// Directory affinity is 1-P.
	P float64
	// Dirs is the directory server table.
	Dirs *Table

	redirects atomic.Uint64 // mkdirs redirected away from the parent site
	mkdirs    atomic.Uint64
}

// NewNamePolicy builds a name routing policy over the directory table.
func NewNamePolicy(kind NameKind, p float64, dirs *Table) *NamePolicy {
	return &NamePolicy{Kind: kind, P: p, Dirs: dirs}
}

// redirectDecision makes the probability-P choice for a mkdir
// deterministically from (parent, name), so retransmissions of the same
// request route identically. The low 32 bits of the name key are compared
// against P scaled to 2^32.
func (np *NamePolicy) redirectDecision(parent fhandle.Handle, name string) bool {
	if np.P <= 0 {
		return false
	}
	if np.P >= 1 {
		return true
	}
	key := fhandle.NameKey(parent, name)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], key)
	// Use an independent portion of the hash from the one used for site
	// selection, so the redirect decision and the target site are not
	// correlated.
	sample := binary.BigEndian.Uint32(b[:4])
	return float64(sample) < np.P*(1<<32)
}

// RedirectStats reports (mkdirs seen, mkdirs redirected).
func (np *NamePolicy) RedirectStats() (uint64, uint64) {
	return np.mkdirs.Load(), np.redirects.Load()
}

// SiteFor returns the logical directory site for a parsed request. The
// second result reports whether this mkdir was redirected away from its
// parent's site (an "orphan" placement, §3.3.2).
func (np *NamePolicy) SiteFor(info *nfsproto.RequestInfo) (uint32, bool) {
	switch np.Kind {
	case NameHashing:
		return np.siteNameHashing(info), false
	default:
		return np.siteMkdirSwitching(info)
	}
}

func (np *NamePolicy) siteMkdirSwitching(info *nfsproto.RequestInfo) (uint32, bool) {
	// Route by the owning site recorded in the parent handle; the
	// directory server placed it there at create time (fixed placement).
	// LINK's new entry lives under its target directory (the second
	// handle), not under the linked file's site.
	parent := info.FH
	if info.Proc == nfsproto.ProcLink && info.HasFH2 {
		parent = info.FH2
	}
	parentSite := parent.Site % uint32(max(1, np.Dirs.NumLogical()))
	if info.Proc == nfsproto.ProcMkdir {
		np.mkdirs.Add(1)
		if np.redirectDecision(info.FH, info.Name) {
			site := np.Dirs.Site(fhandle.NameKey(info.FH, info.Name))
			if site != parentSite {
				np.redirects.Add(1)
				return site, true
			}
			return site, false
		}
	}
	return parentSite, false
}

func (np *NamePolicy) siteNameHashing(info *nfsproto.RequestInfo) uint32 {
	switch info.Proc {
	case nfsproto.ProcLookup, nfsproto.ProcCreate, nfsproto.ProcMkdir,
		nfsproto.ProcSymlink, nfsproto.ProcRemove, nfsproto.ProcRmdir:
		// Conflicting operations on a name entry hash to the same site
		// and serialize on its hash chain.
		return np.Dirs.Site(fhandle.NameKey(info.FH, info.Name))
	case nfsproto.ProcRename:
		// Route to the source entry's site; the server coordinates with
		// the destination site (implemented as link + remove, §4.3).
		return np.Dirs.Site(fhandle.NameKey(info.FH, info.Name))
	case nfsproto.ProcLink:
		// New name entry site.
		return np.Dirs.Site(fhandle.NameKey(info.FH2, info.Name2))
	default:
		// Handle-keyed operations (getattr/setattr/access/readdir) go to
		// the attribute cell's owner site recorded in the handle.
		return info.FH.Site % uint32(max(1, np.Dirs.NumLogical()))
	}
}

// AddrFor routes a request to a physical directory server.
func (np *NamePolicy) AddrFor(info *nfsproto.RequestInfo) (netsim.Addr, error) {
	site, _ := np.SiteFor(info)
	return np.Dirs.Lookup(site)
}
