// Package front is the flow-hashing front of the µproxy fleet: it maps
// each client flow to the proxy that owns it, by consistent hashing
// with virtual nodes (Chord-style). A flow is (client address, file
// handle) — all requests a client issues against one file hash to one
// proxy, so that proxy's soft state (attribute cache, name cache,
// pending table) sees the whole flow and no cross-proxy coordination
// ever sits on the data path. Virtual nodes keep the shares roughly
// equal; consistent hashing keeps flow movement minimal when a proxy
// joins or leaves — only the flows of the departed (or arrived) proxy
// change owner, so the soft state the survivors have built stays warm.
//
// The ring reads fleet membership from a route.Fleet snapshot and
// rebuilds itself lazily when the fleet version moves, so the lookup
// path is lock-free in steady state: one atomic load to check the
// version, one binary search over the point array.
package front

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"slice/internal/netsim"
	"slice/internal/route"
)

// DefaultVNodes is the number of ring points per proxy. 160 points per
// member keeps the maximum share within ~1.3× the mean for small fleets
// (the balance test pins this at 1.35× for 8 proxies and 10k flows).
const DefaultVNodes = 160

// Ring is the consistent-hash ring over a fleet's membership. Lookups
// are wait-free against concurrent Swaps on the fleet: a stale ring
// generation keeps answering until the rebuild is published.
type Ring struct {
	fleet  *route.Fleet
	vnodes int

	mu    sync.Mutex // serializes rebuilds
	state atomic.Pointer[ringState]
}

// ringState is the ring built for one fleet generation.
type ringState struct {
	version uint64   // fleet version this ring reflects
	points  []uint64 // sorted ring point hashes
	owners  []route.ProxyMember
}

// NewRing builds a ring over the fleet with the given points per
// member; vnodes <= 0 selects DefaultVNodes.
func NewRing(fleet *route.Fleet, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{fleet: fleet, vnodes: vnodes}
	r.state.Store(r.build())
	return r
}

// build constructs the ring for the fleet's current membership.
func (r *Ring) build() *ringState {
	version := r.fleet.Version()
	members := r.fleet.Members()
	st := &ringState{version: version}
	if len(members) == 0 {
		return st
	}
	n := len(members) * r.vnodes
	st.points = make([]uint64, 0, n)
	st.owners = make([]route.ProxyMember, 0, n)
	type pt struct {
		hash  uint64
		owner route.ProxyMember
	}
	pts := make([]pt, 0, n)
	for _, m := range members {
		for v := 0; v < r.vnodes; v++ {
			pts = append(pts, pt{pointHash(m.ID, uint32(v)), m})
		}
	}
	// Sort by hash; ties (vanishingly rare for a 64-bit mix) resolve to
	// the lower member ID so every ring is deterministic.
	slices.SortFunc(pts, func(a, b pt) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.owner.ID, b.owner.ID))
	})
	for _, p := range pts {
		st.points = append(st.points, p.hash)
		st.owners = append(st.owners, p.owner)
	}
	return st
}

// load returns a ring state current for the fleet's membership,
// rebuilding at most once per fleet generation.
func (r *Ring) load() *ringState {
	st := r.state.Load()
	if st.version == r.fleet.Version() {
		return st
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st = r.state.Load(); st.version == r.fleet.Version() {
		return st
	}
	st = r.build()
	r.state.Store(st)
	return st
}

// Owner maps a flow key to the proxy that owns it: the successor of the
// key on the ring, wrapping at the top. ok is false when the fleet is
// empty.
func (r *Ring) Owner(key uint64) (route.ProxyMember, bool) {
	st := r.load()
	if len(st.points) == 0 {
		return route.ProxyMember{}, false
	}
	h := mix64(key)
	// Binary search for the first point >= h.
	lo, hi := 0, len(st.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.points[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(st.points) {
		lo = 0
	}
	return st.owners[lo], true
}

// Resolve maps a flow key straight to the owning proxy's virtual
// address, with the zero Addr for an empty fleet. This is the shape the
// RPC layer's per-transmission re-resolve wants: a zero address tells
// it to fall back to its static server.
func (r *Ring) Resolve(key uint64) netsim.Addr {
	m, ok := r.Owner(key)
	if !ok {
		return netsim.Addr{}
	}
	return m.Virtual
}

// FlowKey derives the flow key of (client address, file-handle key).
// Both halves pass through the mixer so adjacent hosts and sequential
// handles spread over the whole ring. Mount-time traffic (no handle
// yet) uses handle key 0, which is a perfectly good flow.
func FlowKey(client netsim.Addr, fhKey uint64) uint64 {
	h := mix64(uint64(client.Host)<<16 | uint64(client.Port))
	return mix64(h ^ fhKey)
}

// pointHash places virtual node v of member id on the ring.
func pointHash(id, v uint32) uint64 {
	return mix64(uint64(id)<<32 | uint64(v))
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche 64-bit mix.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
