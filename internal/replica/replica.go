// Package replica implements k-way storage replication underneath the
// routing tables, in the style of Harmonia's in-network conflict
// detection (PAPERS.md): the placement policy keeps routing to one
// *primary* per logical site, and a replica Map expands that primary to
// its whole group — writes fan out to every member, reads spread across
// members that are provably consistent. Consistency is tracked by a
// per-object dirty set in the µproxy's soft state: an object is dirty
// while any WRITE to its group is in flight and becomes clean again only
// when every replica has acknowledged (or a COMMIT barrier has drained
// the window), so a clean object may be read from ANY member and a dirty
// one is pinned to the primary, whose reply order defines the file's
// contents.
//
// Like every other µproxy table, the Map is an immutable snapshot behind
// an atomic pointer (data-path readers never lock; Swap installs a new
// generation, which a retransmission routed afresh picks up), and the
// dirty set is sharded soft state — the only state read spreading keeps.
// Losing it is safe
// because a fresh µproxy over-approximates — absent knowledge an entry
// re-marked by a retransmitted WRITE pins reads to the primary until the
// next COMMIT clears it.
//
// A member that lost its disk rejoins through a rebalance transition
// whose pending map is the live one with its down mark cleared
// (Map.WithUp): writes reach it from the transition's start, reads only
// after the commit. The peer program (peer.go) carries that copy, like
// every other data move.
package replica

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"slice/internal/netsim"
)

// Group is one replica group: Members[0] is the primary — the address
// the routing tables resolve to — and the rest are its mirrors.
type Group struct {
	ID      uint32
	Members []netsim.Addr // never mutated once published
}

// mapState is one immutable group-topology generation.
type mapState struct {
	degree    int
	groups    []Group
	byPrimary map[netsim.Addr]int32 // primary address -> group index
	byMember  map[netsim.Addr]int32 // any member address -> group index
}

// Map is the replica-group table layered under route.Table's
// physical-node map: the table routes to primaries, the Map expands a
// primary to its group. Members marked down (a failed node, folded into
// a topology swap like route.Fleet) are filtered out of their group
// until marked up again.
type Map struct {
	mu     sync.Mutex // serializes writers (Swap, MarkDown, MarkUp)
	nodes  []netsim.Addr
	degree int
	down   map[netsim.Addr]bool
	state  atomic.Pointer[mapState]
}

// NewMap partitions nodes into groups of degree consecutive members
// (the last group absorbs any remainder) and returns the table. degree <= 1 yields an empty map that expands nothing.
func NewMap(degree int, nodes []netsim.Addr) *Map {
	m := &Map{
		nodes:  append([]netsim.Addr(nil), nodes...),
		degree: degree,
		down:   make(map[netsim.Addr]bool),
	}
	m.store()
	return m
}

// store rebuilds the published snapshot from nodes/degree/down. Callers
// other than NewMap hold m.mu. A group whose members are all down keeps
// its first (dead) member so lookups still resolve somewhere — requests
// to it stall and clients retransmit, exactly as an unreplicated outage
// behaves.
func (m *Map) store() {
	st := &mapState{degree: m.degree,
		byPrimary: make(map[netsim.Addr]int32),
		byMember:  make(map[netsim.Addr]int32)}
	if m.degree > 1 {
		for base := 0; base < len(m.nodes); base += m.degree {
			end := base + m.degree
			if end > len(m.nodes) || len(m.nodes)-end < m.degree {
				end = len(m.nodes)
			}
			var members []netsim.Addr
			for _, a := range m.nodes[base:end] {
				if !m.down[a] {
					members = append(members, a)
				}
			}
			if len(members) == 0 {
				members = append(members, m.nodes[base])
			}
			g := Group{
				ID:      uint32(len(st.groups)),
				Members: members,
			}
			st.byPrimary[g.Members[0]] = int32(len(st.groups))
			for _, a := range g.Members {
				st.byMember[a] = int32(len(st.groups))
			}
			st.groups = append(st.groups, g)
			if end == len(m.nodes) {
				break
			}
		}
	}
	m.state.Store(st)
}

// Swap installs a new node list at the same degree, clearing any down
// marks. In-flight lookups keep the snapshot they loaded.
func (m *Map) Swap(nodes []netsim.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes = append(m.nodes[:0], nodes...)
	m.down = make(map[netsim.Addr]bool)
	m.store()
}

// MarkDown filters addr out of its group in a new generation — failure
// detection folded into one topology swap: writes stop awaiting the
// dead member and reads stop spreading to it, and a retransmitted
// in-flight request, routed afresh, resolves onto the survivors. When
// addr was its group's primary the next member is promoted; the caller
// owns rebinding the routing table to the new primary.
func (m *Map) MarkDown(addr netsim.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.down[addr] = true
	m.store()
}

// MarkUp restores a member marked down (once a rebirth transition has
// copied it whole, just before the commit), so spread reads start
// reaching it again.
func (m *Map) MarkUp(addr netsim.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.down, addr)
	m.store()
}

// WithUp returns a new map over the same nodes and down marks, except
// that addr is up — the pending replica map of a rebirth transition,
// which must reach the reborn member while the live map keeps it down.
func (m *Map) WithUp(addr netsim.Addr) *Map {
	m.mu.Lock()
	defer m.mu.Unlock()
	up := &Map{nodes: slices.Clone(m.nodes), degree: m.degree, down: maps.Clone(m.down)}
	delete(up.down, addr)
	up.store()
	return up
}

// Degree returns the replication degree (members per group).
func (m *Map) Degree() int {
	if m == nil {
		return 1
	}
	return m.state.Load().degree
}

// NumGroups returns the group count.
func (m *Map) NumGroups() int { return len(m.state.Load().groups) }

// Groups returns the current groups. The slice is the immutable
// snapshot itself; callers must not mutate it.
func (m *Map) Groups() []Group { return m.state.Load().groups }

// Replicated reports whether the map actually expands anything: a nil
// map or degree <= 1 routes exactly as an unreplicated array.
func (m *Map) Replicated() bool {
	return m != nil && len(m.state.Load().groups) > 0
}

// GroupOf returns the group whose primary is addr. The data path calls
// this with addresses freshly resolved from the same storage table the
// map was built against; a miss means addr is not a primary. Safe on a
// nil map (unreplicated policies carry none).
func (m *Map) GroupOf(addr netsim.Addr) (Group, bool) {
	if m == nil {
		return Group{}, false
	}
	st := m.state.Load()
	if i, ok := st.byPrimary[addr]; ok {
		return st.groups[i], true
	}
	return Group{}, false
}

// MemberOf returns the group addr currently belongs to — primary or
// mirror. Unlike GroupOf (which resolves routing-table primaries), this
// answers "is this address one of a replica set" for reply
// classification: a reply arriving from any member of a multi-member
// group is only a partial answer to a fanned-out request.
func (m *Map) MemberOf(addr netsim.Addr) (Group, bool) {
	if m == nil {
		return Group{}, false
	}
	st := m.state.Load()
	if i, ok := st.byMember[addr]; ok {
		return st.groups[i], true
	}
	return Group{}, false
}
