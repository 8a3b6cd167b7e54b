package route

import (
	"sync"
	"sync/atomic"

	"slice/internal/netsim"
)

// ProxyMember is one µproxy in the fleet: the virtual server address it
// interposes on, the host it runs its own RPCs from, and a small stable
// ID that survives crash/restart cycles (a restarted proxy keeps its
// identity, so its ring points come back where they were and flows
// migrate minimally).
type ProxyMember struct {
	ID      uint32      // stable fleet slot, never reused for a different proxy
	Virtual netsim.Addr // the virtual NFS server address this proxy answers
	Host    uint32      // host the proxy's own client port binds on
}

// Fleet is the versioned membership table of the µproxy tier, the
// fleet-level analogue of Table: an immutable member list behind an
// atomic pointer, so data-path readers (the flow-hashing front, clients
// re-resolving a retransmission) never take a lock, while Swap installs
// a new generation when a proxy joins, crashes, or restarts. Like the
// storage tables, fleet membership is soft state — it can be rebuilt
// from configuration at any time — so there is no write-ahead log here.
type Fleet struct {
	mu    sync.Mutex // serializes writers (Swap)
	state atomic.Pointer[fleetState]
}

// fleetState is one immutable membership generation.
type fleetState struct {
	members []ProxyMember // sorted by ID; never mutated once stored
	version uint64
}

// NewFleet builds a fleet table over the given members.
func NewFleet(members []ProxyMember) *Fleet {
	f := &Fleet{}
	f.store(members, 1)
	return f
}

func (f *Fleet) store(members []ProxyMember, version uint64) {
	st := &fleetState{version: version}
	if len(members) > 0 {
		st.members = append([]ProxyMember(nil), members...)
		sortMembers(st.members)
	}
	f.state.Store(st)
}

// Swap installs a new membership generation. In-flight lookups keep
// reading the snapshot they loaded; the front's ring rebuilds lazily
// when it observes the new version.
func (f *Fleet) Swap(members []ProxyMember) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.store(members, f.state.Load().version+1)
}

// Version returns the membership generation, incremented by every Swap.
func (f *Fleet) Version() uint64 {
	return f.state.Load().version
}

// Members returns the current membership, sorted by ID. The slice is
// the immutable snapshot itself; callers must not mutate it.
func (f *Fleet) Members() []ProxyMember {
	return f.state.Load().members
}

// Len returns the current member count.
func (f *Fleet) Len() int {
	return len(f.state.Load().members)
}

// Member returns the member with the given ID, if present.
func (f *Fleet) Member(id uint32) (ProxyMember, bool) {
	for _, m := range f.state.Load().members {
		if m.ID == id {
			return m, true
		}
	}
	return ProxyMember{}, false
}

// sortMembers orders by ID (insertion sort: fleets are small).
func sortMembers(ms []ProxyMember) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].ID < ms[j-1].ID; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}
