// Versioned topology transitions.
//
// A transition is a two-phase rebind of a Table: Begin publishes a
// *pending* binding next to the current one (µproxies start
// double-writing new data to both bindings with the next call or
// retransmission they route), a background migrator copies old blocks,
// and Commit makes
// the pending binding current (or Abort discards it). Both phases are
// epoch-guarded: the epoch minted by Begin must be presented to
// Commit/Abort, so a crashed migration cannot commit a transition it
// no longer owns and the coordinator's intention probe can roll back a
// dead driver's transition without racing a live one.
//
// Every table places a key on logical site key mod n, and a site's
// identity is its index: rebinding a site to another server (failover,
// Swap) moves no key, and PlanGrow/PlanShrink change membership by
// rebinding the fewest sites that keeps the nodes balanced — the
// consistent-hashing minimum at logical-site granularity (§3.3.1).
package route

import (
	"fmt"

	"slice/internal/netsim"
	"slice/internal/replica"
)

// pendingState is the not-yet-committed half of a transition, carried
// inside the table snapshot so the data path sees (current, pending)
// consistently from a single atomic load.
type pendingState struct {
	sites []netsim.Addr // pending logical -> physical binding
	reps  *replica.Map  // replica groups under the pending binding (may be nil)
	epoch uint64
}

// One logical site per server, under the name benchmark/ledger.go — its
// sole caller, which only a benchmark PR may edit — still compiles
// against; ROADMAP item 8's PR deletes it.
func NewRingTable(physical []netsim.Addr) *Table {
	return NewTable(len(physical), physical)
}

// ------------------------------------------------------------ transitions

// ErrTransitionPending is returned by Begin while another transition is
// still open; callers must Commit or Abort it first.
var ErrTransitionPending = fmt.Errorf("route: transition already pending")

// Begin opens a transition to a new binding and returns its epoch. next
// is the complete logical→physical site list (use PlanGrow/PlanShrink to
// derive one with minimal movement). The current binding stays
// authoritative for reads; WriteTargets starts unioning both bindings.
// reps carries the replica groups the pending binding will run under
// (nil keeps the current map). A µproxy routes each retransmission from
// the tables as they are now, so a write in flight reaches the pending
// binding at its next transmission. The epoch is the table's next
// version.
func (t *Table) Begin(next []netsim.Addr, reps *replica.Map) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.state.Load()
	if cur.next != nil {
		return 0, ErrTransitionPending
	}
	if len(next) == 0 {
		return 0, ErrEmptyTable
	}
	pend := &pendingState{
		sites: append([]netsim.Addr(nil), next...),
		reps:  reps,
		epoch: cur.version + 1,
	}
	t.state.Store(&tableState{
		sites:   cur.sites,
		next:    pend,
		version: cur.version + 1,
	})
	return pend.epoch, nil
}

// Commit installs the pending binding as current, ending the
// transition. It returns false (and changes nothing) unless a
// transition with exactly this epoch is open — a migration driver that
// lost its transition to a coordinator-probe Abort cannot commit a
// half-copied binding.
func (t *Table) Commit(epoch uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.state.Load()
	if cur.next == nil || cur.next.epoch != epoch {
		return false
	}
	t.state.Store(&tableState{
		sites:   cur.next.sites,
		version: cur.version + 1,
	})
	return true
}

// Abort discards the pending binding, keeping the current one. Same
// epoch guard as Commit.
func (t *Table) Abort(epoch uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.state.Load()
	if cur.next == nil || cur.next.epoch != epoch {
		return false
	}
	t.state.Store(&tableState{
		sites:   cur.sites,
		version: cur.version + 1,
	})
	return true
}

// Transitioning reports whether a transition is open.
func (t *Table) Transitioning() bool {
	return t.state.Load().next != nil
}

// PendingEpoch returns the open transition's epoch (0: none).
func (t *Table) PendingEpoch() uint64 {
	if next := t.state.Load().next; next != nil {
		return next.epoch
	}
	return 0
}

// distinctAddrs returns the distinct addresses in first-appearance
// order.
func distinctAddrs(sites []netsim.Addr) []netsim.Addr {
	return Binding{sites: sites}.AppendAll(nil)
}

// --------------------------------------------------------------- planners

// PlanGrow derives the pending site list for adding servers: the
// binding is extended to `logical` sites (at least the current count)
// and the minimum number of sites move — every node ends within one of
// its fair share, and a site changes owner only when its old owner is
// over quota, so the moved fraction is exactly the consistent-hashing
// minimum at site granularity.
func PlanGrow(cur []netsim.Addr, add []netsim.Addr, logical int) ([]netsim.Addr, error) {
	if logical < len(cur) {
		logical = len(cur)
	}
	nodes := Binding{sites: add}.AppendAll(distinctAddrs(cur))
	sites := make([]netsim.Addr, logical)
	copy(sites, cur)
	return rebind(sites, nodes, len(cur))
}

// PlanShrink derives the pending site list for removing servers: the
// logical site count is preserved, and only the sites bound to removed
// servers move (to the survivors with the most headroom).
func PlanShrink(cur []netsim.Addr, remove []netsim.Addr) ([]netsim.Addr, error) {
	removed := make(map[netsim.Addr]bool, len(remove))
	for _, a := range remove {
		removed[a] = true
	}
	var nodes []netsim.Addr
	for _, a := range distinctAddrs(cur) {
		if !removed[a] {
			nodes = append(nodes, a)
		}
	}
	sites := append([]netsim.Addr(nil), cur...)
	for i, a := range sites {
		if removed[a] {
			sites[i] = netsim.Addr{} // orphan: rebind below
		}
	}
	return rebind(sites, nodes, len(cur))
}

// rebind balances a partially-assigned site list over the node set with
// minimal movement: each node keeps up to its quota of the sites it
// already owns; everything beyond quota (and every unassigned site in
// [assigned, len)) is handed to the nodes still under quota, in node
// order. Sites at index >= assigned are treated as new (unowned).
func rebind(sites []netsim.Addr, nodes []netsim.Addr, assigned int) ([]netsim.Addr, error) {
	n := len(nodes)
	if n == 0 {
		return nil, ErrEmptyTable
	}
	base, extra := len(sites)/n, len(sites)%n
	quota := make(map[netsim.Addr]int, n)
	for i, a := range nodes {
		quota[a] = base
		if i < extra {
			quota[a]++
		}
	}
	var orphans []int
	for i := range sites {
		a := sites[i]
		if i >= assigned || a == (netsim.Addr{}) {
			orphans = append(orphans, i)
			continue
		}
		if q, ok := quota[a]; ok && q > 0 {
			quota[a] = q - 1
		} else {
			orphans = append(orphans, i) // over quota or node not in set
		}
	}
	next := 0
	for _, i := range orphans {
		for next < n && quota[nodes[next]] == 0 {
			next++
		}
		if next == n {
			return nil, fmt.Errorf("route: rebind quota exhausted")
		}
		sites[i] = nodes[next]
		quota[nodes[next]]--
	}
	return sites, nil
}
