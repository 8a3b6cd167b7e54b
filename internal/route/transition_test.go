package route

import (
	"math/rand"
	"slices"
	"testing"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/replica"
)

// addrN is the i'th address of the addrs(n) helper in route_test.go.
func addrN(i int) netsim.Addr {
	return netsim.Addr{Host: uint32(10 + i), Port: 2049}
}

func TestBeginCommit(t *testing.T) {
	phys := addrs(4)
	tbl := NewTable(12, phys)
	v0 := tbl.Version()

	next, err := PlanGrow(tbl.Physical(), []netsim.Addr{addrN(4), addrN(5)}, 12)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := tbl.Begin(next, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Transitioning() || tbl.PendingEpoch() != epoch {
		t.Fatalf("transition not open: %v %d", tbl.Transitioning(), tbl.PendingEpoch())
	}
	if tbl.Version() <= v0 {
		t.Fatalf("Begin must bump version: %d <= %d", tbl.Version(), v0)
	}
	// Reads stay on the old binding until commit.
	for key := uint64(0); key < 100; key++ {
		a, err := tbl.Route(key)
		if err != nil {
			t.Fatal(err)
		}
		if a == addrN(4) || a == addrN(5) {
			t.Fatalf("key %d routed to a pending-only node before commit", key)
		}
	}
	if _, pend := tbl.Bindings(nil); pend.NumLogical() != 12 {
		t.Fatalf("pending logical = %d", pend.NumLogical())
	}
	// A second Begin while one is open must fail.
	if _, err := tbl.Begin(next, nil); err != ErrTransitionPending {
		t.Fatalf("second Begin: %v", err)
	}
	// Commit with the wrong epoch must refuse.
	if tbl.Commit(epoch + 7) {
		t.Fatal("Commit accepted a wrong epoch")
	}
	vPre := tbl.Version()
	if !tbl.Commit(epoch) {
		t.Fatal("Commit refused the right epoch")
	}
	if tbl.Transitioning() || tbl.Version() <= vPre {
		t.Fatal("commit did not close the transition with a version bump")
	}
	// The new nodes now own sites.
	seen := map[netsim.Addr]bool{}
	for _, a := range tbl.Physical() {
		seen[a] = true
	}
	if !seen[addrN(4)] || !seen[addrN(5)] {
		t.Fatal("committed binding is missing the added nodes")
	}
	// Commit/Abort after close are no-ops.
	if tbl.Commit(epoch) || tbl.Abort(epoch) {
		t.Fatal("closed transition still commits/aborts")
	}
}

func TestAbortKeepsBinding(t *testing.T) {
	tbl := NewTable(8, addrs(4))
	before := tbl.Physical()
	next, err := PlanGrow(before, []netsim.Addr{addrN(9)}, 8)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := tbl.Begin(next, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Abort(epoch + 1) {
		t.Fatal("Abort accepted a wrong epoch")
	}
	if !tbl.Abort(epoch) {
		t.Fatal("Abort refused the right epoch")
	}
	if tbl.Transitioning() {
		t.Fatal("transition still open after abort")
	}
	after := tbl.Physical()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("site %d moved across an abort: %v -> %v", i, before[i], after[i])
		}
	}
}

func TestSwapAbandonsTransition(t *testing.T) {
	tbl := NewTable(8, addrs(4))
	next, _ := PlanGrow(tbl.Physical(), []netsim.Addr{addrN(7)}, 8)
	epoch, err := tbl.Begin(next, nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Swap(addrs(3)) // failover rebind mid-transition
	if tbl.Transitioning() {
		t.Fatal("Swap left the transition open")
	}
	if tbl.Commit(epoch) {
		t.Fatal("stale driver committed across a Swap")
	}
}

// ownerCounts tallies sites per node.
func ownerCounts(sites []netsim.Addr) map[netsim.Addr]int {
	c := make(map[netsim.Addr]int)
	for _, a := range sites {
		c[a]++
	}
	return c
}

// TestPlanGrowMinimalMovement: for random topologies, PlanGrow moves
// exactly the provable minimum number of sites (every node keeps
// min(owned, quota) of its sites) and lands balanced within one site.
func TestPlanGrowMinimalMovement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		oldN := 1 + rng.Intn(8)
		addN := 1 + rng.Intn(6)
		logical := oldN + rng.Intn(24)
		cur := NewTable(logical, addrs(oldN)).Physical()
		add := make([]netsim.Addr, addN)
		for i := range add {
			add[i] = addrN(oldN + i)
		}
		next, err := PlanGrow(cur, add, logical)
		if err != nil {
			t.Fatal(err)
		}
		if len(next) < len(cur) {
			t.Fatalf("trial %d: plan shrank the site list", trial)
		}
		n := oldN + addN
		base, extra := len(next)/n, len(next)%n
		counts := ownerCounts(next)
		// Lower bound: sites old nodes certainly cannot keep (anything
		// beyond the generous base+1 share).
		minMoves := 0
		for _, c := range ownerCounts(cur) {
			over := c - (base + 1)
			if extra == 0 {
				over = c - base
			}
			if over > 0 {
				minMoves += over
			}
		}
		moves := 0
		for i := range cur {
			if next[i] != cur[i] {
				moves++
			}
		}
		for a, c := range counts {
			if c < base || c > base+1 {
				t.Fatalf("trial %d: node %v owns %d sites, want %d..%d", trial, a, c, base, base+1)
			}
		}
		// Upper bound on moves: the total quota the new nodes must
		// receive plus rounding slack — never more than the whole
		// new-node share plus one per old node.
		maxMoves := addN*(base+1) + oldN
		if moves > maxMoves {
			t.Fatalf("trial %d: %d sites moved, bound %d (old=%d add=%d logical=%d)",
				trial, moves, maxMoves, oldN, addN, logical)
		}
		if moves < minMoves {
			t.Fatalf("trial %d: impossible: %d moves < lower bound %d", trial, moves, minMoves)
		}
		// A moved site must land on a node that needed it (a new node,
		// or an old node under its floor share) — never shuffled
		// between two comfortable survivors.
		oldCounts := ownerCounts(cur)
		for i := range cur {
			if next[i] == cur[i] {
				continue
			}
			if oldCounts[next[i]] > base {
				t.Fatalf("trial %d: site %d moved to already-full node %v", trial, i, next[i])
			}
		}
	}
}

// TestPlanGrow4to6Exact pins the acceptance-criteria shape: growing
// 4→6 nodes at 12 logical sites moves exactly 4 sites — the 1/3 of the
// key space the two new nodes must own, i.e. the consistent-hash
// minimum.
func TestPlanGrow4to6Exact(t *testing.T) {
	cur := NewTable(12, addrs(4)).Physical()
	next, err := PlanGrow(cur, []netsim.Addr{addrN(4), addrN(5)}, 12)
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	for i := range cur {
		if next[i] != cur[i] {
			moves++
		}
	}
	if moves != 4 {
		t.Fatalf("grow 4→6 over 12 sites moved %d sites, want exactly 4", moves)
	}
	counts := ownerCounts(next)
	for a, c := range counts {
		if c != 2 {
			t.Fatalf("node %v owns %d sites, want 2", a, c)
		}
	}
}

func TestPlanShrinkMovesOnlyRemoved(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		oldN := 2 + rng.Intn(8)
		logical := oldN + rng.Intn(24)
		cur := NewTable(logical, addrs(oldN)).Physical()
		removeN := 1 + rng.Intn(oldN-1)
		remove := make([]netsim.Addr, removeN)
		for i := range remove {
			remove[i] = addrN(i) // remove a prefix
		}
		next, err := PlanShrink(cur, remove)
		if err != nil {
			t.Fatal(err)
		}
		removed := map[netsim.Addr]bool{}
		for _, a := range remove {
			removed[a] = true
		}
		for i := range cur {
			if removed[next[i]] {
				t.Fatalf("trial %d: site %d still bound to removed node", trial, i)
			}
			if next[i] != cur[i] && !removed[cur[i]] {
				t.Fatalf("trial %d: survivor site %d moved (%v -> %v)", trial, i, cur[i], next[i])
			}
		}
	}
	if _, err := PlanShrink(addrs(2), addrs(2)); err == nil {
		t.Fatal("shrinking to zero nodes must error")
	}
}

// TestWriteTargetsUnionDuringTransition: writes fan out to both
// bindings while a transition is open, and collapse to the new binding
// after commit.
func TestWriteTargetsUnionDuringTransition(t *testing.T) {
	tbl := NewTable(12, addrs(4))
	pol := NewIOPolicy(nil, tbl)
	fh := fhandle.Handle{FileID: 0x1234}

	oldT, err := pol.WriteTargets(fh, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(oldT) != 1 {
		t.Fatalf("unmirrored pre-transition write has %d targets", len(oldT))
	}
	next, err := PlanGrow(tbl.Physical(), []netsim.Addr{addrN(4), addrN(5)}, 12)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := tbl.Begin(next, nil)
	if err != nil {
		t.Fatal(err)
	}
	during, err := pol.WriteTargets(fh, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(during, oldT[0]) {
		t.Fatalf("transition write targets %v dropped the old target %v", during, oldT[0])
	}
	want := next[(fhandle.HandleKey(fh)+3)%12]
	if !slices.Contains(during, want) {
		t.Fatalf("transition write targets %v missing pending target %v", during, want)
	}
	if !tbl.Commit(epoch) {
		t.Fatal("commit failed")
	}
	after, err := pol.WriteTargets(fh, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || after[0] != want {
		t.Fatalf("post-commit targets %v, want just %v", after, want)
	}
}

// TestWriteTargetsPendingReplicas: a transition carrying a replica map
// expands pending primaries through it.
func TestWriteTargetsPendingReplicas(t *testing.T) {
	nodes := addrs(2) // group primaries today
	tbl := NewTable(2, nodes)
	pol := NewIOPolicy(nil, tbl)

	// Pending world: 4 nodes in 2 groups of 2.
	all := addrs(4)
	reps := replica.NewMap(2, all)
	next := []netsim.Addr{all[0], all[2]} // primaries of the two groups
	if _, err := tbl.Begin(next, reps); err != nil {
		t.Fatal(err)
	}
	fh := fhandle.Handle{FileID: 7}
	ts, err := pol.WriteTargets(fh, 0)
	if err != nil {
		t.Fatal(err)
	}
	primary := next[fhandle.HandleKey(fh)%2]
	g, ok := reps.GroupOf(primary)
	if !ok {
		t.Fatalf("pending primary %v has no group", primary)
	}
	for _, m := range g.Members {
		if !slices.Contains(ts, m) {
			t.Fatalf("write targets %v missing pending group member %v", ts, m)
		}
	}
	// The pending binding's "all nodes" view reaches the members too,
	// and the current one — no live map — only its primaries.
	cur, pend := pol.Bindings()
	if got := pend.AppendAll(nil); len(got) != 4 {
		t.Fatalf("pending binding enumerates %v, want all 4 group members", got)
	}
	if got := cur.AppendAll(nil); len(got) != 2 {
		t.Fatalf("current binding enumerates %v, want its 2 nodes", got)
	}
}

// FuzzTableTransition drives random grow/begin/commit/abort/swap
// sequences and asserts the structural invariants: routing always
// resolves, versions only grow, the epoch guard holds, pending state
// exists exactly while a transition is open, and no operation changes
// the logical-site count (a key's site is its identity). Byte 0 picks
// that count (12 down to 4 over the four starting nodes).
func FuzzTableTransition(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{1, 0, 0, 1, 5, 2, 9})
	f.Add([]byte{0, 3, 0, 4, 1, 1, 2, 2, 0, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		logical := 12 - int(prog[0]%9)
		tbl := NewTable(logical, addrs(4))
		nextNode := 4
		lastVersion := tbl.Version()
		var openEpoch uint64
		for _, b := range prog[1:] {
			switch b % 5 {
			case 0: // begin a grow
				next, err := PlanGrow(tbl.Physical(), []netsim.Addr{addrN(nextNode)}, logical)
				if err != nil {
					t.Fatal(err)
				}
				epoch, err := tbl.Begin(next, nil)
				if err == nil {
					if openEpoch != 0 {
						t.Fatal("Begin succeeded while a transition was open")
					}
					openEpoch = epoch
					nextNode++
				} else if err == ErrTransitionPending && openEpoch == 0 {
					t.Fatal("Begin refused with no transition open")
				}
			case 1: // commit
				ok := tbl.Commit(openEpoch)
				if ok != (openEpoch != 0) {
					t.Fatalf("Commit(%d) = %v with open=%v", openEpoch, ok, openEpoch != 0)
				}
				openEpoch = 0
			case 2: // abort
				ok := tbl.Abort(openEpoch)
				if ok != (openEpoch != 0) {
					t.Fatalf("Abort(%d) = %v with open=%v", openEpoch, ok, openEpoch != 0)
				}
				openEpoch = 0
			case 3: // failover swap abandons any transition
				tbl.Swap(addrs(3 + int(b%4)))
				openEpoch = 0
			case 4: // route some keys
				for key := uint64(b); key < uint64(b)+16; key++ {
					if _, err := tbl.Route(key); err != nil {
						t.Fatalf("Route(%d): %v", key, err)
					}
				}
			}
			if v := tbl.Version(); v < lastVersion {
				t.Fatalf("version went backwards: %d -> %d", lastVersion, v)
			} else {
				lastVersion = v
			}
			if tbl.Transitioning() != (openEpoch != 0) {
				t.Fatalf("Transitioning=%v but openEpoch=%d", tbl.Transitioning(), openEpoch)
			}
			_, pend := tbl.Bindings(nil)
			if tbl.Transitioning() {
				if len(pend.AppendNodes(nil, 99)) != 1 {
					t.Fatal("pending binding did not place a key mid-transition")
				}
				if len(pend.AppendAll(nil)) == 0 {
					t.Fatal("open transition with no pending physical nodes")
				}
			} else if tbl.PendingEpoch() != 0 || pend.NumLogical() != 0 {
				t.Fatal("closed transition left pending state behind")
			}
			if tbl.NumLogical() != logical || tbl.Site(99) != uint32(99%logical) {
				t.Fatalf("site identity changed: %d sites (want %d), Site(99)=%d", tbl.NumLogical(), logical, tbl.Site(99))
			}
		}
	})
}
