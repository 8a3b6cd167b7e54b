package replica

import (
	"sync"
	"testing"

	"slice/internal/netsim"
)

// TestMarkDownUnderConcurrentLookupRace churns a member through
// MarkDown/MarkUp (the failure-detection swaps KillReplica publishes)
// while readers expand primaries and resolve groups, as the µproxy
// data path does lock-free. Under -race this proves snapshot
// discipline; the assertions prove every observed generation is
// internally consistent (members non-empty, IDs in order).
func TestMarkDownUnderConcurrentLookupRace(t *testing.T) {
	nodes := make([]netsim.Addr, 6)
	for i := range nodes {
		nodes[i] = netsim.Addr{Host: uint32(10 + i), Port: 2049}
	}
	m := NewMap(2, nodes)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, grp := range m.Groups() {
					if len(grp.Members) == 0 {
						t.Error("published group with no members")
						return
					}
					if grp.ID != uint32(i) {
						t.Errorf("group %d has ID %d", i, grp.ID)
						return
					}
					if g, ok := m.GroupOf(grp.Members[0]); ok && g.ID != grp.ID {
						// A swap between Groups() and GroupOf may promote a
						// different primary; a hit must still be self-consistent.
						t.Errorf("GroupOf(%v) = group %d, want %d", grp.Members[0], g.ID, grp.ID)
						return
					}
				}
			}
		}()
	}

	for i := 0; i < 2000; i++ {
		victim := nodes[i%len(nodes)]
		m.MarkDown(victim)
		m.MarkUp(victim)
		if i%100 == 0 {
			m.Swap(nodes)
		}
	}
	close(stop)
	wg.Wait()
}
