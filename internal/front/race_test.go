package front

import (
	"sync"
	"testing"

	"slice/internal/netsim"
	"slice/internal/route"
)

// TestSwapUnderConcurrentResolveRace hammers Ring.Resolve from many
// goroutines while fleet membership churns through Swap — the exact
// interleaving a proxy crash publishes under live traffic. Run under
// -race this proves the lock-free snapshot discipline: every resolve
// must land on a member of some published generation (never a torn or
// zero address while the fleet is non-empty).
func TestSwapUnderConcurrentResolveRace(t *testing.T) {
	member := func(id uint32) route.ProxyMember {
		return route.ProxyMember{
			ID:      id,
			Virtual: netsim.Addr{Host: 100 + id, Port: 2049},
			Host:    200 + id,
		}
	}
	all := []route.ProxyMember{member(0), member(1), member(2), member(3)}
	valid := make(map[netsim.Addr]bool)
	for _, m := range all {
		valid[m.Virtual] = true
	}
	fleet := route.NewFleet(all)
	ring := NewRing(fleet, 64)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			key := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				key = key*6364136223846793005 + 1442695040888963407
				addr := ring.Resolve(key)
				if !valid[addr] {
					t.Errorf("resolve returned %+v, not a member of any generation", addr)
					return
				}
			}
		}(uint64(g) + 1)
	}

	// Churn: members leave and rejoin, one at a time, never emptying the
	// fleet — each Swap is a crash or a restart as Chaos.Crash/Restart
	// publish them.
	for i := 0; i < 2000; i++ {
		gone := uint32(i % len(all))
		survivors := make([]route.ProxyMember, 0, len(all)-1)
		for _, m := range all {
			if m.ID != gone {
				survivors = append(survivors, m)
			}
		}
		fleet.Swap(survivors)
		fleet.Swap(all)
	}
	close(stop)
	wg.Wait()
}
