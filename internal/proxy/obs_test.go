package proxy

import (
	"fmt"
	"sync"
	"testing"

	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/replica"
)

// TestReadHistGrowsConcurrently: readers asking for the read histograms of
// groups and members the table does not hold yet — as they do after a
// Grow — from several goroutines at once all get the registry's one
// histogram of that name, and the table then holds every one of them.
func TestReadHistGrowsConcurrently(t *testing.T) {
	nodes := make([]netsim.Addr, 4)
	for i := range nodes {
		nodes[i] = netsim.Addr{Host: uint32(10 + i), Port: 2049}
	}
	reg := obs.NewRegistry("uproxy")
	h := newProxyHists(reg, replica.NewMap(2, nodes))
	const groups, members = 8, 3
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g, m := uint32((w+i)%groups), (w*i)%members
				if got, want := h.readHist(g, m), reg.Hist(fmt.Sprintf("replica.read[%d.%d]", g, m)); got != want {
					t.Errorf("readHist(%d, %d) is not the registry's histogram of that name", g, m)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := uint32(0); g < groups; g++ {
		for m := 0; m < members; m++ {
			if h.readHist(g, m) != reg.Hist(fmt.Sprintf("replica.read[%d.%d]", g, m)) {
				t.Fatalf("readHist(%d, %d) changed after the growth", g, m)
			}
		}
	}
}
