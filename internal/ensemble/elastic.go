package ensemble

import (
	"time"

	"fmt"

	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/rebalance"
	"slice/internal/replica"
	"slice/internal/route"
	"slice/internal/storage"
)

// HostRebalance is where the rebalance driver binds its client port
// (between the proxy range growing down from HostProxy and HostCoord).
const HostRebalance = 91

// AddStorageNodes starts n more storage nodes on the next slots of the
// host plan, fully wired (capability key, pacing, obs) but NOT yet bound
// into any routing table — Grow binds them. Returns their addresses.
func (e *Ensemble) AddStorageNodes(n int) ([]netsim.Addr, error) {
	var added []netsim.Addr
	for j := 0; j < n; j++ {
		i := len(e.Storage)
		if err := e.startStorage(i, storage.NewObjectStore()); err != nil {
			return nil, err
		}
		added = append(added, storageAddr(i))
	}
	return added, nil
}

// Rebalancer returns the ensemble's block-migration driver (built on
// first use). One driver serves all transitions; Run refuses overlap.
func (e *Ensemble) Rebalancer() *rebalance.Driver {
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	if e.rebal == nil {
		reg := obs.NewRegistry("rebalance")
		e.Obs.AddRegistry(reg)
		// The intention heartbeat must beat the coordinator's probe, or
		// a healthy migration reads as a dead driver and gets rolled
		// back (chaos ensembles shrink the probe window well below the
		// driver's default).
		var hb time.Duration
		if e.cfg.CoordProbeAfter > 0 {
			hb = e.cfg.CoordProbeAfter / 4
		}
		e.rebal = rebalance.New(rebalance.Config{
			Net:       e.Net,
			Host:      HostRebalance,
			IO:        e.IOPolicy,
			Coord:     e.coordResolver(),
			CapKey:    e.cfg.CapabilityKey,
			Heartbeat: hb,
			Obs:       reg,
		})
	}
	return e.rebal
}

// RebalanceStatus reports the driver's migration progress (idle when no
// transition ever ran).
func (e *Ensemble) RebalanceStatus() rebalance.Status {
	return e.Rebalancer().Status()
}

// Grow adds n storage nodes and migrates blocks onto them online: new
// nodes are started, the transition opens (every foreground write fans
// out to both bindings), the driver copies and verifies until the
// bindings agree, and the commit swaps reads and new writes to the
// wider stripe class in one table generation. Blocks move from old
// nodes only onto new ones (minimal movement).
func (e *Ensemble) Grow(n int) error {
	if n <= 0 {
		return fmt.Errorf("ensemble: Grow(%d)", n)
	}
	k := e.cfg.Replication
	if k > 1 && n%k != 0 {
		return fmt.Errorf("ensemble: Grow(%d) must add whole replica groups of %d", n, k)
	}
	added, err := e.AddStorageNodes(n)
	if err != nil {
		return err
	}
	cur := e.StorageTable.Physical()
	if k > 1 {
		// Replicated: groups stay consecutive, so the old groups (and
		// their primaries) are unchanged and only whole new groups
		// appear. The pending map expands pending-side writes during the
		// copy; the live map swaps in preCommit, just before the commit
		// publishes the new primaries.
		old := e.Replicas.Groups()
		all := make([]netsim.Addr, 0, len(e.Storage))
		for _, g := range old {
			all = append(all, g.Members...)
		}
		all = append(all, added...)
		nextReps := replica.NewMap(k, all)
		var newPrims []netsim.Addr
		for _, g := range nextReps.Groups()[len(old):] {
			newPrims = append(newPrims, g.Members[0])
		}
		next, err := route.PlanGrow(cur, newPrims, e.StorageTable.NumLogical())
		if err != nil {
			return err
		}
		return e.Rebalancer().Run(next, nextReps, func() error {
			e.Replicas.Swap(all)
			return nil
		})
	}
	next, err := route.PlanGrow(cur, added, e.StorageTable.NumLogical())
	if err != nil {
		return err
	}
	return e.Rebalancer().Run(next, nil, nil)
}

// Shrink migrates blocks off the last n storage nodes and removes them
// from placement. The nodes keep running (their stale bytes are
// garbage, not state) until the caller closes them.
func (e *Ensemble) Shrink(n int) error {
	k := e.cfg.Replication
	if k > 1 && n%k != 0 {
		return fmt.Errorf("ensemble: Shrink(%d) must remove whole replica groups of %d", n, k)
	}
	cur := e.StorageTable.Physical()
	if k > 1 {
		old := e.Replicas.Groups()
		drop := n / k
		if drop >= len(old) {
			return fmt.Errorf("ensemble: Shrink(%d) would empty the array", n)
		}
		keep := old[:len(old)-drop]
		var all, removedPrims []netsim.Addr
		for _, g := range keep {
			all = append(all, g.Members...)
		}
		for _, g := range old[len(keep):] {
			removedPrims = append(removedPrims, g.Members[0])
		}
		nextReps := replica.NewMap(k, all)
		next, err := route.PlanShrink(cur, removedPrims)
		if err != nil {
			return err
		}
		return e.Rebalancer().Run(next, nextReps, func() error {
			e.Replicas.Swap(all)
			return nil
		})
	}
	if n <= 0 || n >= e.StorageTable.NumPhysical() {
		return fmt.Errorf("ensemble: Shrink(%d) of a %d-node array", n, e.StorageTable.NumPhysical())
	}
	removed := make([]netsim.Addr, 0, n)
	for i := len(e.Storage) - n; i < len(e.Storage); i++ {
		removed = append(removed, storageAddr(i))
	}
	next, err := route.PlanShrink(cur, removed)
	if err != nil {
		return err
	}
	return e.Rebalancer().Run(next, nil, nil)
}

// adminGrow runs Grow in the background for the stats-plane verb; the
// admin mutex keeps concurrent verbs from interleaving transitions
// (overlap is also refused by Table.Begin, this just orders them).
func (e *Ensemble) adminGrow(n int) {
	go func() {
		e.adminMu.Lock()
		defer e.adminMu.Unlock()
		_ = e.Grow(n)
	}()
}

func (e *Ensemble) adminShrink(n int) {
	go func() {
		e.adminMu.Lock()
		defer e.adminMu.Unlock()
		_ = e.Shrink(n)
	}()
}
