package chaos

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"slice/internal/ensemble"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/workload"
)

// movedFraction compares two logical-site bindings and returns the
// fraction of sites whose owner changed.
func movedFraction(before, after []netsim.Addr) float64 {
	moved := 0
	for i := range before {
		if i >= len(after) || before[i] != after[i] {
			moved++
		}
	}
	return float64(moved) / float64(len(before))
}

// assertWidenedStripe writes a fresh multi-stripe file AFTER the swap
// and asserts its bulk stripes route onto the added nodes — new writes
// use the wider stripe class.
func assertWidenedStripe(t *testing.T, e *ensemble.Ensemble, added []netsim.Addr) {
	t.Helper()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Create(c.Root(), "post-swap-wide", 0o644, true)
	if err != nil {
		t.Fatalf("post-swap create: %v", err)
	}
	data := make([]byte, 16*e.IOPolicy.StripeUnit)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := c.WriteFile(fh, data); err != nil {
		t.Fatalf("post-swap write: %v", err)
	}
	hit := make(map[netsim.Addr]bool)
	for stripe := uint64(0); stripe < 16; stripe++ {
		targets, err := e.IOPolicy.WriteTargets(fh, stripe)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range targets {
			hit[a] = true
		}
	}
	for _, a := range added {
		if !hit[a] {
			t.Fatalf("post-swap stripes never route to added node %v: class not widened", a)
		}
	}
	VerifyBytes(t, e, c, fh, data)
}

// TestGrowUnderLiveLoadZeroFailedOps grows the array 4 -> 6 while a
// SPECsfs-like mix runs against it. Every client operation must
// succeed (the transition is invisible to the workload), the moved
// logical-site fraction must stay within 1.2x the consistent-hashing
// minimum, and post-swap writes must stripe across the widened class.
func TestGrowUnderLiveLoadZeroFailedOps(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.StorageNodes = 4
		// Logical slack: 12 sites over 4 nodes, so growing to 6 can
		// move exactly the CH-minimum 1/3 of the space.
		cfg.LogicalSites = 12
	})
	before := e.StorageTable.Physical()

	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var (
		wg     sync.WaitGroup
		sfsErr error
		stats  workload.SfsStats
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, sfsErr = workload.Sfs(c, c.Root(), workload.SfsConfig{
			Files: 60, Ops: 800, Prefix: "grow-load", Seed: 7,
		})
	}()
	// Let the working set build before the topology moves under it.
	time.Sleep(20 * time.Millisecond)
	if err := e.Grow(2); err != nil {
		t.Fatalf("Grow under load: %v", err)
	}
	wg.Wait()
	if sfsErr != nil {
		t.Fatalf("foreground mix failed during grow: %v", sfsErr)
	}
	if stats.ReadErrs != 0 {
		t.Fatalf("%d foreground reads returned wrong bytes during grow", stats.ReadErrs)
	}

	after := e.StorageTable.Physical()
	if len(after) != len(before) {
		t.Fatalf("logical site count changed: %d -> %d", len(before), len(after))
	}
	frac := movedFraction(before, after)
	chMin := 2.0 / 6.0 // added/new share of the space
	if frac > 1.2*chMin {
		t.Fatalf("moved fraction %.3f exceeds 1.2x CH minimum %.3f", frac, chMin)
	}
	if frac == 0 {
		t.Fatal("no sites moved: the new nodes carry nothing")
	}
	if st := e.RebalanceStatus(); st.State != "done" {
		t.Fatalf("rebalance status %q after successful grow", st.State)
	}
	FsckClean(t, e)
	added := []netsim.Addr{
		{Host: ensemble.HostStorage0 + 4, Port: ensemble.ServicePort},
		{Host: ensemble.HostStorage0 + 5, Port: ensemble.ServicePort},
	}
	assertWidenedStripe(t, e, added)
}

// TestAddTwoKillOneMidRebalance is the ROADMAP scenario verbatim: add
// two storage nodes and kill one of them in the middle of the
// rebalance, under the SPECsfs mix. The migration must ride out the
// reboot (the node keeps its disk), no blocks may be lost, the
// namespace must be fsck-clean, and post-swap writes must stripe
// across the widened class.
func TestAddTwoKillOneMidRebalance(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.StorageNodes = 4
		cfg.LogicalSites = 12
	})
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ch := e.Chaos()

	// Bulk ballast makes the copy phase long enough that the reboot
	// lands while the migration is demonstrably in flight.
	if _, err := workload.DD(c, c.Root(), workload.DDConfig{
		Name: "ballast", Bytes: 6 << 20, Write: true,
	}); err != nil {
		t.Fatalf("ballast: %v", err)
	}

	var (
		wg     sync.WaitGroup
		sfsErr error
		stats  workload.SfsStats
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, sfsErr = workload.Sfs(c, c.Root(), workload.SfsConfig{
			Files: 60, Ops: 800, Prefix: "kill-load", Seed: 11,
		})
	}()
	time.Sleep(20 * time.Millisecond)

	growErr := make(chan error, 1)
	go func() { growErr <- e.Grow(2) }()

	// Kill (reboot) incoming node 4 the moment the copy is live.
	if !WaitFor(5*time.Second, func() bool {
		return e.RebalanceStatus().State == "running" && len(e.Storage) >= 6
	}) {
		t.Fatal("rebalance never started")
	}
	if err := rebootStorage(ch, 4); err != nil {
		t.Fatalf("restart incoming node: %v", err)
	}

	if err := <-growErr; err != nil {
		t.Fatalf("Grow with mid-rebalance kill: %v", err)
	}
	wg.Wait()
	if sfsErr != nil {
		t.Fatalf("foreground mix failed: %v", sfsErr)
	}
	if stats.ReadErrs != 0 {
		t.Fatalf("%d foreground reads returned wrong bytes", stats.ReadErrs)
	}
	FsckClean(t, e)
	added := []netsim.Addr{
		{Host: ensemble.HostStorage0 + 4, Port: ensemble.ServicePort},
		{Host: ensemble.HostStorage0 + 5, Port: ensemble.ServicePort},
	}
	assertWidenedStripe(t, e, added)
}

// TestShrinkUnderLoad drains the last two nodes of a six-node array
// under load and verifies the workload never notices.
func TestShrinkUnderLoad(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.StorageNodes = 6
		cfg.LogicalSites = 12
	})
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var (
		wg     sync.WaitGroup
		sfsErr error
		stats  workload.SfsStats
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, sfsErr = workload.Sfs(c, c.Root(), workload.SfsConfig{
			Files: 40, Ops: 500, Prefix: "shrink-load", Seed: 13,
		})
	}()
	time.Sleep(20 * time.Millisecond)
	if err := e.Shrink(2); err != nil {
		t.Fatalf("Shrink under load: %v", err)
	}
	wg.Wait()
	if sfsErr != nil {
		t.Fatalf("foreground mix failed during shrink: %v", sfsErr)
	}
	if stats.ReadErrs != 0 {
		t.Fatalf("%d foreground reads returned wrong bytes during shrink", stats.ReadErrs)
	}
	// Nothing routes to the drained nodes any more.
	for _, a := range e.StorageTable.Physical() {
		for i := 4; i < 6; i++ {
			if a == (netsim.Addr{Host: ensemble.HostStorage0 + uint32(i), Port: ensemble.ServicePort}) {
				t.Fatalf("drained node %v still bound", a)
			}
		}
	}
	FsckClean(t, e)
}

// TestGrowShrinkReplicated: a 2-way replicated array of two groups grows
// by one group and shrinks back while a writer keeps creating, writing
// and committing multi-stripe files. Both transitions must commit, the
// namespace must be fsck-clean, every group byte-identical, and every
// byte the writer had acknowledged must read back. Nothing is sequenced
// by a sleep: the writer is the test goroutine, two files land before
// the grow starts, and each transition runs beside a fixed batch of
// files — bounded, because a migration commits only after two copy
// rounds in a row find nothing to repair, which an endless writer can
// postpone indefinitely.
func TestGrowShrinkReplicated(t *testing.T) {
	e := newReplicatedEnsemble(t, func(cfg *ensemble.Config) {
		cfg.LogicalSites = 12
	})
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Ballast gives the copy phase something to move.
	if _, err := workload.DD(c, c.Root(), workload.DDConfig{
		Name: "ballast", Bytes: 2 << 20, Write: true,
	}); err != nil {
		t.Fatalf("ballast: %v", err)
	}

	type ackedFile struct {
		fh   fhandle.Handle
		data []byte
	}
	var acked []ackedFile
	overlap := 0 // files written while a transition was open
	write := func(n int) error {
		for end := len(acked) + n; len(acked) < end; {
			i := len(acked)
			open := e.StorageTable.Transitioning()
			fh, _, err := c.Create(c.Root(), fmt.Sprintf("live-%03d", i), 0o644, true)
			if err != nil {
				return fmt.Errorf("create %d: %w", i, err)
			}
			data := make([]byte, 64<<10+5*e.IOPolicy.StripeUnit/2)
			for j := range data {
				data[j] = byte(i*131 + j*7 + j>>9)
			}
			if err := c.WriteFile(fh, data); err != nil {
				return fmt.Errorf("write %d: %w", i, err)
			}
			if open || e.StorageTable.Transitioning() {
				overlap++
			}
			acked = append(acked, ackedFile{fh, data})
		}
		return nil
	}
	// transition runs op beside a batch of the writer's files.
	transition := func(name string, op func() error, groups int) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- op() }()
		werr := write(12)
		if err := <-done; err != nil {
			t.Fatalf("%s of a k=2 array: %v", name, err)
		}
		if werr != nil {
			t.Fatalf("live writer during %s: %v", name, werr)
		}
		if st := e.RebalanceStatus(); st.State != "done" {
			t.Fatalf("%s: rebalance state %q", name, st.State)
		}
		if g := e.Replicas.NumGroups(); g != groups {
			t.Fatalf("after %s: %d replica groups, want %d", name, g, groups)
		}
		ReplicaGroupsIdentical(t, e)
	}

	if err := write(2); err != nil {
		t.Fatalf("live writer before grow: %v", err)
	}
	transition("grow", func() error { return e.Grow(2) }, 3)
	transition("shrink", func() error { return e.Shrink(2) }, 2)
	t.Logf("writer acknowledged %d files, %d of them with a transition open", len(acked), overlap)

	FsckClean(t, e)
	for _, f := range acked {
		VerifyBytes(t, e, c, f.fh, f.data)
	}
	if dd, err := workload.DD(c, c.Root(), workload.DDConfig{
		Name: "ballast", Bytes: 2 << 20, Verify: true,
	}); err != nil || dd.Mismatch {
		t.Fatalf("ballast verify: err %v mismatch %v", err, dd.Mismatch)
	}
}
