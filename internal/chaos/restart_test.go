package chaos

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/workload"
)

// TestSecondFailoverRebindsMovedServer: a server that already failed
// over to a new host fails again and moves once more. The second crash
// must take down the host it moved to, and the second restart must
// rebind its logical site from there, or every request routed to the
// site lands on a dead address.
func TestSecondFailoverRebindsMovedServer(t *testing.T) {
	t.Run("directory", func(t *testing.T) {
		e := newEnsemble(t, nil)
		ch := e.Chaos()
		for _, host := range []uint32{70, 71} {
			must(t, ch.Crash(ensemble.RoleDir, 0))
			must(t, ch.Restart(ensemble.RoleDir, 0, serviceAt(host)))
		}
		if got := e.DirTable.Physical()[0]; got != serviceAt(71) {
			t.Fatalf("directory site 0 bound to %v, want %v", got, serviceAt(71))
		}
		c, err := e.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		acked, err := Untar(c, c.Root(), UntarConfig{Dirs: 1, Files: 20})
		if err != nil {
			t.Fatalf("untar after two failovers: %v", err)
		}
		if lost := VerifyAcked(c, 5*time.Second, acked); len(lost) != 0 {
			t.Fatalf("%d of %d acknowledged names lost: %v", len(lost), len(acked), lost)
		}
		FsckClean(t, e)
	})
	t.Run("small-file", func(t *testing.T) {
		e := newEnsemble(t, nil)
		ch := e.Chaos()
		c, err := e.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fh, _, err := c.Create(c.Root(), "kept", 0o644, true)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte("small"), 800) // 4 000 bytes: below the threshold
		if err := c.WriteFile(fh, want); err != nil {
			t.Fatal(err)
		}
		for _, host := range []uint32{75, 76} {
			must(t, ch.Crash(ensemble.RoleSmall, 0))
			must(t, ch.Restart(ensemble.RoleSmall, 0, serviceAt(host)))
		}
		if got := e.SmallTable.Physical()[0]; got != serviceAt(76) {
			t.Fatalf("small-file site 0 bound to %v, want %v", got, serviceAt(76))
		}
		VerifyBytes(t, e, c, fh, want)
		more, _, err := c.Create(c.Root(), "after", 0o644, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WriteFile(more, want); err != nil {
			t.Fatalf("write after two failovers: %v", err)
		}
		VerifyBytes(t, e, c, more, want)
	})
}

// TestRestartOfLiveRoleRefused: Restart rebuilds only a crashed role. A
// restart of a live one would leave two incarnations serving and
// journaling into one durable value, so every role refuses it and the
// ensemble's bindings stay as they were. A role with a fixed slot in the
// host plan also refuses to restart anywhere else.
func TestRestartOfLiveRoleRefused(t *testing.T) {
	e := newEnsemble(t, nil)
	ch := e.Chaos()
	for _, tc := range []struct {
		role ensemble.Role
		i    int
		at   netsim.Addr
	}{
		{ensemble.RoleStorage, 1, storageAddr(1)},
		{ensemble.RoleDir, 1, serviceAt(70)},
		{ensemble.RoleSmall, 0, serviceAt(75)},
		{ensemble.RoleCoord, 0, coordAddr(3050)},
		{ensemble.RoleProxy, 0, e.VirtualOf(0)},
	} {
		if err := ch.Restart(tc.role, tc.i, tc.at); err == nil {
			t.Errorf("restart of live %v %d at %v accepted", tc.role, tc.i, tc.at)
		}
	}
	if got := e.DirTable.Physical()[1]; got != serviceAt(ensemble.HostDir0+1) {
		t.Errorf("directory site 1 rebound to %v", got)
	}
	if got := e.SmallTable.Physical()[0]; got != serviceAt(ensemble.HostSmall0) {
		t.Errorf("small-file site 0 rebound to %v", got)
	}

	must(t, ch.Crash(ensemble.RoleStorage, 1))
	if err := ch.Restart(ensemble.RoleStorage, 1, storageAddr(5)); err == nil {
		t.Error("storage node 1 restarted off its slot")
	}
	must(t, ch.Restart(ensemble.RoleStorage, 1, storageAddr(1)))
	must(t, ch.Crash(ensemble.RoleProxy, 0))
	if err := ch.Restart(ensemble.RoleProxy, 0, e.VirtualOf(1)); err == nil {
		t.Error("µproxy 0 restarted off its slot")
	}
	must(t, ch.Restart(ensemble.RoleProxy, 0, e.VirtualOf(0)))

	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Create(c.Root(), "still-one-volume", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("x"), 100*1024) // small-file part plus both storage nodes
	if err := c.WriteFile(fh, want); err != nil {
		t.Fatal(err)
	}
	VerifyBytes(t, e, c, fh, want)
	FsckClean(t, e)
}

// TestRebalanceDriverFollowsRestartedCoordinator: the rebalance driver,
// built while the first coordinator served, reaches the coordinator
// through the address the ensemble publishes, so a transition after the
// coordinator restarted on another host is covered by intentions its
// replacement logged — and all of them completed once the grow
// committed. A driver that kept the first address would send every
// intention to a dead host and run the transition uncovered.
func TestRebalanceDriverFollowsRestartedCoordinator(t *testing.T) {
	e := newEnsemble(t, nil)
	e.Rebalancer()
	ch := e.Chaos()
	must(t, ch.Crash(ensemble.RoleCoord, 0))
	must(t, ch.Restart(ensemble.RoleCoord, 0, netsim.Addr{Host: 80, Port: ensemble.CoordinatorPt}))
	if err := e.Grow(2); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if n := e.Coord.Stats().Intentions; n == 0 {
		t.Fatal("the restarted coordinator logged no migrate intention for the grow")
	}
	if n := e.Coord.PendingIntentions(); n != 0 {
		t.Fatalf("%d intentions still pending after the grow committed", n)
	}
}

// TestPowerCutRestartsEveryRole is the one crash/restart contract under
// its hardest case: after a COMMIT barrier ends an sfsmix-shaped load —
// small and large files, creates and overwrites — every role crashes at
// once (all storage nodes, directory servers, small-file servers, the
// coordinator and every µproxy) and restarts from its durable value
// alone. The namespace must check clean, every committed byte read back
// and every acknowledged name resolve.
func TestPowerCutRestartsEveryRole(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.StorageNodes = 4
		cfg.SmallFileServers = 2
		cfg.Proxies = 2
	})
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	load, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer load.Close()

	var wg sync.WaitGroup
	var sfsErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, sfsErr = workload.Sfs(load, load.Root(), workload.SfsConfig{
			Files: 30, Ops: 300, Prefix: "power-load", Seed: 5,
		})
	}()

	// The tracked half of the load: every third file is large enough to
	// stripe over the storage nodes, the rest stay on the small-file
	// servers, and every other file is overwritten in place.
	acked, err := Untar(c, c.Root(), UntarConfig{Dirs: 3, Files: 24})
	if err != nil {
		t.Fatal(err)
	}
	files := acked[3:]
	content := func(i, gen int) []byte {
		size := 3000 + 97*i
		if i%3 == 0 {
			size = 150*1024 + 1024*i
		}
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(31*i + j>>7 + 101*gen)
		}
		return p
	}
	want := make([][]byte, len(files))
	for i, f := range files {
		want[i] = content(i, 0)
		if _, err := c.Write(f.FH, 0, want[i], false); err != nil {
			t.Fatalf("write %s: %v", f.Name, err)
		}
	}
	for i := 0; i < len(files); i += 2 {
		want[i] = content(i, 1)
		if _, err := c.Write(files[i].FH, 0, want[i], false); err != nil {
			t.Fatalf("overwrite %s: %v", files[i].Name, err)
		}
	}
	for _, f := range files { // the COMMIT barrier
		if _, err := c.Commit(f.FH); err != nil {
			t.Fatalf("commit %s: %v", f.Name, err)
		}
	}
	wg.Wait()
	if sfsErr != nil {
		t.Fatalf("sfsmix load: %v", sfsErr)
	}

	// The power cut, then every role back from its durable value in
	// dependency order: the coordinator's recovery reaches storage and
	// small-file servers, and µproxies route to all of them.
	type victim struct {
		role ensemble.Role
		i    int
		at   netsim.Addr
	}
	var all []victim
	for i, n := range e.Storage {
		all = append(all, victim{ensemble.RoleStorage, i, n.Addr()})
	}
	for i, s := range e.Small {
		all = append(all, victim{ensemble.RoleSmall, i, s.Addr()})
	}
	for i, d := range e.Dirs {
		all = append(all, victim{ensemble.RoleDir, i, d.Addr()})
	}
	all = append(all, victim{ensemble.RoleCoord, 0, e.Coord.Addr()})
	for i := range e.Proxies {
		all = append(all, victim{ensemble.RoleProxy, i, e.VirtualOf(i)})
	}
	for _, v := range all {
		must(t, ch.Crash(v.role, v.i))
	}
	for _, v := range all {
		must(t, ch.Restart(v.role, v.i, v.at))
	}

	FsckClean(t, e)
	if lost := VerifyAcked(c, 10*time.Second, acked); len(lost) != 0 {
		t.Fatalf("%d of %d acknowledged names lost in the power cut: %v", len(lost), len(acked), lost)
	}
	for i, f := range files {
		VerifyBytes(t, e, c, f.FH, want[i])
	}
	fh, _, err := c.Create(files[0].Parent, "after-power-cut", 0o644, true)
	if err != nil {
		t.Fatalf("create after the power cut: %v", err)
	}
	if err := c.WriteFile(fh, want[0]); err != nil {
		t.Fatalf("write after the power cut: %v", err)
	}
	VerifyBytes(t, e, c, fh, want[0])
}

// TestStaleCreateLeavesNoOrphan: a CREATE or SYMLINK under a directory
// removed since its handle was looked up answers ESTALE, and the cell it
// minted before finding the parent gone must be gone from the journal
// too: a restart of the directory server replays no orphan file cell.
func TestStaleCreateLeavesNoOrphan(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(c *client.Client, dir fhandle.Handle) error
	}{
		{"create", func(c *client.Client, dir fhandle.Handle) error {
			_, _, err := c.Create(dir, "f", 0o644, true)
			return err
		}},
		{"symlink", func(c *client.Client, dir fhandle.Handle) error {
			_, _, err := c.Symlink(dir, "l", "/elsewhere")
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnsemble(t, func(cfg *ensemble.Config) { cfg.DirServers = 1 })
			c, err := e.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			dir, _, err := c.Mkdir(c.Root(), "gone", 0o755)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Rmdir(c.Root(), "gone"); err != nil {
				t.Fatal(err)
			}
			if err := tc.op(c, dir); nfsproto.StatusOf(err) != nfsproto.ErrStale {
				t.Fatalf("%s under a removed directory: %v, want ESTALE", tc.name, err)
			}
			FsckClean(t, e)
			must(t, e.Chaos().Crash(ensemble.RoleDir, 0))
			must(t, e.Chaos().Restart(ensemble.RoleDir, 0, serviceAt(70)))
			FsckClean(t, e)
		})
	}
}
