package chaos

import (
	"bytes"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/coord"
	"slice/internal/ensemble"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/storage"
)

// newEnsemble builds a full deployment tuned for fault injection: a
// short coordinator probe interval so intention recovery fires within
// the test budget, and patient clients whose retry window rides out a
// crash-to-restart gap.
func newEnsemble(t *testing.T, mutate func(*ensemble.Config)) *ensemble.Ensemble {
	t.Helper()
	cfg := ensemble.Config{
		StorageNodes:     2,
		DirServers:       2,
		SmallFileServers: 1,
		Coordinator:      true,
		NameKind:         route.MkdirSwitching,
		MkdirP:           0.5,
		CoordProbeAfter:  250 * time.Millisecond,
		ClientRPC:        oncrpc.ClientConfig{Timeout: 25 * time.Millisecond, Retries: 9},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := ensemble.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	ArtifactsOnFailure(t, e)
	return e
}

// must fails the test on a fault-injection error.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// serviceAt is the service address on host, where a failed-over server
// restarts.
func serviceAt(host uint32) netsim.Addr {
	return netsim.Addr{Host: host, Port: ensemble.ServicePort}
}

// coordAddr is the coordinator's address on its host at port.
func coordAddr(port uint16) netsim.Addr {
	return netsim.Addr{Host: ensemble.HostCoord, Port: port}
}

// rebootStorage crashes storage node i and restarts it over the same
// object store: a machine reboot that keeps its disk.
func rebootStorage(ch *ensemble.Chaos, i int) error {
	if err := ch.Crash(ensemble.RoleStorage, i); err != nil {
		return err
	}
	return ch.Restart(ensemble.RoleStorage, i, storageAddr(i))
}

// TestCoordinatorCrashMidRemoveLeavesNoOrphans: a storage site is
// unreachable while a REMOVE's data is being cleared, so the µproxy
// leaves the intention pending; then the coordinator itself crashes.
// Restarting the coordinator from its journal must finish the remove on
// every data site — no orphaned blocks — and the acknowledged namespace
// update must stand.
func TestCoordinatorCrashMidRemoveLeavesNoOrphans(t *testing.T) {
	e := newEnsemble(t, nil)
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "victim", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("v"), 200*1024) // spans small-file + both storage nodes
	if err := c.WriteFile(fh, data); err != nil {
		t.Fatal(err)
	}

	// Storage node 0 drops off the fabric; the remove's data clearing
	// cannot reach it. The client is acknowledged once the one
	// orchestration chain, which runs on its send, has given up on the
	// dead site, and the durable intention stands in for the unreachable
	// site.
	ch.PartitionStorage(0)
	faulted, intents := e.Net.Stats().Faulted, e.Coord.Stats().Intentions
	if err := Retry(15*time.Second, func() error { return c.Remove(c.Root(), "victim") }); err != nil {
		t.Fatalf("remove during partition: %v", err)
	}
	if e.Net.Stats().Faulted == faulted {
		t.Fatal("no datagram to the partitioned node was dropped (fault window not exercised)")
	}
	if n := e.Coord.Stats().Intentions - intents; n != 1 {
		t.Fatalf("one remove declared %d intentions, want 1", n)
	}
	if !WaitFor(5*time.Second, func() bool { return e.Coord.PendingIntentions() >= 1 }) {
		t.Fatalf("intention completed despite unreachable site (pending=%d)", e.Coord.PendingIntentions())
	}

	// Now the coordinator dies too. Restart it from the durable prefix
	// of its journal after the partition heals: recovery replays the
	// intention and finishes the remove everywhere.
	must(t, ch.Crash(ensemble.RoleCoord, 0))
	ch.HealStorage(0)
	must(t, ch.Restart(ensemble.RoleCoord, 0, coordAddr(3050)))
	co := e.Coord

	if !WaitFor(10*time.Second, func() bool { return co.PendingIntentions() == 0 }) {
		t.Fatalf("intentions still pending after recovery: %d", co.PendingIntentions())
	}
	if co.Stats().Finished < 1 {
		t.Fatal("restarted coordinator finished no operations")
	}
	obj := storage.ObjectOf(fh)
	for i, sn := range e.Storage {
		store := sn.Store()
		if !WaitFor(5*time.Second, func() bool { _, ok := store.Size(obj); return !ok }) {
			t.Fatalf("storage node %d still holds blocks of the removed file (orphan)", i)
		}
	}
	if _, ok := e.Small[0].Store().Size(fh); ok {
		t.Fatal("small-file server still holds data of the removed file (orphan)")
	}
	// The acknowledged remove stands, and the volume stays consistent
	// and writable.
	err = Retry(5*time.Second, func() error {
		_, _, err := c.Lookup(c.Root(), "victim")
		return err
	})
	if nfsproto.StatusOf(err) != nfsproto.ErrNoEnt {
		t.Fatalf("removed file reappeared: %v", err)
	}
	if _, _, err := c.Create(c.Root(), "after", 0o644, true); err != nil {
		t.Fatalf("create after recovery: %v", err)
	}
	FsckClean(t, e)
}

// TestStoragePartitionMidCommitNoLostAckedWrites: a storage node is
// partitioned across several RPC timeouts while the µproxy absorbs a
// COMMIT. The client's commit must still be acknowledged in bounded
// time — the durable intention stands in for the unreachable site — and
// once the partition heals, the coordinator's probe finishes the commit,
// so the acknowledged bytes survive a storage crash that discards
// uncommitted data.
func TestStoragePartitionMidCommitNoLostAckedWrites(t *testing.T) {
	e := newEnsemble(t, nil)
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "bulk", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256*1024)
	for i := range data {
		data[i] = byte(i >> 9)
	}
	if _, err := c.Write(fh, 0, data, false); err != nil { // unstable: durability rides on COMMIT
		t.Fatal(err)
	}
	if err := c.Flush(fh); err != nil { // all WRITEs land pre-partition; only COMMIT rides it
		t.Fatal(err)
	}

	ch.PartitionStorage(1)
	faulted, intents := e.Net.Stats().Faulted, e.Coord.Stats().Intentions
	t0 := time.Now()
	if _, err := c.Commit(fh); err != nil {
		t.Fatalf("commit during partition not acknowledged: %v", err)
	}
	if lat := time.Since(t0); lat > 8*time.Second {
		t.Fatalf("commit latency %v exceeds bound", lat)
	}
	if e.Net.Stats().Faulted == faulted {
		t.Fatal("no datagram to the partitioned node was dropped (fault not exercised)")
	}
	if n := e.Coord.Stats().Intentions - intents; n != 1 {
		t.Fatalf("one commit declared %d intentions, want 1", n)
	}
	if n := e.Coord.PendingIntentions(); n < 1 {
		t.Fatalf("commit intention cleared despite unreachable site (pending=%d)", n)
	}

	// Heal; the coordinator's probe must finish the commit on its own.
	ch.HealStorage(1)
	if !WaitFor(5*time.Second, func() bool {
		return e.Coord.PendingIntentions() == 0 && e.Coord.Stats().Finished >= 1
	}) {
		t.Fatalf("coordinator never finished the interrupted commit (pending=%d finished=%d)",
			e.Coord.PendingIntentions(), e.Coord.Stats().Finished)
	}

	// The crash test: node 1 loses everything not made durable. The
	// acknowledged commit means the file must read back intact.
	e.Storage[1].Store().Crash()
	got := make([]byte, len(data))
	err = Retry(10*time.Second, func() error {
		_, _, err := c.Read(fh, 0, got)
		return err
	})
	if err != nil {
		t.Fatalf("read after storage crash: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("acknowledged committed data lost in storage crash")
	}
	FsckClean(t, e)
}

// TestStoragePartitionMidTruncateDeclaresOneIntention: a truncating
// SETATTR while a storage node is partitioned is acknowledged after its
// one orchestration chain has given up on the dead site, under exactly one
// intention, which the coordinator's probe finishes once the partition
// heals: the file's blocks past the new size are gone from every site.
func TestStoragePartitionMidTruncateDeclaresOneIntention(t *testing.T) {
	e := newEnsemble(t, nil)
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "shrink", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(fh, bytes.Repeat([]byte("t"), 200*1024)); err != nil { // spans both storage nodes
		t.Fatal(err)
	}

	ch.PartitionStorage(1)
	faulted, intents := e.Net.Stats().Faulted, e.Coord.Stats().Intentions
	if err := c.Truncate(fh, 0); err != nil {
		t.Fatalf("truncate during partition not acknowledged: %v", err)
	}
	if e.Net.Stats().Faulted == faulted {
		t.Fatal("no datagram to the partitioned node was dropped (fault not exercised)")
	}
	if n := e.Coord.Stats().Intentions - intents; n != 1 {
		t.Fatalf("one truncate declared %d intentions, want 1", n)
	}
	if n := e.Coord.PendingIntentions(); n < 1 {
		t.Fatalf("truncate intention cleared despite unreachable site (pending=%d)", n)
	}

	ch.HealStorage(1)
	if !WaitFor(5*time.Second, func() bool { return e.Coord.PendingIntentions() == 0 }) {
		t.Fatalf("coordinator never finished the interrupted truncate (pending=%d)", e.Coord.PendingIntentions())
	}
	obj := storage.ObjectOf(fh)
	for i, sn := range e.Storage {
		if size, ok := sn.Store().Size(obj); ok && size > 0 {
			t.Fatalf("storage node %d still holds %d bytes of the truncated file", i, size)
		}
	}
	if at, err := c.GetAttr(fh); err != nil || at.Size != 0 {
		t.Fatalf("size after truncate %d, %v; want 0", at.Size, err)
	}
	FsckClean(t, e)
}

// TestDirServerRestartFromWALMidUntar: a directory server crashes in the
// middle of an untar under mkdir switching and is rebuilt purely from
// its write-ahead log at a brand-new address. The shared table swap must
// redirect the in-flight retransmissions (the µproxy re-resolves
// recorded paths on a route-version change), the workload must complete,
// and no acknowledged entry may be lost.
func TestDirServerRestartFromWALMidUntar(t *testing.T) {
	e := newEnsemble(t, nil)
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	crashAt := make(chan struct{})
	crashed := make(chan struct{})
	var once bool
	done := make(chan struct{})
	var acked []Entry
	var untarErr error
	go func() {
		defer close(done)
		acked, untarErr = Untar(c, c.Root(), UntarConfig{
			Dirs: 16, Files: 48,
			OpBudget: 15 * time.Second,
			OnEntry: func(n int) {
				if n == 12 && !once {
					once = true
					// Pause until the crash lands: otherwise a fast
					// machine finishes the whole untar before the crash
					// runs and the test exercises nothing.
					close(crashAt)
					<-crashed
				}
			},
		})
	}()

	<-crashAt
	must(t, ch.Crash(ensemble.RoleDir, 1))
	close(crashed)
	// Hold the dead window open until the workload demonstrably hit it:
	// the untar stalls on the first op routed to the dead site and
	// retransmits. A fixed sleep races the workload on fast machines —
	// the restart could land before any request ever timed out.
	for deadline := time.Now().Add(10 * time.Second); c.Retransmissions() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("untar never hit the crashed directory server")
		}
		time.Sleep(5 * time.Millisecond)
	}
	must(t, ch.Restart(ensemble.RoleDir, 1, serviceAt(70)))

	<-done
	if untarErr != nil {
		t.Fatalf("untar did not survive the dir-server restart: %v", untarErr)
	}
	if lost := VerifyAcked(c, 10*time.Second, acked); len(lost) != 0 {
		t.Fatalf("%d acknowledged entries lost across restart: %v", len(lost), lost)
	}
	if c.Retransmissions() == 0 {
		t.Fatal("workload saw no retransmissions (crash window not exercised)")
	}
	FsckClean(t, e)
}

// TestCoordinatorRecoveryFinishesExactlyOnce is the end-to-end version
// of the coordinator crash-recovery contract: an intention is durable
// but its storage operations never ran (the site was unreachable and the
// client gave up after one transmission, so no duplicate orchestration
// chains exist). The restarted coordinator must finish the operation
// exactly once — before serving — and leave nothing pending.
func TestCoordinatorRecoveryFinishesExactlyOnce(t *testing.T) {
	e := newEnsemble(t, nil)
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "gone", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(fh, bytes.Repeat([]byte("g"), 150*1024)); err != nil {
		t.Fatal(err)
	}

	// A one-shot client: a single transmission triggers exactly one
	// orchestration chain, keeping the storage op count deterministic.
	oneShot, err := client.New(client.Config{
		Net: e.Net, Host: 231, Server: e.Virtual,
		RPC: oncrpc.ClientConfig{Timeout: 50 * time.Millisecond, Retries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer oneShot.Close()
	if err := oneShot.Mount(); err != nil {
		t.Fatal(err)
	}

	node0 := e.Storage[0].Store()
	node1 := e.Storage[1].Store()
	removes0, removes1 := node0.Stats().Removes, node1.Stats().Removes

	ch.PartitionStorage(0)
	_ = oneShot.Remove(c.Root(), "gone") // answered after its one chain, which the send runs
	if !WaitFor(5*time.Second, func() bool { return e.Coord.PendingIntentions() >= 1 }) {
		t.Fatal("remove intention never became durable")
	}
	// The chain visits node 1 last; once its remove lands, the chain is
	// done and nothing else will touch node 0.
	if !WaitFor(10*time.Second, func() bool { return node1.Stats().Removes == removes1+1 }) {
		t.Fatal("orchestration chain never reached the live storage node")
	}
	if got := node0.Stats().Removes; got != removes0 {
		t.Fatalf("partitioned node saw %d removes mid-chain", got-removes0)
	}

	must(t, ch.Crash(ensemble.RoleCoord, 0))
	ch.HealStorage(0)
	must(t, ch.Restart(ensemble.RoleCoord, 0, coordAddr(3051)))
	co := e.Coord
	// Recovery completes before the new port serves: the pending remove
	// is already finished when Restart returns.
	if n := co.PendingIntentions(); n != 0 {
		t.Fatalf("%d intentions pending after restart", n)
	}
	if got := co.Stats().Finished; got != 1 {
		t.Fatalf("recovery finished %d operations, want exactly 1", got)
	}
	if got := node0.Stats().Removes; got != removes0+1 {
		t.Fatalf("node 0 removed %d times, want exactly once", got-removes0)
	}
	if _, ok := node0.Size(storage.ObjectOf(fh)); ok {
		t.Fatal("recovered remove left blocks on the partitioned node (orphan)")
	}
	FsckClean(t, e)
}

// TestCoordinatorCommitReachesSmallFileServer: a commit intention the
// coordinator finishes itself runs the same site fan-out as the µproxy's
// COMMIT, so it makes the file's small-file journal durable, not only
// its storage nodes: the unstable write's map record survives a crash of
// the small-file server, and the bytes read back.
func TestCoordinatorCommitReachesSmallFileServer(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) { cfg.CoordProbeAfter = time.Hour })
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Create(c.Root(), "unstable-small", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("u"), 4096)
	if _, err := c.Write(fh, 0, want, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(fh); err != nil {
		t.Fatal(err)
	}

	// The µproxy died before its COMMIT fan-out: only the intention is left.
	syncs := e.SmallLogs[0].Syncs()
	if _, err := e.Coord.Intend(coord.OpCommit, fh, 0); err != nil {
		t.Fatal(err)
	}
	if n := e.Coord.CheckIntentions(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("the probe finished %d intentions, want 1", n)
	}
	if e.SmallLogs[0].Syncs() == syncs {
		t.Fatal("the coordinator's commit never synced the small-file journal")
	}

	ch := e.Chaos()
	must(t, ch.Crash(ensemble.RoleSmall, 0))
	must(t, ch.Restart(ensemble.RoleSmall, 0, serviceAt(ensemble.HostSmall0)))
	VerifyBytes(t, e, c, fh, want)
}

// TestWindowedBulkEquivalenceUnderChaos: a windowed client streams a
// large striped file while the fabric drops 2% of datagrams, one storage
// node rides out a partition, and another restarts mid-transfer. After
// the Commit barrier, a windowed reader (readahead on) and a serial
// reader must both observe exactly the bytes written — same checksum,
// same length — proving the pipelined path stays byte-identical to the
// serial one under faults.
func TestWindowedBulkEquivalenceUnderChaos(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.StorageNodes = 4
		cfg.Net = netsim.Config{LossRate: 0.02, Seed: 31}
		cfg.ClientRPC = oncrpc.ClientConfig{Timeout: 25 * time.Millisecond, Retries: 11}
	})
	ch := e.Chaos()
	w, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	fh, _, err := w.Create(w.Root(), "bulk-chaos", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1536*1024)
	for i := range data {
		data[i] = byte(i*2654435761 + i>>11)
	}

	// Fault script runs alongside the transfer: partition node 1, heal
	// it, then reboot node 2 while chunks are still in flight.
	faults := make(chan struct{})
	go func() {
		defer close(faults)
		time.Sleep(75 * time.Millisecond)
		ch.PartitionStorage(1)
		time.Sleep(300 * time.Millisecond)
		ch.HealStorage(1)
		if err := rebootStorage(ch, 2); err != nil {
			t.Errorf("storage restart: %v", err)
		}
	}()

	const slice = 96 * 1024
	for off := 0; off < len(data); off += slice {
		end := off + slice
		if end > len(data) {
			end = len(data)
		}
		if _, err := w.Write(fh, uint64(off), data[off:end], false); err != nil {
			t.Fatalf("windowed write at %d under faults: %v", off, err)
		}
	}
	<-faults
	if _, err := w.Commit(fh); err != nil {
		t.Fatalf("commit barrier under faults: %v", err)
	}

	VerifyBytes(t, e, w, fh, data)
	FsckClean(t, e)
}

// TestNameHashingDirFailoverToNewHost: under name hashing every name
// routes by key through the directory table, so a site's identity must
// not derive from its server's address — a directory server that fails
// over to a brand-new host keeps its journal, and every name it
// acknowledged must still resolve there.
func TestNameHashingDirFailoverToNewHost(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) { cfg.NameKind = route.NameHashing })
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	acked, err := Untar(c, c.Root(), UntarConfig{Dirs: 1, Files: 59})
	if err != nil {
		t.Fatal(err)
	}
	must(t, ch.Crash(ensemble.RoleDir, 1))
	must(t, ch.Restart(ensemble.RoleDir, 1, serviceAt(70)))
	if lost := VerifyAcked(c, 10*time.Second, acked); len(lost) != 0 {
		t.Fatalf("%d of %d acknowledged names lost across the failover: %v", len(lost), len(acked), lost)
	}
	FsckClean(t, e)
}

// TestSmallFileFailoverToNewHost: a small-file server is dataless — its
// journal and fragment store survive it — so restarting it on a new
// host must serve every file it held, byte for byte, and the sibling
// server's files must not have moved.
func TestSmallFileFailoverToNewHost(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) { cfg.SmallFileServers = 2 })
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	acked, err := Untar(c, c.Root(), UntarConfig{Dirs: 1, Files: 40})
	if err != nil {
		t.Fatal(err)
	}
	files := acked[1:]
	content := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i%26), byte(i)}, 2048) // 4 KiB: below the threshold
	}
	for i, f := range files {
		if err := c.WriteFile(f.FH, content(i)); err != nil {
			t.Fatalf("write %s: %v", f.Name, err)
		}
	}
	must(t, ch.Crash(ensemble.RoleSmall, 1))
	must(t, ch.Restart(ensemble.RoleSmall, 1, serviceAt(75)))
	for i, f := range files {
		var got []byte
		err := Retry(10*time.Second, func() error {
			var err error
			got, err = c.ReadAll(f.FH)
			return err
		})
		if err != nil {
			t.Fatalf("read %s after failover: %v", f.Name, err)
		}
		if !bytes.Equal(got, content(i)) {
			t.Fatalf("%s: read back %d bytes differing from the %d written", f.Name, len(got), len(content(i)))
		}
	}
	FsckClean(t, e)
}
