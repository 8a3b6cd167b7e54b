package chaos

import (
	"bytes"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/netsim"
	"slice/internal/oncrpc"
	"slice/internal/replica"
	"slice/internal/storage"
	"slice/internal/workload"
)

// newReplicatedEnsemble builds the fault-injection deployment with 2-way
// replicated storage: 4 nodes in 2 groups, group 1 = {node 2, node 3}.
// Small-file servers keep their fragments in stores of their own, so a
// storage node's kill or rebirth never touches the small-file path.
func newReplicatedEnsemble(t *testing.T, mutate func(*ensemble.Config)) *ensemble.Ensemble {
	return newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.StorageNodes = 4
		cfg.Replication = 2
		cfg.ClientRPC = oncrpc.ClientConfig{Timeout: 25 * time.Millisecond, Retries: 40}
		if mutate != nil {
			mutate(cfg)
		}
	})
}

// TestReplicaKillMidWindowedBulkWrite: one member of a replica group
// dies — disk and all — in the middle of a windowed bulk write, in two
// beats: first the node blackholes (partition) until the stream
// demonstrably stalls against it, then the kill publishes the member
// removal. The write and its COMMIT barrier must complete with no
// client-visible error (stalled fan-outs retarget onto the survivor at
// their next retransmission), and after the member is reborn by a
// rebalance transition, every group must be byte-identical and the
// namespace fsck-clean.
func TestReplicaKillMidWindowedBulkWrite(t *testing.T) {
	e := newReplicatedEnsemble(t, nil)
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "replica-bulk", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1024*1024)
	for i := range data {
		data[i] = byte(i*2654435761 + i>>11)
	}

	const slice = 96 * 1024
	write := func(off int) {
		end := off + slice
		if end > len(data) {
			end = len(data)
		}
		if _, err := c.Write(fh, uint64(off), data[off:end], false); err != nil {
			t.Fatalf("windowed write at %d across the kill: %v", off, err)
		}
	}
	// First third of the stream lands on the whole group.
	cut := len(data) / 3
	off := 0
	for ; off < cut; off += slice {
		write(off)
	}
	// First beat: the member stops answering but is still in the group.
	// The next slice's fan-outs to it stall in the write-behind window
	// and the client retransmits.
	ch.PartitionStorage(3)
	retrans := c.Retransmissions()
	write(off)
	off += slice
	for deadline := time.Now().Add(10 * time.Second); c.Retransmissions() == retrans; {
		if time.Now().After(deadline) {
			t.Fatal("bulk write never stalled against the dead member")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Second beat: the kill — disk discarded, member marked down. The
	// stalled chunks retarget onto the survivor at their next
	// retransmission; the rest of the stream never sees the corpse.
	killed, err := ch.KillReplicaUnderWrite(1)
	if err != nil {
		t.Fatal(err)
	}
	if killed != 3 {
		t.Fatalf("killed node %d, want 3 (last member of group 1)", killed)
	}
	for ; off < len(data); off += slice {
		write(off)
	}
	if _, err := c.Commit(fh); err != nil {
		t.Fatalf("commit barrier with a dead replica: %v", err)
	}

	// Rebirth: empty store, copied from the surviving sibling by a
	// transition before the member rejoins the live group.
	if _, err := ch.RestartReplica(killed); err != nil {
		t.Fatalf("replica restart: %v", err)
	}
	ReplicaGroupsIdentical(t, e)
	VerifyBytes(t, e, c, fh, data)
	FsckClean(t, e)
}

// TestReplicaKillMidUntarUnderSfsMix: a replica member is killed while
// an untar streams namespace updates and an SFS-like mix (SPECsfs97 op
// shares, small-file skew) grinds the data path from a second client.
// Both workloads must complete without client-visible errors, no
// acknowledged entry may be lost, and after the rebirth the groups are
// byte-identical and the namespace fsck-clean.
func TestReplicaKillMidUntarUnderSfsMix(t *testing.T) {
	e := newReplicatedEnsemble(t, nil)
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sfsClient, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer sfsClient.Close()

	sfsDone := make(chan struct{})
	var sfsStats workload.SfsStats
	var sfsErr error
	go func() {
		defer close(sfsDone)
		sfsStats, sfsErr = workload.Sfs(sfsClient, sfsClient.Root(), workload.SfsConfig{
			Files: 24, Ops: 160, Seed: 7,
		})
	}()

	killAt := make(chan struct{})
	killDone := make(chan struct{})
	var once bool
	untarDone := make(chan struct{})
	var acked []Entry
	var untarErr error
	go func() {
		defer close(untarDone)
		acked, untarErr = Untar(c, c.Root(), UntarConfig{
			Dirs: 12, Files: 36,
			OpBudget: 15 * time.Second,
			OnEntry: func(n int) {
				if n == 10 && !once {
					once = true
					// Pause until the kill lands so a fast machine cannot
					// finish the untar before the fault exists.
					close(killAt)
					<-killDone
				}
			},
		})
	}()

	<-killAt
	killed, err := ch.KillReplicaUnderWrite(1)
	close(killDone)
	if err != nil {
		t.Fatal(err)
	}

	<-untarDone
	<-sfsDone
	if untarErr != nil {
		t.Fatalf("untar did not survive the replica kill: %v", untarErr)
	}
	if sfsErr != nil {
		t.Fatalf("sfs mix did not survive the replica kill: %v", sfsErr)
	}
	if sfsStats.ReadErrs != 0 {
		t.Fatalf("sfs mix saw %d read verification errors across the kill", sfsStats.ReadErrs)
	}
	if lost := VerifyAcked(c, 10*time.Second, acked); len(lost) != 0 {
		t.Fatalf("%d acknowledged entries lost across the replica kill: %v", len(lost), lost)
	}

	if _, err := ch.RestartReplica(killed); err != nil {
		t.Fatalf("replica restart: %v", err)
	}
	ReplicaGroupsIdentical(t, e)
	FsckClean(t, e)
}

// TestCoordinatorRecoveryWaitsForReplicaMember: a REMOVE's intention is
// durable while one replica-group member — not a primary — is cut off,
// and the coordinator restarts with the member still unreachable. The
// member holds a full copy of the file's stripes, so recovery must not
// declare the remove finished until it has reached that member too.
func TestCoordinatorRecoveryWaitsForReplicaMember(t *testing.T) {
	e := newReplicatedEnsemble(t, nil)
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "mirrored-victim", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(fh, bytes.Repeat([]byte("m"), 300*1024)); err != nil {
		t.Fatal(err)
	}
	obj := storage.ObjectOf(fh)
	member := e.Storage[1].Store() // group 0 = {node 0 (primary), node 1}
	if _, ok := member.Size(obj); !ok {
		t.Fatal("the write never reached group 0's second member")
	}

	// One transmission, one orchestration chain (see
	// TestCoordinatorRecoveryFinishesExactlyOnce).
	oneShot, err := client.New(client.Config{
		Net: e.Net, Host: 232, Server: e.Virtual,
		RPC: oncrpc.ClientConfig{Timeout: 50 * time.Millisecond, Retries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer oneShot.Close()
	if err := oneShot.Mount(); err != nil {
		t.Fatal(err)
	}
	ch.PartitionStorage(1)
	_ = oneShot.Remove(c.Root(), "mirrored-victim") // answered after its one chain, which the send runs
	if !WaitFor(5*time.Second, func() bool { return e.Coord.PendingIntentions() >= 1 }) {
		t.Fatal("remove intention never became durable")
	}

	must(t, ch.Crash(ensemble.RoleCoord, 0))
	must(t, ch.Restart(ensemble.RoleCoord, 0, coordAddr(3052))) // recovery runs before this returns, member still cut off
	co := e.Coord
	if _, ok := member.Size(obj); !ok {
		t.Fatal("the partitioned member lost its copy (fault window not exercised)")
	}
	if pending, finished := co.PendingIntentions(), co.Stats().Finished; pending != 1 || finished != 0 {
		t.Fatalf("recovery left %d pending and finished %d with a replica member unreached, want 1 and 0", pending, finished)
	}

	ch.HealStorage(1)
	if !WaitFor(10*time.Second, func() bool { return co.PendingIntentions() == 0 }) {
		t.Fatalf("intention still pending after the member healed: %d", co.PendingIntentions())
	}
	if _, ok := member.Size(obj); ok {
		t.Fatal("finished remove left the file's blocks on the replica member (orphan)")
	}
	FsckClean(t, e)
}

// storageAddr is storage node i's service address.
func storageAddr(i int) netsim.Addr {
	return netsim.Addr{Host: ensemble.HostStorage0 + uint32(i), Port: ensemble.ServicePort}
}

// fillGen writes generation g of chunk i: consecutive generations differ
// in every byte, so a stale chunk cannot pass for a fresh one.
func fillGen(p []byte, i, g int) {
	for j := range p {
		p[j] = byte(j*31 + i*131 + g*97)
	}
}

// TestReplicaRebirthUnderOverwrite: a member is reborn while a writer
// overwrites a file pass after pass, one PeerChunk-sized WRITE at a
// time. Every write acknowledged before the member rejoins must be on
// it — including one to a chunk the rebirth had already copied — so
// once the surviving sibling is killed and every read comes from the
// reborn member alone, the file must read back at the generation of
// each chunk's last acknowledged write.
func TestReplicaRebirthUnderOverwrite(t *testing.T) {
	e := newReplicatedEnsemble(t, nil)
	ch := e.Chaos()
	// Serial: a WRITE returns only once every replica acknowledged it.
	w, err := e.NewSerialClient()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fh, _, err := w.Create(w.Root(), "rebirth-overwrite", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = replica.PeerChunk
	const chunks = 64 // 2 MiB
	gen := make([]int, chunks)
	buf := make([]byte, chunk)
	for i := range gen {
		fillGen(buf, i, 1)
		if _, err := w.Write(fh, uint64(i*chunk), buf, false); err != nil {
			t.Fatal(err)
		}
		gen[i] = 1
	}
	if _, err := w.Commit(fh); err != nil {
		t.Fatal(err)
	}

	killed, err := ch.KillReplicaUnderWrite(1) // node 3; node 2 survives
	if err != nil {
		t.Fatal(err)
	}
	var restarted atomic.Bool
	overwriting := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, chunk)
		for g := 2; ; g++ {
			for i := range gen {
				fillGen(buf, i, g)
				if _, err := w.Write(fh, uint64(i*chunk), buf, false); err != nil {
					done <- err
					return
				}
				gen[i] = g
				if g == 2 && i == 0 {
					close(overwriting)
				}
				if restarted.Load() {
					done <- nil
					return
				}
			}
		}
	}()
	<-overwriting
	_, rerr := ch.RestartReplica(killed)
	restarted.Store(true)
	if err := <-done; err != nil {
		t.Fatalf("overwrite across the rebirth: %v", err)
	}
	if rerr != nil {
		t.Fatalf("replica restart: %v", rerr)
	}
	if _, err := w.Commit(fh); err != nil {
		t.Fatal(err)
	}

	// Every read now comes from the reborn member.
	ch.KillReplica(2)
	want := make([]byte, chunks*chunk)
	for i, g := range gen {
		fillGen(want[i*chunk:(i+1)*chunk], i, g)
	}
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	VerifyBytes(t, e, c, fh, want)
	FsckClean(t, e)
}

// TestReplicaPrimaryRebirth: a group's primary dies, a write lands on
// the promoted survivor alone, and the old primary is reborn. The
// storage table must keep routing the group's sites to the survivor
// while the transition is open and hand them back to the reborn primary
// only at the commit; then the group is byte-identical, the file reads
// back, and the namespace is fsck-clean.
func TestReplicaPrimaryRebirth(t *testing.T) {
	e := newReplicatedEnsemble(t, nil)
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Create(c.Root(), "primary-rebirth", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1024*1024)
	fillGen(data, 0, 1)
	if err := c.WriteFile(fh, data); err != nil {
		t.Fatal(err)
	}

	primary, survivor := storageAddr(2), storageAddr(3) // group 1
	ch.KillReplica(2)
	if phys := e.StorageTable.Physical(); slices.Contains(phys, primary) || !slices.Contains(phys, survivor) {
		t.Fatalf("after the kill the table binds %v, want the promoted survivor", phys)
	}
	fillGen(data, 0, 2)
	if err := c.WriteFile(fh, data); err != nil {
		t.Fatalf("write through the promoted survivor: %v", err)
	}

	// Check the table at every datagram the driver sends the reborn
	// primary: each one is inside the open transition, so the current
	// sites must still route to the survivor and the pending binding must
	// hold the primary.
	var copies atomic.Int64
	var wrong atomic.Value
	tok := e.Net.AddTap(netsim.TapFunc(func(d []byte) netsim.Verdict {
		h, err := netsim.ParseHeader(d)
		if err != nil || h.Src.Host != ensemble.HostRebalance || h.Dst != primary {
			return netsim.Pass
		}
		copies.Add(1)
		_, next := e.StorageTable.Bindings(nil)
		if phys := e.StorageTable.Physical(); slices.Contains(phys, primary) || !slices.Contains(phys, survivor) {
			wrong.CompareAndSwap(nil, "the primary was bound before the commit")
		} else if !slices.Contains(next.AppendAll(nil), primary) {
			wrong.CompareAndSwap(nil, "the open transition does not bind the primary")
		}
		return netsim.Pass
	}))
	_, err = ch.RestartReplica(2)
	e.Net.RemoveTap(tok)
	if err != nil {
		t.Fatalf("primary restart: %v", err)
	}
	if msg := wrong.Load(); msg != nil {
		t.Fatal(msg)
	}
	if copies.Load() == 0 {
		t.Fatal("the rebirth sent the primary nothing")
	}
	if phys := e.StorageTable.Physical(); !slices.Contains(phys, primary) || slices.Contains(phys, survivor) {
		t.Fatalf("after the commit the table binds %v, want the reborn primary", phys)
	}
	if g := e.Replicas.Groups()[1]; g.Members[0] != primary || len(g.Members) != 2 {
		t.Fatalf("group 1 = %v, want the reborn primary first", g.Members)
	}
	if st := e.RebalanceStatus(); st.State != "done" {
		t.Fatalf("rebalance status %+v after the rebirth", st)
	}
	ReplicaGroupsIdentical(t, e)
	VerifyBytes(t, e, c, fh, data)
	FsckClean(t, e)
}
