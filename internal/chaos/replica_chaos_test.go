package chaos

import (
	"bytes"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/oncrpc"
	"slice/internal/storage"
	"slice/internal/workload"
)

// newReplicatedEnsemble builds the fault-injection deployment with 2-way
// replicated storage: 4 nodes in 2 groups, group 1 = {node 2, node 3}.
// The small-file backing object lives on node 0, so killing group 1's
// last member never touches the unreplicated small-file path.
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
// their next retransmission), and after the member is reborn and
// resynced from its sibling, every group must be byte-identical and the
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

	// Rebirth: empty store, resynced from the surviving sibling before
	// the member serves or rejoins the group.
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
// acknowledged entry may be lost, and after resync the groups are
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
	_ = oneShot.Remove(c.Root(), "mirrored-victim") // times out client-side; the chain runs on
	if !WaitFor(5*time.Second, func() bool { return e.Coord.PendingIntentions() >= 1 }) {
		t.Fatal("remove intention never became durable")
	}

	ch.CrashCoordinator()
	co, err := ch.RestartCoordinator(3052) // recovery runs before this returns, member still cut off
	if err != nil {
		t.Fatalf("coordinator restart: %v", err)
	}
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
