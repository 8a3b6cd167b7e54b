package ensemble

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/fhandle"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/storage"
)

// newReplicated builds a 2-way replicated ensemble: 4 storage nodes in
// 2 groups, no small-file tier (every byte takes the replicated path).
func newReplicated(t *testing.T, mutate func(*Config)) *Ensemble {
	t.Helper()
	cfg := Config{
		StorageNodes: 4,
		Replication:  2,
		DirServers:   1,
		Coordinator:  true,
		NameKind:     route.MkdirSwitching,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("ensemble: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

// assertGroupsIdentical checks that every member of each replica group
// holds byte-identical copies of every object.
func assertGroupsIdentical(t *testing.T, e *Ensemble) {
	t.Helper()
	k := e.cfg.Replication
	for base := 0; base+k <= len(e.Storage); base += k {
		members := e.Storage[base : base+k]
		for gi := base; gi < base+k; gi++ {
			if e.Storage[gi] == nil {
				t.Fatalf("storage node %d is down", gi)
			}
		}
		ref := members[0].Store()
		var after storage.ObjectID
		for {
			page := ref.ListAfter(after, 128)
			if len(page) == 0 {
				break
			}
			for _, ent := range page {
				after = ent.ID
				want := make([]byte, ent.Size)
				if ent.Size > 0 {
					ref.ReadAt(ent.ID, 0, want)
				}
				for mi, m := range members[1:] {
					size, ok := m.Store().Size(ent.ID)
					if !ok || size != ent.Size {
						t.Fatalf("group %d member %d: object %d size %d, want %d (ok=%v)",
							base/k, mi+1, ent.ID, size, ent.Size, ok)
					}
					got := make([]byte, ent.Size)
					if ent.Size > 0 {
						m.Store().ReadAt(ent.ID, 0, got)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("group %d member %d: object %d differs from primary", base/k, mi+1, ent.ID)
					}
				}
			}
		}
	}
}

// TestReplicatedWriteFansOutReadsSpread writes and commits a file to one
// replica group of k members, checks that every member holds it, and then
// counts how its clean reads divide: eight concurrent serial clients make
// 1 024 stripe-unit READs in all, and the busiest member may serve at most
// one over the speedup spreading must buy — 1.6× at k = 2, 2.2× at k = 3:
// with the readers in a closed loop, aggregate read throughput is bounded
// by that share.
func TestReplicatedWriteFansOutReadsSpread(t *testing.T) {
	for _, tc := range []struct {
		k        int
		maxShare float64
	}{{2, 1 / 1.6}, {3, 1 / 2.2}} {
		t.Run(fmt.Sprintf("k=%d", tc.k), func(t *testing.T) {
			testReadsSpread(t, tc.k, tc.maxShare)
		})
	}
}

func testReadsSpread(t *testing.T, k int, maxShare float64) {
	const (
		readers = 8
		reads   = 1024
		unit    = route.DefaultStripeUnit
	)
	e := newReplicated(t, func(cfg *Config) {
		cfg.StorageNodes = k
		cfg.Replication = k
	})
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "fanout.dat", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	if _, err := c.Write(fh, 0, data, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := c.Commit(fh); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// All fan-outs acknowledged: nothing stays dirty.
	if n := e.Proxy.DirtyLen(); n != 0 {
		t.Fatalf("dirty set holds %d entries after acked writes", n)
	}
	// Every member of every group holds identical bytes.
	assertGroupsIdentical(t, e)

	before := make([]uint64, k)
	for i, sn := range e.Storage {
		before[i] = sn.Store().Stats().Reads
	}
	rcs := make([]*client.Client, readers)
	for r := range rcs {
		if rcs[r], err = e.NewSerialClient(); err != nil {
			t.Fatal(err)
		}
		defer rcs[r].Close()
	}
	var wg sync.WaitGroup
	for r, rc := range rcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]byte, unit)
			for i := 0; i < reads/readers; i++ {
				off := (r*len(data)/readers + i*unit) % len(data)
				n, _, err := rc.Read(fh, uint64(off), got)
				if err != nil || n != unit || !bytes.Equal(got, data[off:off+unit]) {
					t.Errorf("reader %d at %d: n=%d err=%v, or the bytes differ", r, off, n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var total, most uint64
	for i, sn := range e.Storage {
		n := sn.Store().Stats().Reads - before[i]
		total += n
		most = max(most, n)
	}
	if total != reads {
		t.Fatalf("the group served %d reads, want %d", total, reads)
	}
	if share := float64(most) / float64(total); share > maxShare {
		t.Errorf("the busiest member served %.3f of the reads, want at most %.3f", share, maxShare)
	}
}

// TestGrownGroupSpreadsReads: a group that Grow adds spreads its reads
// like the groups the ensemble started with. A committed 1 MiB file
// written after a Grow(2) is read 1 024 times by a serial client; every
// member of both groups must serve reads, and the busiest member of each
// group at most 1/1.6 of its group's. The µproxy's per-member read
// histograms (replica.read[g.m], what slicectl reports) cover the grown
// group too: each member's counts at least the reads it served.
func TestGrownGroupSpreadsReads(t *testing.T) {
	const (
		reads = 1024
		unit  = route.DefaultStripeUnit
	)
	e := newReplicated(t, func(cfg *Config) {
		cfg.StorageNodes = 2
		cfg.LogicalSites = 16
	})
	if err := e.Grow(2); err != nil {
		t.Fatalf("grow: %v", err)
	}
	c, err := e.NewSerialClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Create(c.Root(), "grown.dat", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i*11 + i>>10)
	}
	if err := c.WriteFile(fh, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(fh); err != nil {
		t.Fatal(err)
	}
	if n := e.Proxy.DirtyLen(); n != 0 {
		t.Fatalf("dirty set holds %d entries after a commit", n)
	}

	before := make([]uint64, len(e.Storage))
	for i, sn := range e.Storage {
		before[i] = sn.Store().Stats().Reads
	}
	histBefore := readHists(e)
	got := make([]byte, unit)
	for i := 0; i < reads; i++ {
		off := i * unit % len(data)
		if n, _, err := c.Read(fh, uint64(off), got); err != nil || n != unit || !bytes.Equal(got, data[off:off+unit]) {
			t.Fatalf("read %d at %d: n=%d err=%v, or the bytes differ", i, off, n, err)
		}
	}
	served := make([]uint64, len(e.Storage))
	for i, sn := range e.Storage {
		served[i] = sn.Store().Stats().Reads - before[i]
	}
	if len(served) != 4 {
		t.Fatalf("%d storage nodes after Grow(2), want 4", len(served))
	}
	for g := 0; g < 2; g++ {
		a, b := served[2*g], served[2*g+1]
		if a == 0 || b == 0 || float64(max(a, b))/float64(a+b) > 1/1.6 {
			t.Errorf("group %d's members served %d and %d reads (all: %v): want every member reading, none over 1/1.6",
				g, a, b, served)
		}
	}
	// Every read goes to a member spreadRead counted; a lost one would
	// count without being served, so a member's count is at least its
	// reads.
	histAfter := readHists(e)
	for i := range served {
		name := fmt.Sprintf("replica.read[%d.%d]", i/2, i%2)
		if n := histAfter[name] - histBefore[name]; n == 0 || n < served[i] {
			t.Errorf("%s counts %d reads, storage node %d served %d (histograms: %v)", name, n, i, served[i], histAfter)
		}
	}
}

// readHists sums the µproxies' replica.read[g.m] histogram counts by name.
func readHists(e *Ensemble) map[string]uint64 {
	out := map[string]uint64{}
	for _, comp := range e.Obs.Snapshot().Components {
		for name, h := range comp.Hists {
			if strings.HasPrefix(name, "replica.read[") {
				out[name] += h.Count()
			}
		}
	}
	return out
}

// TestSilentMemberCostsOneRetransmission: a member that stops answering
// without being marked down (partitioned, no MarkDown) fails no read. A
// read sent to it is retransmitted to the other member of its group, so
// each of 64 reads of a committed object succeeds.
func TestSilentMemberCostsOneRetransmission(t *testing.T) {
	const unit = route.DefaultStripeUnit
	e := newReplicated(t, func(cfg *Config) {
		cfg.StorageNodes = 2
		cfg.ClientRPC = oncrpc.ClientConfig{Timeout: 20 * time.Millisecond, Retries: 5}
	})
	c, err := e.NewSerialClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Create(c.Root(), "silent.dat", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 3)
	}
	if err := c.WriteFile(fh, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(fh); err != nil {
		t.Fatal(err)
	}

	e.Chaos().PartitionStorage(1)
	faulted := e.Net.Stats().Faulted
	got := make([]byte, unit)
	for i := 0; i < 64; i++ {
		off := i * unit % len(data)
		if n, _, err := c.Read(fh, uint64(off), got); err != nil || n != unit || !bytes.Equal(got, data[off:off+unit]) {
			t.Fatalf("read %d at %d with member 1 silent: n=%d err=%v, or the bytes differ", i, off, n, err)
		}
	}
	if e.Net.Stats().Faulted == faulted {
		t.Fatal("no read was sent to the silent member")
	}
}

// TestDirtyObjectPinsReadsUntilCommit drives the dirty-set edge cases:
// a write whose fan-out cannot complete (one member partitioned) leaves
// its object dirty through every client retransmission — fresh-xid
// reissues must not double-insert, or the entry could never drain — and
// reads of the dirty object pin to the primary and stay correct. After
// the client gives up, the mark survives as a safe over-approximation
// until a COMMIT barrier force-clears it.
func TestDirtyObjectPinsReadsUntilCommit(t *testing.T) {
	e := newReplicated(t, func(cfg *Config) {
		cfg.StorageNodes = 2 // one group: {primary 0, member 1}
		cfg.ClientRPC = oncrpc.ClientConfig{Timeout: 30 * time.Millisecond, Retries: 4}
	})
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "pinned.dat", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	base := make([]byte, 128*1024)
	for i := range base {
		base[i] = byte(i * 13)
	}
	if _, err := c.Write(fh, 0, base, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := c.Commit(fh); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if n := e.Proxy.DirtyLen(); n != 0 {
		t.Fatalf("dirty set holds %d entries before the partition", n)
	}

	// Partition the non-primary member and write: the fan-out can never
	// complete, so the object goes (and stays) dirty while the client
	// retransmits and reissues, and the write-behind drain finally
	// surfaces the failure client-side.
	e.Chaos().PartitionStorage(1)
	tail := bytes.Repeat([]byte{0xEE}, 32*1024)
	if _, err := c.Write(fh, uint64(len(base)), tail, false); err == nil {
		err = c.Flush(fh)
		if err == nil {
			t.Fatal("write with a partitioned replica succeeded")
		}
	}
	if !e.Proxy.ObjectDirty(fh) {
		t.Fatal("object not dirty after an unacknowledged fan-out")
	}
	if got := e.Proxy.DirtyLen(); got != 1 {
		t.Fatalf("dirty set holds %d entries, want 1 (retransmits must not double-insert)", got)
	}

	// Dirty reads pin to the primary and serve the committed bytes.
	m1Reads := e.Storage[1].Store().Stats().Reads
	got := make([]byte, len(base))
	for i := 0; i < 8; i++ {
		if n, _, err := c.Read(fh, 0, got); err != nil || n != len(base) {
			t.Fatalf("pinned read %d: n=%d err=%v", i, n, err)
		}
		if !bytes.Equal(got, base) {
			t.Fatalf("pinned read %d returned wrong bytes", i)
		}
	}
	if after := e.Storage[1].Store().Stats().Reads; after != m1Reads {
		t.Fatalf("dirty object was read from the partitioned member (%d reads)", after-m1Reads)
	}

	// Heal and commit: the barrier reaches every member and force-clears
	// the over-approximated mark, so reads spread again.
	e.Chaos().HealStorage(1)
	if _, err := c.Commit(fh); err != nil {
		t.Fatalf("commit after heal: %v", err)
	}
	if e.Proxy.ObjectDirty(fh) {
		t.Fatal("COMMIT barrier did not clear the dirty mark")
	}
	m1Reads = e.Storage[1].Store().Stats().Reads
	for i := 0; i < 16; i++ {
		if _, _, err := c.Read(fh, uint64(8192*(i%4)), got[:8192]); err != nil {
			t.Fatalf("spread read %d: %v", i, err)
		}
	}
	if e.Storage[1].Store().Stats().Reads == m1Reads {
		t.Fatal("reads did not spread to the healed member after COMMIT")
	}
}

// TestDirtyMarkSurvivesSoftStateLossAsOverApproximation drops the
// µproxy's soft state mid-partitioned-write — the fleet-failover
// equivalent: the new owner starts with no dirtiness knowledge, and the
// client's retransmission re-marks the object, pinning its reads again.
func TestDirtyMarkSurvivesSoftStateLoss(t *testing.T) {
	e := newReplicated(t, func(cfg *Config) {
		cfg.StorageNodes = 2
		cfg.ClientRPC = oncrpc.ClientConfig{Timeout: 30 * time.Millisecond, Retries: 30}
	})
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "failover.dat", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 96*1024)
	for i := range data {
		data[i] = byte(i)
	}

	e.Chaos().PartitionStorage(1)
	done := make(chan error, 1)
	go func() {
		_, err := c.Write(fh, 0, data, false)
		if err == nil {
			err = c.Flush(fh) // drain the write-behind window
		}
		done <- err
	}()
	// Wait for the first fan-out to mark the object dirty, then lose the
	// soft state (what a fleet failover looks like to the dirty set).
	deadline := time.Now().Add(2 * time.Second)
	for e.Proxy.DirtyLen() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Proxy.DirtyLen() == 0 {
		t.Fatal("write never marked its object dirty")
	}
	e.Proxy.DropSoftState()
	// The client keeps retransmitting into the fresh state: the record
	// is recreated and the object re-marked (the over-approximation).
	deadline = time.Now().Add(2 * time.Second)
	for e.Proxy.DirtyLen() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Proxy.DirtyLen() == 0 {
		t.Fatal("retransmission did not re-mark the object after soft-state loss")
	}

	// Heal: the still-retrying write completes and the fan-out drains
	// the re-marked entry.
	e.Chaos().HealStorage(1)
	if err := <-done; err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	if _, err := c.Commit(fh); err != nil {
		t.Fatalf("commit: %v", err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for e.Proxy.DirtyLen() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := e.Proxy.DirtyLen(); n != 0 {
		t.Fatalf("dirty set holds %d entries after the healed write drained", n)
	}
	assertGroupsIdentical(t, e)
}

func TestKillReplicaRebirthRebuildsMember(t *testing.T) {
	e := newReplicated(t, func(cfg *Config) {
		cfg.ClientRPC = oncrpc.ClientConfig{Timeout: 50 * time.Millisecond, Retries: 100}
	})
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "rebirth.dat", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 200*1024)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := c.Write(fh, 0, data, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(fh); err != nil {
		t.Fatal(err)
	}

	// Kill a non-primary member disk and all: group 1 = nodes {2, 3}.
	killed, err := e.Chaos().KillReplicaUnderWrite(1)
	if err != nil {
		t.Fatal(err)
	}
	if killed != 3 {
		t.Fatalf("killed node %d, want 3 (last member of group 1)", killed)
	}
	// The survivors still serve reads of the whole file.
	got := make([]byte, len(data))
	if n, _, err := c.Read(fh, 0, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("read with a dead member: n=%d err=%v", n, err)
	}

	// Restart: a rebalance transition copies the member whole before it
	// rejoins the group.
	if _, err := e.Chaos().RestartReplica(killed); err != nil {
		t.Fatal(err)
	}
	assertGroupsIdentical(t, e)

	// And it serves spread reads again.
	before := e.Storage[killed].Store().Stats().Reads
	for i := 0; i < 32; i++ {
		if _, _, err := c.Read(fh, 0, got); err != nil {
			t.Fatalf("read %d after rebirth: %v", i, err)
		}
	}
	if e.Storage[killed].Store().Stats().Reads == before && before == 0 {
		t.Log("note: no spread read landed on the reborn member (hash-dependent)")
	}
}

// TestSmallFilesSurviveReplicaRebirthAndRestart: a small-file server's
// fragments are part of its own durable value, beside its journal, not an
// object on a storage node. A rebirth of storage node 0 (a fresh, empty
// store) followed by a crash and restart of small-file server 0 must
// leave every FILE_SYNC small file readable byte for byte.
func TestSmallFilesSurviveReplicaRebirthAndRestart(t *testing.T) {
	e := newReplicated(t, func(cfg *Config) {
		cfg.SmallFileServers = 2
		cfg.ClientRPC = oncrpc.ClientConfig{Timeout: 50 * time.Millisecond, Retries: 100}
	})
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const files = 16
	fhs := make([]fhandle.Handle, files)
	want := make([][]byte, files)
	for i := range fhs {
		fh, _, err := c.Create(c.Root(), fmt.Sprintf("small%02d", i), 0o644, true)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = bytes.Repeat([]byte{byte('a' + i)}, 1000+i*300)
		if _, err := c.Write(fh, 0, want[i], true); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		fhs[i] = fh
	}

	e.Chaos().KillReplica(0)
	if _, err := e.Chaos().RestartReplica(0); err != nil {
		t.Fatal(err)
	}
	at := e.Small[0].Addr()
	if err := e.Chaos().Crash(RoleSmall, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Chaos().Restart(RoleSmall, 0, at); err != nil {
		t.Fatal(err)
	}

	for i, fh := range fhs {
		got := make([]byte, len(want[i]))
		n, _, err := c.Read(fh, 0, got)
		if err != nil || n != len(got) || !bytes.Equal(got, want[i]) {
			t.Errorf("file %d: read n=%d err=%v, want %d bytes back", i, n, err, len(want[i]))
		}
	}
	assertGroupsIdentical(t, e)
}
