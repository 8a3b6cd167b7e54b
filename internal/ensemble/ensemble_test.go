package ensemble

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"slice/internal/attr"
	"slice/internal/client"
	"slice/internal/dirsrv"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/route"
)

// newTest builds a default ensemble for integration tests: 4 storage
// nodes, 2 directory servers, 2 small-file servers, a coordinator.
func newTest(t *testing.T, mutate func(*Config)) *Ensemble {
	t.Helper()
	cfg := Config{
		StorageNodes:     4,
		DirServers:       2,
		SmallFileServers: 2,
		Coordinator:      true,
		NameKind:         route.MkdirSwitching,
		MkdirP:           0.5,
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

func TestMountAndNull(t *testing.T) {
	e := newTest(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Root().IsZero() {
		t.Fatal("mounted a zero root handle")
	}
	if err := c.Null(); err != nil {
		t.Fatalf("NULL: %v", err)
	}
}

// TestFsStatThroughProxy: FSSTAT on the root travels through the µproxy
// to the root's directory server, which counts the files its cells hold.
func TestFsStatThroughProxy(t *testing.T) {
	e := newTest(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before, err := c.FsStat(c.Root())
	if err != nil {
		t.Fatalf("fsstat: %v", err)
	}
	if !before.Attr.Present || before.Attr.Attr.Type != attr.TypeDir || before.TotalBytes == 0 {
		t.Fatalf("fsstat of the root: %+v", before)
	}
	if _, _, err := c.Create(c.Root(), "counted", 0o644, true); err != nil {
		t.Fatal(err)
	}
	after, err := c.FsStat(c.Root())
	if err != nil {
		t.Fatalf("fsstat: %v", err)
	}
	if after.FreeFiles != before.FreeFiles-1 {
		t.Fatalf("free files %d after a create, want %d", after.FreeFiles, before.FreeFiles-1)
	}
}

func TestCreateWriteReadSmallFile(t *testing.T) {
	e := newTest(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "hello.txt", 0o644, true)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	data := []byte("hello, slice storage")
	if _, err := c.Write(fh, 0, data, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := c.Commit(fh); err != nil {
		t.Fatalf("commit: %v", err)
	}
	got := make([]byte, len(data))
	n, _, err := c.Read(fh, 0, got)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got[:n], data) {
		t.Fatalf("read back %q, want %q", got[:n], data)
	}
	// The small-file servers, not the storage nodes, must hold the data.
	var sfWrites uint64
	for _, s := range e.Small {
		sfWrites += s.Store().Stats().Writes
	}
	if sfWrites == 0 {
		t.Fatal("small-file servers saw no writes for a below-threshold file")
	}
}

func TestLargeFileStriping(t *testing.T) {
	e := newTest(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "big.dat", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	// 256KB spans the 64KB threshold and stripes over the array.
	data := make([]byte, 256*1024)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := c.Write(fh, 0, data, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := c.Commit(fh); err != nil {
		t.Fatalf("commit: %v", err)
	}
	got := make([]byte, len(data))
	n, _, err := c.Read(fh, 0, got)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if n != len(data) {
		t.Fatalf("read %d bytes, want %d", n, len(data))
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large file content mismatch")
	}
	at, err := c.GetAttr(fh)
	if err != nil {
		t.Fatal(err)
	}
	if at.Size != uint64(len(data)) {
		t.Fatalf("size attribute %d, want %d (attr writeback through commit)", at.Size, len(data))
	}
	// Bulk I/O must bypass the managers: multiple storage nodes hold data.
	nodesWithData := 0
	for _, sn := range e.Storage {
		if sn.Store().Stats().Writes > 0 {
			nodesWithData++
		}
	}
	if nodesWithData < 2 {
		t.Fatalf("striping used %d storage nodes, want >=2", nodesWithData)
	}
}

// TestWriteEndingInOldTraceMagic: an UNSTABLE 32 KiB WRITE whose data
// ends in eight arbitrary bytes and then "SLICTRAC" — the magic that once
// marked an optional trace trailer, which every server cut off a call's
// body, 16 bytes short — is stored whole through the µproxy, at a
// small-file server and at a storage node alike, and reads back exact
// after COMMIT.
func TestWriteEndingInOldTraceMagic(t *testing.T) {
	e := newTest(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "lookalike", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	// One write below the 64 KiB threshold (a small-file server's) and one
	// above it (a storage node's).
	const unit = 32 << 10
	offsets := []uint64{0, 64 << 10}
	data := make([]byte, unit)
	for i := range data {
		data[i] = byte(i*13 + i>>9)
	}
	copy(data[unit-8:], "SLICTRAC")
	for _, off := range offsets {
		if _, err := c.Write(fh, off, data, false); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	if _, err := c.Commit(fh); err != nil {
		t.Fatalf("commit: %v", err)
	}
	for _, off := range offsets {
		got := make([]byte, unit)
		n, _, err := c.Read(fh, off, got)
		if err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		if !bytes.Equal(got[:n], data) {
			t.Fatalf("read at %d: %d bytes, not the %d written", off, n, unit)
		}
	}
	if at, err := c.GetAttr(fh); err != nil || at.Size != 64<<10+unit {
		t.Fatalf("size %d, %v; want %d", at.Size, err, 64<<10+unit)
	}
}

// TestStorageServiceTimePacesNodes: Config.StorageServiceTime admits one
// NFS request per interval at each storage node, so the N requests one
// node serves take at least (N−1) intervals. Only that lower bound is
// asserted: pacing cannot beat it, and a slow box only adds time.
func TestStorageServiceTimePacesNodes(t *testing.T) {
	const d = 2 * time.Millisecond
	e := newTest(t, func(c *Config) {
		c.StorageNodes = 1
		c.StorageServiceTime = d
	})
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Create(c.Root(), "paced.dat", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	// 512 KiB stable: all but the first 64 KiB go to the storage node.
	before := e.Storage[0].Store().Stats()
	start := time.Now()
	if _, err := c.Write(fh, 0, make([]byte, 512*1024), true); err != nil {
		t.Fatalf("write: %v", err)
	}
	elapsed := time.Since(start)
	after := e.Storage[0].Store().Stats()
	n := (after.Writes - before.Writes) + (after.Reads - before.Reads) + (after.Commits - before.Commits)
	if n < 8 {
		t.Fatalf("the storage node served %d requests, want at least 8", n)
	}
	if floor := time.Duration(n-1) * d; elapsed < floor {
		t.Fatalf("%d paced requests took %v, under the %v that %v pacing allows", n, elapsed, floor, d)
	}
}

func TestDirectoryTreeBothPolicies(t *testing.T) {
	for _, kind := range []route.NameKind{route.MkdirSwitching, route.NameHashing} {
		t.Run(kind.String(), func(t *testing.T) {
			e := newTest(t, func(cfg *Config) {
				cfg.NameKind = kind
				cfg.DirServers = 3
				cfg.MkdirP = 0.7
			})
			c, err := e.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// Build a tree and verify it can be walked back.
			dir, err := c.MkdirAll(c.Root(), "usr", "src", "sys")
			if err != nil {
				t.Fatalf("mkdir tree: %v", err)
			}
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("file%02d.c", i)
				if _, _, err := c.Create(dir, name, 0o644, true); err != nil {
					t.Fatalf("create %s: %v", name, err)
				}
			}
			ents, err := c.ReadDir(dir)
			if err != nil {
				t.Fatalf("readdir: %v", err)
			}
			if len(ents) != 20 {
				t.Fatalf("readdir found %d entries, want 20", len(ents))
			}
			// Lookup through the tree from the root.
			usr, _, err := c.Lookup(c.Root(), "usr")
			if err != nil {
				t.Fatalf("lookup usr: %v", err)
			}
			src, _, err := c.Lookup(usr, "src")
			if err != nil {
				t.Fatalf("lookup src: %v", err)
			}
			sys, at, err := c.Lookup(src, "sys")
			if err != nil {
				t.Fatalf("lookup sys: %v", err)
			}
			if sys.Ident() != dir.Ident() {
				t.Fatal("lookup resolved a different handle than mkdir returned")
			}
			if at.Nlink != 2 {
				t.Fatalf("leaf dir nlink %d, want 2", at.Nlink)
			}
		})
	}
}

func TestRemoveClearsData(t *testing.T) {
	e := newTest(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "victim", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(fh, bytes.Repeat([]byte("x"), 200*1024)); err != nil {
		t.Fatal(err)
	}
	before := int64(0)
	for _, sn := range e.Storage {
		before += sn.Store().TotalBytes()
	}
	if before == 0 {
		t.Fatal("expected bulk data on storage nodes before remove")
	}
	if err := c.Remove(c.Root(), "victim"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, _, err := c.Lookup(c.Root(), "victim"); nfsproto.StatusOf(err) != nfsproto.ErrNoEnt {
		t.Fatalf("lookup after remove: %v, want ENOENT", err)
	}
	after := int64(0)
	for _, sn := range e.Storage {
		after += sn.Store().TotalBytes()
	}
	// Storage nodes hold striped file objects only, so none may remain.
	if after != 0 {
		t.Fatalf("storage bytes left after remove: before %d after %d", before, after)
	}
	if e.Coord.PendingIntentions() != 0 {
		t.Fatalf("%d intentions left pending after clean remove", e.Coord.PendingIntentions())
	}
}

func TestRenameAndLink(t *testing.T) {
	e := newTest(t, func(cfg *Config) { cfg.DirServers = 3 })
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dirA, err := c.MkdirAll(c.Root(), "a")
	if err != nil {
		t.Fatal(err)
	}
	dirB, err := c.MkdirAll(c.Root(), "b")
	if err != nil {
		t.Fatal(err)
	}
	fh, _, err := c.Create(dirA, "orig", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(fh, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(dirA, "orig", dirB, "moved"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if _, _, err := c.Lookup(dirA, "orig"); nfsproto.StatusOf(err) != nfsproto.ErrNoEnt {
		t.Fatalf("old name still resolves: %v", err)
	}
	got, at, err := c.Lookup(dirB, "moved")
	if err != nil {
		t.Fatalf("lookup moved: %v", err)
	}
	if got.Ident() != fh.Ident() {
		t.Fatal("rename changed the file identity")
	}
	_ = at

	// Hard link and verify the link count.
	if err := c.Link(fh, dirA, "alias"); err != nil {
		t.Fatalf("link: %v", err)
	}
	at2, err := c.GetAttr(fh)
	if err != nil {
		t.Fatal(err)
	}
	if at2.Nlink != 2 {
		t.Fatalf("nlink after link = %d, want 2", at2.Nlink)
	}
	// Removing one name keeps the data reachable through the other.
	if err := c.Remove(dirB, "moved"); err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadAll(fh)
	if err != nil || string(data) != "payload" {
		t.Fatalf("data lost after removing one of two links: %q, %v", data, err)
	}
}

func TestRmdirSemantics(t *testing.T) {
	e := newTest(t, func(cfg *Config) { cfg.DirServers = 3; cfg.MkdirP = 1.0 })
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dir, err := c.MkdirAll(c.Root(), "parent", "child")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Create(dir, "f", 0o644, true); err != nil {
		t.Fatal(err)
	}
	parent, _, err := c.Lookup(c.Root(), "parent")
	if err != nil {
		t.Fatal(err)
	}
	// Non-empty rmdir must fail.
	if err := c.Rmdir(parent, "child"); nfsproto.StatusOf(err) != nfsproto.ErrNotEmpty {
		t.Fatalf("rmdir non-empty: %v, want ENOTEMPTY", err)
	}
	if err := c.Remove(dir, "f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rmdir(parent, "child"); err != nil {
		t.Fatalf("rmdir empty: %v", err)
	}
	if _, _, err := c.Lookup(parent, "child"); nfsproto.StatusOf(err) != nfsproto.ErrNoEnt {
		t.Fatalf("child still resolves after rmdir: %v", err)
	}
}

// TestMirroredFiles: mirroring is a k = 2 replica-group policy. Every
// bulk stripe lands on both members of its group, and the file reads back
// intact after one member is lost together with its disk.
func TestMirroredFiles(t *testing.T) {
	e := newTest(t, func(cfg *Config) { cfg.Replication = 2 })
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "mirrored", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 192*1024)
	for i := range data {
		data[i] = byte(i)
	}
	if err := c.WriteFile(fh, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, _, err := c.Read(fh, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mirrored read mismatch")
	}
	// Each bulk stripe must exist on two storage nodes: total bulk bytes
	// stored ≈ 2× the above-threshold portion.
	var stored int64
	for _, sn := range e.Storage {
		stored += int64(sn.Store().Stats().BytesWritten)
	}
	bulk := int64(len(data) - 64*1024)
	if stored < 2*bulk {
		t.Fatalf("stored %d bulk bytes, want >= %d (two replicas)", stored, 2*bulk)
	}

	// Reads survive the loss of a member: kill a primary holding data,
	// disk and all; its mirror is promoted and serves the group's stripes.
	killed := -1
	for i, sn := range e.Storage {
		if _, primary := e.Replicas.GroupOf(sn.Addr()); primary && sn.Store().Stats().Writes > 0 {
			e.Chaos().KillReplica(i)
			killed = i
			break
		}
	}
	if killed < 0 {
		t.Fatal("no primary holds data")
	}
	got2 := make([]byte, len(data))
	if _, _, err := c.Read(fh, 0, got2); err != nil {
		t.Fatalf("read after replica loss: %v", err)
	}
	if !bytes.Equal(got2, data) {
		t.Fatal("mirrored read after replica loss mismatch")
	}
}

func TestProxySoftStateLoss(t *testing.T) {
	e := newTest(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "softstate", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(fh, []byte("before flush")); err != nil {
		t.Fatal(err)
	}
	// The µproxy may discard all soft state at any time (§2.1).
	e.Proxy.FlushSoftState()
	data, err := c.ReadAll(fh)
	if err != nil || string(data) != "before flush" {
		t.Fatalf("read after soft-state flush: %q, %v", data, err)
	}
	// New operations keep working.
	fh2, _, err := c.Create(c.Root(), "after", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(fh2, []byte("after flush")); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadAll(fh2)
	if err != nil || string(got) != "after flush" {
		t.Fatalf("read new file after flush: %q, %v", got, err)
	}
}

func TestTruncateThroughProxy(t *testing.T) {
	e := newTest(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "trunc", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(fh, bytes.Repeat([]byte("ab"), 80*1024)); err != nil {
		t.Fatal(err)
	}
	if err := c.Truncate(fh, 100); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	at, err := c.GetAttr(fh)
	if err != nil {
		t.Fatal(err)
	}
	if at.Size != 100 {
		t.Fatalf("size after truncate = %d, want 100", at.Size)
	}
	data, err := c.ReadAll(fh)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 100 {
		t.Fatalf("read %d bytes after truncate, want 100", len(data))
	}
}

func TestManyClientsConcurrent(t *testing.T) {
	e := newTest(t, func(cfg *Config) { cfg.DirServers = 4; cfg.NameKind = route.NameHashing })
	const clients = 4
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		c, err := e.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go func(i int) {
			dir, err := c.MkdirAll(c.Root(), fmt.Sprintf("client%d", i), "work")
			if err != nil {
				errs <- fmt.Errorf("client %d mkdir: %w", i, err)
				return
			}
			for j := 0; j < 10; j++ {
				fh, _, err := c.Create(dir, fmt.Sprintf("f%d", j), 0o644, true)
				if err != nil {
					errs <- fmt.Errorf("client %d create %d: %w", i, j, err)
					return
				}
				payload := []byte(fmt.Sprintf("client %d file %d", i, j))
				if err := c.WriteFile(fh, payload); err != nil {
					errs <- fmt.Errorf("client %d write %d: %w", i, j, err)
					return
				}
				back, err := c.ReadAll(fh)
				if err != nil || !bytes.Equal(back, payload) {
					errs <- fmt.Errorf("client %d readback %d: %q %v", i, j, back, err)
					return
				}
			}
			ents, err := c.ReadDir(dir)
			if err != nil || len(ents) != 10 {
				errs <- fmt.Errorf("client %d readdir: %d entries, %v", i, len(ents), err)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDirectoryServerFailover exercises the §2.3 failover story end to
// end: a directory server dies; a surviving site assumes its role by
// recovering its state from the write-ahead log; the µproxy's routing
// table is rebound to the replacement; clients continue without visible
// volume changes. A second failover of the moved server then recovers
// the updates the replacement journaled.
func TestDirectoryServerFailover(t *testing.T) {
	e := newTest(t, func(cfg *Config) { cfg.DirServers = 2; cfg.MkdirP = 0 })
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// State before the failure: a tree with files, all on site 0 (p=0).
	dir, err := c.MkdirAll(c.Root(), "projects", "slice")
	if err != nil {
		t.Fatal(err)
	}
	fh, _, err := c.Create(dir, "paper.tex", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(fh, []byte("interposed request routing")); err != nil {
		t.Fatal(err)
	}

	// Fail site 0; a replacement assumes the role at a NEW address,
	// rebuilt from the durable journal, and the shared table follows.
	failover(t, e, 70)

	// The volume is intact through the same client.
	got, _, err := c.Lookup(dir, "paper.tex")
	if err != nil {
		t.Fatalf("lookup after failover: %v", err)
	}
	if got.Ident() != fh.Ident() {
		t.Fatal("failover changed file identity")
	}
	data, err := c.ReadAll(fh)
	if err != nil || string(data) != "interposed request routing" {
		t.Fatalf("read after failover: %q, %v", data, err)
	}
	// And it keeps accepting updates, into the journal a later crash
	// replays.
	rev, _, err := c.Create(dir, "revision.tex", 0o644, true)
	if err != nil {
		t.Fatalf("create after failover: %v", err)
	}
	failover(t, e, 71)
	if got, _, err := c.Lookup(dir, "revision.tex"); err != nil || got.Ident() != rev.Ident() {
		t.Fatalf("revision.tex after the second failover: %v", err)
	}
	ents, err := c.ReadDir(dir)
	if err != nil || len(ents) != 2 {
		t.Fatalf("readdir after failover: %d entries, %v", len(ents), err)
	}
}

// failover crashes directory server 0 and restarts it on host.
func failover(t *testing.T, e *Ensemble, host uint32) {
	t.Helper()
	at := netsim.Addr{Host: host, Port: ServicePort}
	if err := e.Chaos().Crash(RoleDir, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Chaos().Restart(RoleDir, 0, at); err != nil {
		t.Fatalf("restart at %v: %v", at, err)
	}
	if got := e.DirTable.Physical()[0]; got != at {
		t.Fatalf("site 0 bound to %v after failover to %v", got, at)
	}
}

// TestCapabilityProtection exercises the §2.2 secure-object model: with a
// capability key configured, the full client path works (the µproxy mints
// capabilities in flight), while a client that bypasses the µproxy and
// addresses a storage node directly is refused.
func TestCapabilityProtection(t *testing.T) {
	key := []byte("ensemble secret")
	e := newTest(t, func(cfg *Config) { cfg.CapabilityKey = key })
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Normal path through the µproxy: unaffected.
	fh, _, err := c.Create(c.Root(), "protected", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("s"), 128*1024) // bulk: hits storage nodes
	if err := c.WriteFile(fh, data); err != nil {
		t.Fatalf("write through µproxy: %v", err)
	}
	got, err := c.ReadAll(fh)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read through µproxy: %d bytes, %v", len(got), err)
	}
	// Remove (proxy-orchestrated, capability-stamped) works too.
	if err := c.Remove(c.Root(), "protected"); err != nil {
		t.Fatalf("remove through µproxy: %v", err)
	}

	// Bypass path: talk to a storage node directly with the raw handle
	// (no capability). Every node must refuse.
	fh2, _, err := c.Create(c.Root(), "target", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(fh2, bytes.Repeat([]byte("x"), 128*1024)); err != nil {
		t.Fatal(err)
	}
	// Window 1: the rogue probe needs synchronous per-write errors, not
	// the windowed path's deferred write-behind reporting.
	rogue, err := client.New(client.Config{
		Net: e.Net, Host: 250, Server: e.Storage[0].Addr(), Window: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	buf := make([]byte, 1024)
	_, _, err = rogue.Read(fh2, 64*1024, buf)
	if nfsproto.StatusOf(err) != nfsproto.ErrAccess {
		t.Fatalf("direct storage read without capability: %v, want EACCES", err)
	}
	if _, err := rogue.Write(fh2, 64*1024, []byte("corrupt"), false); nfsproto.StatusOf(err) != nfsproto.ErrAccess {
		t.Fatalf("direct storage write without capability: %v, want EACCES", err)
	}
	var denied uint64
	for _, n := range e.Storage {
		denied += n.DeniedRequests()
	}
	if denied < 2 {
		t.Fatalf("denied counter = %d, want >= 2", denied)
	}

	// A forged capability (wrong key) is also refused.
	forged := fhandle.WithCapability([]byte("wrong key"), fh2)
	if _, _, err := rogue.Read(forged, 64*1024, buf); nfsproto.StatusOf(err) != nfsproto.ErrAccess {
		t.Fatalf("forged capability accepted: %v", err)
	}

	// A correctly keyed capability IS accepted (this is how the µproxy
	// and coordinator address storage).
	minted := fhandle.WithCapability(key, fh2)
	if _, _, err := rogue.Read(minted, 64*1024, buf); err != nil {
		t.Fatalf("valid capability refused: %v", err)
	}
}

// TestNamespaceIntegrityAfterMixedWorkload runs a busy mixed workload
// through the full stack (µproxy orchestration included) and then fscks
// the distributed name space across all directory servers.
func TestNamespaceIntegrityAfterMixedWorkload(t *testing.T) {
	for _, kind := range []route.NameKind{route.MkdirSwitching, route.NameHashing} {
		t.Run(kind.String(), func(t *testing.T) {
			e := newTest(t, func(cfg *Config) {
				cfg.NameKind = kind
				cfg.DirServers = 3
				cfg.MkdirP = 0.6
			})
			c, err := e.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			dirs := []fhandle.Handle{c.Root()}
			for i := 0; i < 8; i++ {
				d, _, err := c.Mkdir(dirs[i%len(dirs)], fmt.Sprintf("d%d", i), 0o755)
				if err != nil {
					t.Fatal(err)
				}
				dirs = append(dirs, d)
			}
			for i := 0; i < 30; i++ {
				dir := dirs[i%len(dirs)]
				fh, _, err := c.Create(dir, fmt.Sprintf("f%d", i), 0o644, true)
				if err != nil {
					t.Fatal(err)
				}
				if i%3 == 0 {
					if err := c.WriteFile(fh, bytes.Repeat([]byte("w"), 100+i*1000)); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Links, renames, removes, truncates, one rmdir.
			f0, _, err := c.Lookup(dirs[1], "f1")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Link(f0, dirs[2], "hardlink"); err != nil {
				t.Fatal(err)
			}
			if err := c.Rename(dirs[1], "f1", dirs[3], "renamed"); err != nil {
				t.Fatal(err)
			}
			if err := c.Remove(dirs[2], "hardlink"); err != nil {
				t.Fatal(err)
			}
			if err := c.Truncate(f0, 10); err != nil {
				t.Fatal(err)
			}
			empty, _, err := c.Mkdir(dirs[4], "doomed", 0o755)
			if err != nil {
				t.Fatal(err)
			}
			_ = empty
			if err := c.Rmdir(dirs[4], "doomed"); err != nil {
				t.Fatal(err)
			}
			e.Proxy.WritebackAttrs()

			if problems := dirsrv.Check(e.Dirs, e.Root); len(problems) != 0 {
				t.Fatalf("namespace integrity violated:\n%s", strings.Join(problems, "\n"))
			}
		})
	}
}

// TestSymlinksThroughFullStack: symlinks are name-service objects; they
// create, resolve, and remove through the µproxy like any name op.
func TestSymlinksThroughFullStack(t *testing.T) {
	for _, kind := range []route.NameKind{route.MkdirSwitching, route.NameHashing} {
		t.Run(kind.String(), func(t *testing.T) {
			e := newTest(t, func(cfg *Config) { cfg.NameKind = kind; cfg.DirServers = 3 })
			c, err := e.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			dir, err := c.MkdirAll(c.Root(), "bin")
			if err != nil {
				t.Fatal(err)
			}
			lnk, at, err := c.Symlink(dir, "sh", "/bin/dash")
			if err != nil {
				t.Fatalf("symlink: %v", err)
			}
			if at.Type != attr.TypeLink || at.Size != uint64(len("/bin/dash")) {
				t.Fatalf("symlink attrs: %+v", at)
			}
			target, err := c.ReadLink(lnk)
			if err != nil || target != "/bin/dash" {
				t.Fatalf("readlink: %q, %v", target, err)
			}
			// Resolvable by lookup; readlink on the looked-up handle.
			got, _, err := c.Lookup(dir, "sh")
			if err != nil {
				t.Fatal(err)
			}
			target, err = c.ReadLink(got)
			if err != nil || target != "/bin/dash" {
				t.Fatalf("readlink after lookup: %q, %v", target, err)
			}
			// READLINK on a regular file is EINVAL.
			reg, _, err := c.Create(dir, "regular", 0o644, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.ReadLink(reg); nfsproto.StatusOf(err) != nfsproto.ErrInval {
				t.Fatalf("readlink of regular file: %v, want EINVAL", err)
			}
			// Duplicate symlink name rejected; removal works.
			if _, _, err := c.Symlink(dir, "sh", "/elsewhere"); nfsproto.StatusOf(err) != nfsproto.ErrExist {
				t.Fatalf("duplicate symlink: %v, want EEXIST", err)
			}
			if err := c.Remove(dir, "sh"); err != nil {
				t.Fatalf("remove symlink: %v", err)
			}
			if _, _, err := c.Lookup(dir, "sh"); nfsproto.StatusOf(err) != nfsproto.ErrNoEnt {
				t.Fatalf("symlink survives remove: %v", err)
			}
			// Name space stays consistent.
			if problems := dirsrv.Check(e.Dirs, e.Root); len(problems) != 0 {
				t.Fatalf("integrity after symlink ops:\n%s", strings.Join(problems, "\n"))
			}
		})
	}
}

// TestSymlinkSurvivesFailover: symlink targets recover from the journal
// like all other cell state.
func TestSymlinkSurvivesFailover(t *testing.T) {
	e := newTest(t, func(cfg *Config) { cfg.DirServers = 1 })
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Symlink(c.Root(), "cfg", "/etc/slice.conf"); err != nil {
		t.Fatal(err)
	}
	failover(t, e, 71)
	target, err := c.ReadLink(fhandleOf(t, c, "cfg"))
	if err != nil || target != "/etc/slice.conf" {
		t.Fatalf("readlink after failover: %q, %v", target, err)
	}
}

func fhandleOf(t *testing.T, c *client.Client, name string) fhandle.Handle {
	t.Helper()
	fh, _, err := c.Lookup(c.Root(), name)
	if err != nil {
		t.Fatal(err)
	}
	return fh
}
