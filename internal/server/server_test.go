package server_test

import (
	"bytes"
	"errors"
	"testing"

	"slice/internal/attr"
	"slice/internal/client"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/server"
)

// newBaseline runs the monolithic server with a client talking directly
// to it (no µproxy: the point of the baseline).
func newBaseline(t *testing.T) (*server.Server, *client.Client) {
	t.Helper()
	net := netsim.New(netsim.Config{})
	port, err := net.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(port, 1, nil)
	c, err := client.New(client.Config{Net: net, Host: 100, Server: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mount(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); srv.Close() })
	return srv, c
}

func TestBaselineFullFileLifecycle(t *testing.T) {
	_, c := newBaseline(t)
	dir, err := c.MkdirAll(c.Root(), "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	fh, _, err := c.Create(dir, "f", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("base"), 10000)
	if err := c.WriteFile(fh, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadAll(fh)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes, %v", len(got), err)
	}
	at, err := c.GetAttr(fh)
	if err != nil || at.Size != uint64(len(data)) {
		t.Fatalf("size %d, %v", at.Size, err)
	}
	if err := c.Remove(dir, "f"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Lookup(dir, "f"); nfsproto.StatusOf(err) != nfsproto.ErrNoEnt {
		t.Fatalf("lookup after remove: %v", err)
	}
}

func TestBaselineNamespaceSemantics(t *testing.T) {
	_, c := newBaseline(t)
	d, err := c.MkdirAll(c.Root(), "dir")
	if err != nil {
		t.Fatal(err)
	}
	// rmdir non-empty fails.
	if _, _, err := c.Create(d, "x", 0o644, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Rmdir(c.Root(), "dir"); nfsproto.StatusOf(err) != nfsproto.ErrNotEmpty {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	// rename.
	if err := c.Rename(d, "x", c.Root(), "y"); err != nil {
		t.Fatal(err)
	}
	fh, _, err := c.Lookup(c.Root(), "y")
	if err != nil {
		t.Fatal(err)
	}
	// link + nlink accounting.
	if err := c.Link(fh, d, "z"); err != nil {
		t.Fatal(err)
	}
	at, _ := c.GetAttr(fh)
	if at.Nlink != 2 {
		t.Fatalf("nlink %d", at.Nlink)
	}
	// remove one name: data still reachable.
	if err := c.Remove(c.Root(), "y"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetAttr(fh); err != nil {
		t.Fatalf("file vanished with one link left: %v", err)
	}
	// rmdir after emptying.
	if err := c.Remove(d, "z"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rmdir(c.Root(), "dir"); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineTruncateViaSetattr(t *testing.T) {
	_, c := newBaseline(t)
	fh, _, err := c.Create(c.Root(), "t", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(fh, bytes.Repeat([]byte{7}, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := c.Truncate(fh, 10); err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadAll(fh)
	if err != nil || len(data) != 10 {
		t.Fatalf("after truncate: %d bytes, %v", len(data), err)
	}
	// Extend exposes zeros.
	if err := c.Truncate(fh, 20); err != nil {
		t.Fatal(err)
	}
	data, _ = c.ReadAll(fh)
	if len(data) != 20 || data[15] != 0 {
		t.Fatalf("extend: %v", data)
	}
}

func TestBaselineReaddirPaging(t *testing.T) {
	_, c := newBaseline(t)
	for i := 0; i < 50; i++ {
		if _, _, err := c.Create(c.Root(), string(rune('a'+i%26))+string(rune('0'+i/26)), 0o644, true); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := c.ReadDir(c.Root())
	if err != nil || len(ents) != 50 {
		t.Fatalf("readdir: %d, %v", len(ents), err)
	}
}

func TestBaselineOpsCounter(t *testing.T) {
	srv, c := newBaseline(t)
	before := srv.Ops()
	if _, err := c.GetAttr(c.Root()); err != nil {
		t.Fatal(err)
	}
	if srv.Ops() <= before {
		t.Fatal("ops counter did not advance")
	}
}

// TestBaselineAccessFsStatSymlink: ACCESS grants the bits asked for,
// FSSTAT counts the volume's files, and a SYMLINK's target comes back
// from READLINK, each over one fabric round trip; READLINK of a file that
// is no link is EINVAL.
func TestBaselineAccessFsStatSymlink(t *testing.T) {
	_, c := newBaseline(t)
	root := c.Root()
	mask := uint32(nfsproto.AccessRead | nfsproto.AccessModify)
	if got, err := c.Access(root, mask); err != nil || got != mask {
		t.Fatalf("ACCESS %#x: %#x, %v", mask, got, err)
	}
	before, err := c.FsStat(root)
	if err != nil {
		t.Fatal(err)
	}
	link, at, err := c.Symlink(root, "l", "/a/b/c")
	if err != nil || at.Type != attr.TypeLink || at.Size != uint64(len("/a/b/c")) {
		t.Fatalf("SYMLINK: %+v, %v", at, err)
	}
	if target, err := c.ReadLink(link); err != nil || target != "/a/b/c" {
		t.Fatalf("READLINK: %q, %v", target, err)
	}
	after, err := c.FsStat(root)
	if err != nil || after.FreeFiles != before.FreeFiles-1 || !after.Attr.Present {
		t.Fatalf("FSSTAT after a SYMLINK: %d free files (%d before), %v", after.FreeFiles, before.FreeFiles, err)
	}
	f, _, err := c.Create(root, "f", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadLink(f); !errors.Is(err, nfsproto.ErrInval.Error()) {
		t.Fatalf("READLINK of a regular file: %v, want EINVAL", err)
	}
}

// TestBaselineObserverRecordsServedCalls: with a registry attached by
// SetObs a served call is recorded under its op class; detached, it is
// not.
func TestBaselineObserverRecordsServedCalls(t *testing.T) {
	srv, c := newBaseline(t)
	reg := obs.NewRegistry("baseline")
	srv.SetObs(reg)
	name := obs.OpName(nfsproto.Program, uint32(nfsproto.ProcFsStat))
	count := func() uint64 { return reg.Snapshot().Hists[name].Count() }
	if _, err := c.FsStat(c.Root()); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 {
		t.Fatalf("%s recorded %d calls, want 1", name, n)
	}
	srv.SetObs(nil)
	if _, err := c.FsStat(c.Root()); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 {
		t.Fatalf("%s recorded %d calls after SetObs(nil), want still 1", name, n)
	}
}
