package dirsrv

import (
	"fmt"
	"testing"

	"strings"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/once"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/wal"
	"slice/internal/xdr"
)

// harness runs N directory servers and routes requests to them with the
// same policy code the µproxy uses, playing the µproxy's role for tests.
type harness struct {
	t       *testing.T
	net     *netsim.Network
	servers []*Server
	stores  []*wal.MemStore
	tees    []*teeStore // stores[i] beneath, and its full history
	table   *route.Table
	policy  *route.NamePolicy
	rpc     *oncrpc.Client // one client for every site, like the µproxy's
	root    fhandle.Handle
}

func newHarness(t *testing.T, n int, kind route.NameKind, p float64) *harness {
	t.Helper()
	return newHarnessOn(t, netsim.New(netsim.Config{}), n, kind, p)
}

// newHarnessOn is newHarness on a fabric of the caller's.
func newHarnessOn(t *testing.T, net *netsim.Network, n int, kind route.NameKind, p float64) *harness {
	t.Helper()
	h := &harness{t: t, net: net}
	cport, err := h.net.BindAny(200)
	if err != nil {
		t.Fatal(err)
	}
	h.rpc = oncrpc.NewClient(cport, netsim.Addr{}, oncrpc.ClientConfig{})
	var addrs []netsim.Addr
	for i := 0; i < n; i++ {
		addrs = append(addrs, netsim.Addr{Host: uint32(10 + i), Port: 2049})
	}
	h.table = route.NewTable(n, addrs)
	h.policy = route.NewNamePolicy(kind, p, h.table)
	for i := 0; i < n; i++ {
		port, err := h.net.Bind(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		tee := newTeeStore()
		store := tee.MemStore
		log, err := wal.Open(tee)
		if err != nil {
			t.Fatal(err)
		}
		h.tees = append(h.tees, tee)
		h.servers = append(h.servers, New(port, Config{
			Site: uint32(i), Volume: 1, Kind: kind, Table: h.table,
			Log: log, Net: h.net, Host: addrs[i].Host,
		}))
		h.stores = append(h.stores, store)
	}
	root, err := h.servers[0].CreateRoot()
	if err != nil {
		t.Fatal(err)
	}
	h.root = root
	t.Cleanup(func() {
		for _, s := range h.servers {
			s.Close()
		}
		h.rpc.Close()
	})
	return h
}

// call routes one NFS call by policy (as the µproxy would) and decodes.
func (h *harness) call(proc nfsproto.Proc, args nfsproto.Msg, res nfsproto.Msg) error {
	e := xdr.NewEncoder(256)
	args.Encode(e)
	info, err := nfsproto.ParseCall(proc, e.Bytes())
	if err != nil {
		return err
	}
	addr, err := h.policy.AddrFor(&info)
	if err != nil {
		return err
	}
	rep, err := h.rpc.CallTo(addr, nfsproto.Program, nfsproto.Version, uint32(proc), args.Encode)
	if err != nil {
		return err
	}
	return res.Decode(xdr.NewDecoder(rep.Body))
}

func (h *harness) mkdir(dir fhandle.Handle, name string) fhandle.Handle {
	h.t.Helper()
	var res nfsproto.CreateRes
	if err := h.call(nfsproto.ProcMkdir, &nfsproto.CreateArgs{Dir: dir, Name: name}, &res); err != nil {
		h.t.Fatalf("mkdir %s: %v", name, err)
	}
	if res.Status != nfsproto.OK {
		h.t.Fatalf("mkdir %s: %v", name, res.Status)
	}
	return res.FH
}

func (h *harness) create(dir fhandle.Handle, name string) fhandle.Handle {
	h.t.Helper()
	var res nfsproto.CreateRes
	if err := h.call(nfsproto.ProcCreate, &nfsproto.CreateArgs{Dir: dir, Name: name, Exclusive: true}, &res); err != nil {
		h.t.Fatalf("create %s: %v", name, err)
	}
	if res.Status != nfsproto.OK {
		h.t.Fatalf("create %s: %v", name, res.Status)
	}
	return res.FH
}

func (h *harness) lookup(dir fhandle.Handle, name string) (nfsproto.LookupRes, error) {
	var res nfsproto.LookupRes
	err := h.call(nfsproto.ProcLookup, &nfsproto.LookupArgs{Dir: dir, Name: name}, &res)
	return res, err
}

func (h *harness) getattr(fh fhandle.Handle) (nfsproto.GetAttrRes, error) {
	var res nfsproto.GetAttrRes
	err := h.call(nfsproto.ProcGetAttr, &nfsproto.GetAttrArgs{FH: fh}, &res)
	return res, err
}

func TestCreateLookupSingleSite(t *testing.T) {
	h := newHarness(t, 1, route.MkdirSwitching, 0)
	fh := h.create(h.root, "file")
	res, err := h.lookup(h.root, "file")
	if err != nil || res.Status != nfsproto.OK {
		t.Fatalf("lookup: %v %v", res.Status, err)
	}
	if res.FH != fh {
		t.Fatal("lookup returned a different handle")
	}
	if !res.Attr.Present || res.Attr.Attr.Type != attr.TypeReg {
		t.Fatalf("attrs: %+v", res.Attr)
	}
	if !res.DirAttr.Present {
		t.Fatal("dir attrs absent")
	}
}

func TestExclusiveCreateConflict(t *testing.T) {
	h := newHarness(t, 2, route.NameHashing, 0)
	h.create(h.root, "dup")
	var res nfsproto.CreateRes
	if err := h.call(nfsproto.ProcCreate, &nfsproto.CreateArgs{Dir: h.root, Name: "dup", Exclusive: true}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != nfsproto.ErrExist {
		t.Fatalf("second exclusive create: %v, want EEXIST", res.Status)
	}
	// Unchecked create returns the existing file.
	if err := h.call(nfsproto.ProcCreate, &nfsproto.CreateArgs{Dir: h.root, Name: "dup"}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != nfsproto.OK {
		t.Fatalf("unchecked create of existing: %v", res.Status)
	}
}

// TestOrphanMkdir exercises the two-site redirected-mkdir path: with P=1
// every mkdir is redirected, so child cells live away from the parent and
// lookups must follow cross-site references.
func TestOrphanMkdir(t *testing.T) {
	h := newHarness(t, 4, route.MkdirSwitching, 1.0)
	sub := h.mkdir(h.root, "away")
	if sub.Site == h.root.Site && h.table.NumLogical() > 1 {
		// With P=1 the target is hash-selected; it can land home, but
		// across several names at least one must move. Try more names.
		moved := false
		for i := 0; i < 8; i++ {
			d := h.mkdir(h.root, fmt.Sprintf("away%d", i))
			if d.Site != h.root.Site {
				moved = true
				break
			}
		}
		if !moved {
			t.Fatal("P=1 never redirected a mkdir off the parent site")
		}
	}
	// The entry lives at the parent's site; the cell at the child's.
	res, err := h.lookup(h.root, "away")
	if err != nil || res.Status != nfsproto.OK {
		t.Fatalf("lookup orphan: %v %v", res.Status, err)
	}
	if !res.Attr.Present || res.Attr.Attr.Type != attr.TypeDir {
		t.Fatal("orphan attrs not fetched across sites")
	}
	// Files created inside the orphan live at the orphan's site.
	f := h.create(sub, "inner")
	if f.Site != sub.Site {
		t.Fatalf("inner file minted at site %d, want orphan's site %d", f.Site, sub.Site)
	}
	ga, err := h.getattr(f)
	if err != nil || ga.Status != nfsproto.OK {
		t.Fatalf("getattr inner: %v %v", ga.Status, err)
	}
}

// TestParentNlinkTracksSubdirs: mkdir/rmdir adjust the parent link count
// even when the child is placed on another site.
func TestParentNlinkTracksSubdirs(t *testing.T) {
	h := newHarness(t, 3, route.MkdirSwitching, 1.0)
	base, _ := h.getattr(h.root)
	if base.Attr.Nlink != 2 {
		t.Fatalf("fresh root nlink %d", base.Attr.Nlink)
	}
	h.mkdir(h.root, "d1")
	h.mkdir(h.root, "d2")
	ga, _ := h.getattr(h.root)
	if ga.Attr.Nlink != 4 {
		t.Fatalf("root nlink after two mkdirs = %d, want 4", ga.Attr.Nlink)
	}
	var rm nfsproto.RemoveRes
	if err := h.call(nfsproto.ProcRmdir, &nfsproto.RemoveArgs{Dir: h.root, Name: "d1"}, &rm); err != nil || rm.Status != nfsproto.OK {
		t.Fatalf("rmdir: %v %v", rm.Status, err)
	}
	ga, _ = h.getattr(h.root)
	if ga.Attr.Nlink != 3 {
		t.Fatalf("root nlink after rmdir = %d, want 3", ga.Attr.Nlink)
	}
}

func TestRmdirNonEmptyOrphan(t *testing.T) {
	h := newHarness(t, 4, route.MkdirSwitching, 1.0)
	sub := h.mkdir(h.root, "busy")
	h.create(sub, "occupant")
	var rm nfsproto.RemoveRes
	if err := h.call(nfsproto.ProcRmdir, &nfsproto.RemoveArgs{Dir: h.root, Name: "busy"}, &rm); err != nil {
		t.Fatal(err)
	}
	if rm.Status != nfsproto.ErrNotEmpty {
		t.Fatalf("rmdir of occupied orphan: %v, want ENOTEMPTY", rm.Status)
	}
	// Lookup still works afterwards (nothing was half-removed).
	if res, err := h.lookup(h.root, "busy"); err != nil || res.Status != nfsproto.OK {
		t.Fatalf("dir damaged by failed rmdir: %v %v", res.Status, err)
	}
}

// TestNameHashingScattersEntries: with several sites, a directory's
// entries spread across servers, and readdir reassembles them all.
func TestNameHashingScattersEntries(t *testing.T) {
	const sites = 4
	h := newHarness(t, sites, route.NameHashing, 0)
	const files = 64
	for i := 0; i < files; i++ {
		h.create(h.root, fmt.Sprintf("f%03d", i))
	}
	// Entries must exist on more than one server.
	populated := 0
	for _, s := range h.servers {
		if len(s.localListDir(h.root.Ident())) > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("entries on %d sites, want scattered", populated)
	}
	// readdir spans sites (routed to the root's home site).
	var rd nfsproto.ReadDirRes
	if err := h.call(nfsproto.ProcReadDir, &nfsproto.ReadDirArgs{Dir: h.root, Count: 1 << 20}, &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Status != nfsproto.OK || len(rd.Entries) != files || !rd.EOF {
		t.Fatalf("readdir: %v, %d entries, eof=%v", rd.Status, len(rd.Entries), rd.EOF)
	}
	// Sorted merge.
	for i := 1; i < len(rd.Entries); i++ {
		if rd.Entries[i-1].Name >= rd.Entries[i].Name {
			t.Fatal("readdir not sorted across sites")
		}
	}
}

func TestNameHashingRemoveAndRmdir(t *testing.T) {
	h := newHarness(t, 4, route.NameHashing, 0)
	d := h.mkdir(h.root, "dir")
	h.create(d, "f1")
	var rm nfsproto.RemoveRes
	// Non-empty rmdir fails after a global count.
	if err := h.call(nfsproto.ProcRmdir, &nfsproto.RemoveArgs{Dir: h.root, Name: "dir"}, &rm); err != nil {
		t.Fatal(err)
	}
	if rm.Status != nfsproto.ErrNotEmpty {
		t.Fatalf("rmdir: %v", rm.Status)
	}
	if err := h.call(nfsproto.ProcRemove, &nfsproto.RemoveArgs{Dir: d, Name: "f1"}, &rm); err != nil || rm.Status != nfsproto.OK {
		t.Fatalf("remove: %v %v", rm.Status, err)
	}
	if err := h.call(nfsproto.ProcRmdir, &nfsproto.RemoveArgs{Dir: h.root, Name: "dir"}, &rm); err != nil || rm.Status != nfsproto.OK {
		t.Fatalf("rmdir empty: %v %v", rm.Status, err)
	}
}

func TestRenameAcrossSites(t *testing.T) {
	h := newHarness(t, 4, route.NameHashing, 0)
	da := h.mkdir(h.root, "da")
	db := h.mkdir(h.root, "db")
	child := h.create(da, "move-me")
	var rn nfsproto.RenameRes
	err := h.call(nfsproto.ProcRename, &nfsproto.RenameArgs{
		FromDir: da, FromName: "move-me", ToDir: db, ToName: "moved",
	}, &rn)
	if err != nil || rn.Status != nfsproto.OK {
		t.Fatalf("rename: %v %v", rn.Status, err)
	}
	if res, _ := h.lookup(da, "move-me"); res.Status != nfsproto.ErrNoEnt {
		t.Fatalf("source name survives rename: %v", res.Status)
	}
	res, err := h.lookup(db, "moved")
	if err != nil || res.Status != nfsproto.OK {
		t.Fatalf("target lookup: %v %v", res.Status, err)
	}
	if res.FH.Ident() != child.Ident() {
		t.Fatal("rename changed identity")
	}
}

func TestRenameOntoExistingRejected(t *testing.T) {
	h := newHarness(t, 2, route.NameHashing, 0)
	h.create(h.root, "a")
	h.create(h.root, "b")
	var rn nfsproto.RenameRes
	if err := h.call(nfsproto.ProcRename, &nfsproto.RenameArgs{
		FromDir: h.root, FromName: "a", ToDir: h.root, ToName: "b",
	}, &rn); err != nil {
		t.Fatal(err)
	}
	if rn.Status != nfsproto.ErrExist {
		t.Fatalf("rename onto existing: %v, want EEXIST (documented deviation)", rn.Status)
	}
}

func TestLinkAcrossSites(t *testing.T) {
	h := newHarness(t, 4, route.NameHashing, 0)
	f := h.create(h.root, "orig")
	var lr nfsproto.LinkRes
	if err := h.call(nfsproto.ProcLink, &nfsproto.LinkArgs{FH: f, Dir: h.root, Name: "alias"}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Status != nfsproto.OK {
		t.Fatalf("link: %v", lr.Status)
	}
	ga, _ := h.getattr(f)
	if ga.Attr.Nlink != 2 {
		t.Fatalf("nlink = %d after link", ga.Attr.Nlink)
	}
	// Removing the original keeps the alias resolvable.
	var rm nfsproto.RemoveRes
	if err := h.call(nfsproto.ProcRemove, &nfsproto.RemoveArgs{Dir: h.root, Name: "orig"}, &rm); err != nil || rm.Status != nfsproto.OK {
		t.Fatalf("remove: %v %v", rm.Status, err)
	}
	res, err := h.lookup(h.root, "alias")
	if err != nil || res.Status != nfsproto.OK {
		t.Fatalf("alias lookup: %v %v", res.Status, err)
	}
	if !res.Attr.Present || res.Attr.Attr.Nlink != 1 {
		t.Fatalf("alias nlink: %+v", res.Attr)
	}
}

func TestLinkToDirectoryRejected(t *testing.T) {
	h := newHarness(t, 2, route.MkdirSwitching, 0)
	d := h.mkdir(h.root, "dir")
	var lr nfsproto.LinkRes
	if err := h.call(nfsproto.ProcLink, &nfsproto.LinkArgs{FH: d, Dir: h.root, Name: "dirlink"}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Status != nfsproto.ErrIsDir {
		t.Fatalf("link to directory: %v, want EISDIR", lr.Status)
	}
}

func TestSetAttrAndStaleHandles(t *testing.T) {
	h := newHarness(t, 2, route.MkdirSwitching, 0)
	f := h.create(h.root, "f")
	var sr nfsproto.SetAttrRes
	err := h.call(nfsproto.ProcSetAttr, &nfsproto.SetAttrArgs{
		FH: f, Sattr: attr.SetAttr{SetSize: true, Size: 4096, SetMode: true, Mode: 0o600},
	}, &sr)
	if err != nil || sr.Status != nfsproto.OK {
		t.Fatalf("setattr: %v %v", sr.Status, err)
	}
	if sr.Attr.Attr.Size != 4096 || sr.Attr.Attr.Mode != 0o600 {
		t.Fatalf("attrs after setattr: %+v", sr.Attr.Attr)
	}
	// A handle with a wrong generation is stale.
	bad := f
	bad.Gen++
	ga, _ := h.getattr(bad)
	if ga.Status != nfsproto.ErrStale {
		t.Fatalf("stale-gen getattr: %v", ga.Status)
	}
}

func TestMisroutedRequestDetected(t *testing.T) {
	h := newHarness(t, 2, route.MkdirSwitching, 0)
	// Send a create for a site-0 parent directly to site 1, simulating a
	// stale routing table in the µproxy.
	wrong := h.servers[1].Addr()
	args := nfsproto.CreateArgs{Dir: h.root, Name: "lost", Exclusive: true}
	rep, err := h.rpc.CallTo(wrong, nfsproto.Program, nfsproto.Version,
		uint32(nfsproto.ProcCreate), args.Encode)
	if err != nil {
		t.Fatal(err)
	}
	var res nfsproto.CreateRes
	if err := res.Decode(xdr.NewDecoder(rep.Body)); err != nil {
		t.Fatal(err)
	}
	if res.Status != nfsproto.ErrMisrouted {
		t.Fatalf("misrouted create: %v, want EMISROUTED", res.Status)
	}
}

// TestRecoveryFromSnapshotAndLog is the failover path: rebuild a dir
// server from its compacted journal plus the durable suffix.
func TestRecoveryFromSnapshotAndLog(t *testing.T) {
	h := newHarness(t, 1, route.MkdirSwitching, 0)
	s := h.servers[0]
	d := h.mkdir(h.root, "pre-snapshot")
	if err := s.Log().Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// More activity after the checkpoint, journaled only.
	h.create(d, "post-snapshot-file")

	// Failover: fresh server replaying the crashed (durable) log.
	crashedLog, err := wal.Open(h.stores[0].CrashCopy())
	if err != nil {
		t.Fatal(err)
	}
	net2 := netsim.New(netsim.Config{})
	port, _ := net2.Bind(netsim.Addr{Host: 10, Port: 2049})
	freshStore := wal.NewMemStore()
	freshLog, _ := wal.Open(freshStore)
	s2 := New(port, Config{
		Site: 0, Volume: 1, Kind: route.MkdirSwitching,
		Table: h.table, Log: freshLog, Net: net2, Host: 10,
	})
	defer s2.Close()
	if err := s2.replayLog(crashedLog); err != nil {
		t.Fatalf("replay: %v", err)
	}

	// The recovered server resolves both pre- and post-snapshot state.
	s2.SetRoot(h.root)
	st, at := s2.localGetAttrByKey(d.FileID)
	if st != nfsproto.OK || at.Type != attr.TypeDir {
		t.Fatalf("pre-snapshot dir missing after recovery: %v", st)
	}
	if got := s2.localListDir(d.Ident()); len(got) != 1 || got[0].name != "post-snapshot-file" {
		t.Fatalf("post-snapshot entry missing after recovery: %+v", got)
	}
}

func TestRecoveryIdempotentReplay(t *testing.T) {
	h := newHarness(t, 1, route.MkdirSwitching, 0)
	s := h.servers[0]
	h.create(h.root, "a")
	h.mkdir(h.root, "b")
	// Recover onto an empty state from the full log — then replay the
	// same log again over the recovered state.
	log, _ := wal.Open(h.stores[0].CrashCopy())
	if err := recoverFresh(s, log); err != nil {
		t.Fatal(err)
	}
	if err := s.replayLog(log); err != nil {
		t.Fatal(err)
	}
	ents := s.localListDir(h.root.Ident())
	if len(ents) != 2 {
		t.Fatalf("%d entries after double replay, want 2", len(ents))
	}
}

// recoverFresh rebuilds s from log onto an empty state, as Restart does.
func recoverFresh(s *Server, log *wal.Log) error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.state = state{}
		sh.init(i, sh.log, sh.total)
		sh.unlock()
	}
	return s.replayLog(log)
}

func TestCountersTrackCrossSite(t *testing.T) {
	h := newHarness(t, 4, route.NameHashing, 0)
	for i := 0; i < 16; i++ {
		h.create(h.root, fmt.Sprintf("x%d", i))
	}
	var cross uint64
	for _, s := range h.servers {
		cross += s.Counters().CrossSite
	}
	if cross == 0 {
		t.Fatal("no cross-site operations counted under name hashing")
	}
}

func TestMountProgram(t *testing.T) {
	h := newHarness(t, 2, route.MkdirSwitching, 0)
	rep, err := h.rpc.CallTo(h.servers[0].Addr(), MountProgram, MountVersion, MountProcMnt, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := xdr.NewDecoder(rep.Body)
	st, _ := d.Uint32()
	if nfsproto.Status(st) != nfsproto.OK {
		t.Fatalf("mount: %v", nfsproto.Status(st))
	}
	fh, err := fhandle.Decode(d)
	if err != nil || fh != h.root {
		t.Fatalf("mount handle %v, %v", fh, err)
	}
}

// TestCheckCleanAfterWorkload: after a busy mixed workload across sites
// and policies, the distributed name space satisfies every invariant.
func TestCheckCleanAfterWorkload(t *testing.T) {
	for _, kind := range []route.NameKind{route.MkdirSwitching, route.NameHashing} {
		t.Run(kind.String(), func(t *testing.T) {
			h := newHarness(t, 4, kind, 0.6)
			// Build, link, rename, remove.
			var dirs []fhandle.Handle
			dirs = append(dirs, h.root)
			for i := 0; i < 10; i++ {
				d := h.mkdir(dirs[i%len(dirs)], fmt.Sprintf("dir%d", i))
				dirs = append(dirs, d)
			}
			var files []struct {
				dir  fhandle.Handle
				name string
				fh   fhandle.Handle
			}
			for i := 0; i < 40; i++ {
				dir := dirs[i%len(dirs)]
				name := fmt.Sprintf("f%d", i)
				fh := h.create(dir, name)
				files = append(files, struct {
					dir  fhandle.Handle
					name string
					fh   fhandle.Handle
				}{dir, name, fh})
			}
			// Hard links across directories.
			for i := 0; i < 10; i++ {
				f := files[i]
				target := dirs[(i+3)%len(dirs)]
				var lr nfsproto.LinkRes
				if err := h.call(nfsproto.ProcLink, &nfsproto.LinkArgs{
					FH: f.fh, Dir: target, Name: fmt.Sprintf("ln%d", i),
				}, &lr); err != nil || lr.Status != nfsproto.OK {
					t.Fatalf("link %d: %v %v", i, lr.Status, err)
				}
			}
			// Renames.
			for i := 10; i < 20; i++ {
				f := files[i]
				target := dirs[(i+5)%len(dirs)]
				var rn nfsproto.RenameRes
				if err := h.call(nfsproto.ProcRename, &nfsproto.RenameArgs{
					FromDir: f.dir, FromName: f.name,
					ToDir: target, ToName: fmt.Sprintf("mv%d", i),
				}, &rn); err != nil || rn.Status != nfsproto.OK {
					t.Fatalf("rename %d: %v %v", i, rn.Status, err)
				}
			}
			// Removes.
			for i := 20; i < 30; i++ {
				f := files[i]
				var rm nfsproto.RemoveRes
				if err := h.call(nfsproto.ProcRemove, &nfsproto.RemoveArgs{
					Dir: f.dir, Name: f.name,
				}, &rm); err != nil || rm.Status != nfsproto.OK {
					t.Fatalf("remove %d: %v %v", i, rm.Status, err)
				}
			}
			if problems := Check(h.servers, h.root); len(problems) != 0 {
				t.Fatalf("integrity violations after workload:\n%s",
					strings.Join(problems, "\n"))
			}
		})
	}
}

// TestCheckDetectsCorruption: the checker actually notices damage.
func TestCheckDetectsCorruption(t *testing.T) {
	h := newHarness(t, 2, route.MkdirSwitching, 0)
	h.create(h.root, "f")
	s := h.servers[0]
	// Damage: delete the attr cell behind the entry.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id, c := range sh.attrs {
			if c.at.Type == attr.TypeReg {
				delete(sh.attrs, id)
			}
		}
		sh.mu.Unlock()
	}
	if problems := Check(h.servers, h.root); len(problems) == 0 {
		t.Fatal("checker missed a dangling name cell")
	}
}

// TestCheckCleanAfterFailedOrphanMkdir: when the two-site redirected
// mkdir aborts (name collision at the parent), the coordinator site must
// roll back its local cell — no orphan survives.
func TestCheckCleanAfterFailedOrphanMkdir(t *testing.T) {
	h := newHarness(t, 4, route.MkdirSwitching, 1.0)
	h.mkdir(h.root, "taken")
	// Second mkdir of the same name must fail cleanly wherever it routes.
	var res nfsproto.CreateRes
	if err := h.call(nfsproto.ProcMkdir, &nfsproto.CreateArgs{Dir: h.root, Name: "taken"}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != nfsproto.ErrExist {
		t.Fatalf("duplicate mkdir: %v, want EEXIST", res.Status)
	}
	if problems := Check(h.servers, h.root); len(problems) != 0 {
		t.Fatalf("aborted orphan mkdir left damage:\n%s", strings.Join(problems, "\n"))
	}
}

// TestConcurrentExclusiveCreates: racing exclusive creates of one name
// from many clients yield exactly one winner and a consistent name space.
func TestConcurrentExclusiveCreates(t *testing.T) {
	for _, kind := range []route.NameKind{route.MkdirSwitching, route.NameHashing} {
		t.Run(kind.String(), func(t *testing.T) {
			h := newHarness(t, 3, kind, 0.5)
			const racers = 8
			results := make(chan nfsproto.Status, racers)
			for i := 0; i < racers; i++ {
				port, err := h.net.BindAny(uint32(210 + i))
				if err != nil {
					t.Fatal(err)
				}
				// Route as the µproxy would, per racer.
				args := nfsproto.CreateArgs{Dir: h.root, Name: "contested", Exclusive: true}
				e := xdr.NewEncoder(256)
				args.Encode(e)
				info, err := nfsproto.ParseCall(nfsproto.ProcCreate, e.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				addr, err := h.policy.AddrFor(&info)
				if err != nil {
					t.Fatal(err)
				}
				cli := oncrpc.NewClient(port, addr, oncrpc.ClientConfig{})
				defer cli.Close()
				go func() {
					body, err := cli.Call(nfsproto.Program, nfsproto.Version,
						uint32(nfsproto.ProcCreate), args.Encode)
					if err != nil {
						results <- nfsproto.ErrServerFault
						return
					}
					var res nfsproto.CreateRes
					if err := res.Decode(xdr.NewDecoder(body)); err != nil {
						results <- nfsproto.ErrServerFault
						return
					}
					results <- res.Status
				}()
			}
			winners, losers := 0, 0
			for i := 0; i < racers; i++ {
				switch <-results {
				case nfsproto.OK:
					winners++
				case nfsproto.ErrExist:
					losers++
				default:
					t.Fatal("unexpected status in create race")
				}
			}
			if winners != 1 || losers != racers-1 {
				t.Fatalf("%d winners, %d losers; want exactly 1 winner", winners, losers)
			}
			if problems := Check(h.servers, h.root); len(problems) != 0 {
				t.Fatalf("race left damage:\n%s", strings.Join(problems, "\n"))
			}
		})
	}
}

// TestReadDirPagingAcrossSites: READDIR with a small byte budget pages
// through a scattered (name-hashed) directory with stable cookies.
func TestReadDirPagingAcrossSites(t *testing.T) {
	h := newHarness(t, 4, route.NameHashing, 0)
	const files = 40
	for i := 0; i < files; i++ {
		h.create(h.root, fmt.Sprintf("page%03d", i))
	}
	var got []string
	var cookie uint64
	pages := 0
	for {
		var rd nfsproto.ReadDirRes
		if err := h.call(nfsproto.ProcReadDir, &nfsproto.ReadDirArgs{
			Dir: h.root, Cookie: cookie, Count: 256, // tiny budget forces paging
		}, &rd); err != nil {
			t.Fatal(err)
		}
		if rd.Status != nfsproto.OK {
			t.Fatalf("page %d: %v", pages, rd.Status)
		}
		for _, ent := range rd.Entries {
			got = append(got, ent.Name)
		}
		pages++
		if rd.EOF {
			break
		}
		if len(rd.Entries) == 0 {
			t.Fatal("empty non-EOF page")
		}
		cookie = rd.Entries[len(rd.Entries)-1].Cookie
		if pages > files {
			t.Fatal("paging did not terminate")
		}
	}
	if pages < 3 {
		t.Fatalf("expected multiple pages, got %d", pages)
	}
	if len(got) != files {
		t.Fatalf("paged readdir returned %d entries, want %d", len(got), files)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("paged entries out of order at %d: %q >= %q", i, got[i-1], got[i])
		}
	}
	// A bogus cookie is rejected.
	var rd nfsproto.ReadDirRes
	if err := h.call(nfsproto.ProcReadDir, &nfsproto.ReadDirArgs{
		Dir: h.root, Cookie: 1 << 40, Count: 1024,
	}, &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Status != nfsproto.ErrBadCookie {
		t.Fatalf("bogus cookie: %v, want EBADCOOKIE", rd.Status)
	}
}

// TestSymlinkRoutesAndRecovers: symlink cells work across both policies
// at the dirsrv level, including log replay.
func TestSymlinkCellsAndReplay(t *testing.T) {
	h := newHarness(t, 2, route.MkdirSwitching, 0)
	var res nfsproto.CreateRes
	if err := h.call(nfsproto.ProcSymlink, &nfsproto.SymlinkArgs{
		Dir: h.root, Name: "ln", Target: "/the/target",
	}, &res); err != nil || res.Status != nfsproto.OK {
		t.Fatalf("symlink: %v %v", res.Status, err)
	}
	// Replay from the durable log onto a fresh state.
	log, err := wal.Open(h.stores[0].CrashCopy())
	if err != nil {
		t.Fatal(err)
	}
	if err := recoverFresh(h.servers[0], log); err != nil {
		t.Fatal(err)
	}
	var rl nfsproto.ReadLinkRes
	if err := h.call(nfsproto.ProcReadLink, &nfsproto.ReadLinkArgs{FH: res.FH}, &rl); err != nil {
		t.Fatal(err)
	}
	if rl.Status != nfsproto.OK || rl.Target != "/the/target" {
		t.Fatalf("readlink after replay: %v %q", rl.Status, rl.Target)
	}
}

// TestChildAttrCopiesUnderLock: a LOOKUP's attribute read of the child's
// cell must not race a concurrent SETATTR of the same cell (run under
// -race, which is what reports the unlocked read).
func TestChildAttrCopiesUnderLock(t *testing.T) {
	h := newHarness(t, 1, route.MkdirSwitching, 0)
	f := h.create(h.root, "f")
	s := h.servers[0]
	const rounds = 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			s.localSetAttrByKey(f.FileID, &attr.SetAttr{SetSize: true, Size: uint64(i)}, once.Ident{})
		}
	}()
	for i := 0; i < rounds; i++ {
		if !s.childAttr(f).Present {
			t.Error("resident child cell reported absent")
			break
		}
	}
	<-done
}

// TestBareServerCloses: a directory server built without a fabric for
// peer calls — it never makes one — closes without building a client.
func TestBareServerCloses(t *testing.T) {
	port, err := netsim.New(netsim.Config{}).BindAny(1)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(wal.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	s := New(port, Config{Site: 0, Volume: 1, Kind: route.MkdirSwitching,
		Table: route.NewTable(1, []netsim.Addr{port.Addr()}), Log: log})
	s.Close()
}
