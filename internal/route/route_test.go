package route

import (
	"math"
	"slices"
	"testing"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/replica"
)

func addrs(n int) []netsim.Addr {
	out := make([]netsim.Addr, n)
	for i := range out {
		out[i] = netsim.Addr{Host: uint32(10 + i), Port: 2049}
	}
	return out
}

func regFH(id uint64, site uint32) fhandle.Handle {
	return fhandle.Handle{Volume: 1, FileID: id, Type: 1, CellKey: id, Site: site, Gen: 1}
}

// stripeSite is the logical storage site holding one stripe of fh.
func stripeSite(p *IOPolicy, fh fhandle.Handle, stripe uint64) uint32 {
	return p.Storage.Site(stripeKey(fh, stripe))
}

func TestTableBasics(t *testing.T) {
	tb := NewTable(8, addrs(3))
	if tb.NumLogical() != 8 {
		t.Fatalf("logical sites = %d", tb.NumLogical())
	}
	for key := uint64(0); key < 100; key++ {
		site := tb.Site(key)
		if site >= 8 {
			t.Fatalf("site %d out of range", site)
		}
		a, err := tb.Lookup(site)
		if err != nil {
			t.Fatal(err)
		}
		want := addrs(3)[site%3]
		if a != want {
			t.Fatalf("site %d -> %v, want %v", site, a, want)
		}
	}
}

func TestTableRaisesLogicalToPhysical(t *testing.T) {
	tb := NewTable(2, addrs(5))
	if tb.NumLogical() != 5 {
		t.Fatalf("logical %d, want raised to 5", tb.NumLogical())
	}
}

func TestEmptyTable(t *testing.T) {
	tb := NewTable(4, nil)
	if _, err := tb.Lookup(0); err == nil {
		t.Fatal("empty table lookup succeeded")
	}
}

// TestSwapPreservesKeys is the reconfiguration property of §3.3.1: after
// rebinding physical servers, a key maps to the same logical site.
func TestSwapPreservesKeys(t *testing.T) {
	tb := NewTable(16, addrs(4))
	var sites []uint32
	for key := uint64(0); key < 64; key++ {
		sites = append(sites, tb.Site(key))
	}
	v1 := tb.Version()
	tb.Swap(addrs(8))
	if tb.Version() == v1 {
		t.Fatal("version unchanged by swap")
	}
	if tb.NumLogical() != 16 {
		t.Fatalf("swap changed logical sites to %d", tb.NumLogical())
	}
	for key := uint64(0); key < 64; key++ {
		if tb.Site(key) != sites[key] {
			t.Fatalf("key %d moved logical site after swap", key)
		}
	}
}

func TestNumPhysicalDeduplicates(t *testing.T) {
	// 8 logical sites over 3 physical nodes: width is 3, not 8.
	tb := NewTable(8, addrs(3))
	if n := tb.NumPhysical(); n != 3 {
		t.Fatalf("NumPhysical = %d, want 3", n)
	}
	if n := NewTable(4, nil).NumPhysical(); n != 0 {
		t.Fatalf("empty table NumPhysical = %d, want 0", n)
	}
}

func TestWindowFor(t *testing.T) {
	p := NewIOPolicy(nil, NewTable(8, addrs(4)))
	if w := p.WindowFor(4); w != 16 {
		t.Fatalf("WindowFor(4) over 4 nodes = %d, want 16", w)
	}
	if w := p.WindowFor(0); w != 4 {
		t.Fatalf("WindowFor(0) = %d, want 4 (per-node floor of 1)", w)
	}
	empty := NewIOPolicy(nil, NewTable(4, nil))
	if w := empty.WindowFor(4); w != 4 {
		t.Fatalf("WindowFor(4) over empty table = %d, want 4", w)
	}
}

func TestIOPolicyThreshold(t *testing.T) {
	p := NewIOPolicy(NewTable(2, addrs(2)), NewTable(4, addrs(4)))
	if !p.SmallFileTarget(0) || !p.SmallFileTarget(DefaultThreshold-1) {
		t.Fatal("offsets below threshold not sent to small-file servers")
	}
	if p.SmallFileTarget(DefaultThreshold) {
		t.Fatal("threshold offset sent to small-file server")
	}
	// Without small-file servers everything goes to storage.
	p2 := NewIOPolicy(nil, NewTable(4, addrs(4)))
	if p2.SmallFileTarget(0) {
		t.Fatal("no small-file servers configured but target selected")
	}
}

func TestSmallFileServerStableForFile(t *testing.T) {
	p := NewIOPolicy(NewTable(4, addrs(4)), NewTable(4, addrs(4)))
	fh := regFH(77, 0)
	a1, err := p.SmallFileServer(fh)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := p.SmallFileServer(fh)
	if a1 != a2 {
		t.Fatal("small-file server changed between calls")
	}
}

func TestStripingDeclusters(t *testing.T) {
	p := NewIOPolicy(nil, NewTable(8, addrs(8)))
	fh := regFH(42, 0)
	seen := make(map[uint32]bool)
	for stripe := uint64(0); stripe < 16; stripe++ {
		seen[stripeSite(p, fh, stripe)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("16 stripes used only %d of 8 sites", len(seen))
	}
	// Consecutive stripes land on different sites.
	s0 := stripeSite(p, fh, 0)
	s1 := stripeSite(p, fh, 1)
	if s0 == s1 {
		t.Fatal("consecutive stripes colocated")
	}
}

func TestDifferentFilesStartDifferently(t *testing.T) {
	p := NewIOPolicy(nil, NewTable(8, addrs(8)))
	starts := make(map[uint32]int)
	for id := uint64(1); id <= 64; id++ {
		starts[stripeSite(p, regFH(id, 0), 0)]++
	}
	if len(starts) < 4 {
		t.Fatalf("64 files start on only %d sites", len(starts))
	}
}

// TestMirroredPlacement: mirroring is a k = 2 replica-group policy. The
// storage table routes to group primaries; a write reaches both members
// of the stripe's group, and a read resolves to its primary (spreading
// over members is the µproxy's choice, guarded by its dirty set).
func TestMirroredPlacement(t *testing.T) {
	all := addrs(4)
	reps := replica.NewMap(2, all)
	p := NewIOPolicy(nil, NewTable(2, []netsim.Addr{all[0], all[2]}))
	p.Replicas = reps
	fh := regFH(5, 0)
	primaries := map[netsim.Addr]bool{}
	for stripe := uint64(0); stripe < 8; stripe++ {
		targets, err := p.WriteTargets(fh, stripe)
		if err != nil || len(targets) != 2 || targets[0] == targets[1] {
			t.Fatalf("stripe %d write targets: %v, %v", stripe, targets, err)
		}
		g, ok := reps.GroupOf(targets[0])
		if !ok || g.Members[1] != targets[1] {
			t.Fatalf("stripe %d: targets %v are not one group", stripe, targets)
		}
		r, err := p.ReadTarget(fh, stripe)
		if err != nil || r != targets[0] {
			t.Fatalf("stripe %d read target %v, want primary %v (%v)", stripe, r, targets[0], err)
		}
		primaries[r] = true
	}
	if len(primaries) != 2 {
		t.Fatalf("8 stripes read from %d of 2 groups", len(primaries))
	}
}

// TestReplicationDegreeClampedToArray: a degree larger than the array
// makes one group of every node, never a member twice.
func TestReplicationDegreeClampedToArray(t *testing.T) {
	all := addrs(2)
	p := NewIOPolicy(nil, NewTable(1, all[:1]))
	p.Replicas = replica.NewMap(8, all)
	targets, err := p.WriteTargets(regFH(5, 0), 0)
	if err != nil || len(targets) != 2 || targets[0] == targets[1] {
		t.Fatalf("degree clamp: %v from a 2-node array (%v)", targets, err)
	}
}

func TestSpanStripes(t *testing.T) {
	p := NewIOPolicy(nil, NewTable(4, addrs(4)))
	first, last := p.SpanStripes(0, 32768)
	if first != 0 || last != 0 {
		t.Fatalf("aligned 32K: %d..%d", first, last)
	}
	first, last = p.SpanStripes(32768, 32768)
	if first != 1 || last != 1 {
		t.Fatalf("second unit: %d..%d", first, last)
	}
	first, last = p.SpanStripes(1000, 64*1024)
	if first != 0 || last != 2 {
		t.Fatalf("unaligned span: %d..%d", first, last)
	}
	first, last = p.SpanStripes(5000, 0)
	if first != last {
		t.Fatalf("zero-length span: %d..%d", first, last)
	}
}

func mkInfo(proc nfsproto.Proc, parent fhandle.Handle, name string) nfsproto.RequestInfo {
	return nfsproto.RequestInfo{Proc: proc, FH: parent, Name: name, HasName: name != ""}
}

func TestMkdirSwitchingParentAffinity(t *testing.T) {
	np := NewNamePolicy(MkdirSwitching, 0, NewTable(4, addrs(4)))
	parent := regFH(100, 2)
	// Non-mkdir ops always go to the parent's site.
	for _, proc := range []nfsproto.Proc{nfsproto.ProcLookup, nfsproto.ProcCreate, nfsproto.ProcRemove} {
		info := mkInfo(proc, parent, "n")
		site, orphan := np.SiteFor(&info)
		if site != 2 || orphan {
			t.Fatalf("%v routed to %d (orphan=%v), want parent site 2", proc, site, orphan)
		}
	}
	// With P=0 mkdirs stay home too.
	info := mkInfo(nfsproto.ProcMkdir, parent, "sub")
	if site, _ := np.SiteFor(&info); site != 2 {
		t.Fatalf("P=0 mkdir redirected to %d", site)
	}
}

func TestMkdirSwitchingRedirectionRate(t *testing.T) {
	for _, p := range []float64{0.25, 0.5, 1.0} {
		np := NewNamePolicy(MkdirSwitching, p, NewTable(8, addrs(8)))
		parent := regFH(100, 1)
		redirected := 0
		const n = 4000
		for i := 0; i < n; i++ {
			info := mkInfo(nfsproto.ProcMkdir, parent, "dir"+string(rune(i))+string(rune(i>>8)))
			if _, orphan := np.SiteFor(&info); orphan {
				redirected++
			}
		}
		got := float64(redirected) / n
		// The decision hashes to "redirect" with probability p, but a
		// redirect landing back on the parent site is not an orphan, so
		// expect p*(L-1)/L with L=8 logical sites.
		want := p * 7 / 8
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("P=%.2f: redirect fraction %.3f, want ≈%.3f", p, got, want)
		}
	}
}

func TestMkdirSwitchingDeterministic(t *testing.T) {
	np := NewNamePolicy(MkdirSwitching, 0.5, NewTable(8, addrs(8)))
	parent := regFH(100, 1)
	info := mkInfo(nfsproto.ProcMkdir, parent, "the-dir")
	s1, o1 := np.SiteFor(&info)
	for i := 0; i < 10; i++ {
		s2, o2 := np.SiteFor(&info)
		if s1 != s2 || o1 != o2 {
			t.Fatal("mkdir routing not deterministic for identical requests")
		}
	}
}

func TestNameHashingConflictsColocate(t *testing.T) {
	np := NewNamePolicy(NameHashing, 0, NewTable(8, addrs(8)))
	parent := regFH(100, 3)
	// create/remove/lookup of the same name must hash to the same site.
	procs := []nfsproto.Proc{nfsproto.ProcCreate, nfsproto.ProcRemove, nfsproto.ProcLookup}
	var first uint32
	for i, proc := range procs {
		info := mkInfo(proc, parent, "contested")
		site, _ := np.SiteFor(&info)
		if i == 0 {
			first = site
		} else if site != first {
			t.Fatalf("%v hashed to %d, create to %d", proc, site, first)
		}
	}
	// Handle-keyed ops go to the handle's site.
	info := nfsproto.RequestInfo{Proc: nfsproto.ProcGetAttr, FH: parent}
	if site, _ := np.SiteFor(&info); site != 3 {
		t.Fatalf("getattr routed to %d, want handle site", site)
	}
}

func TestNameHashingBalance(t *testing.T) {
	const sites = 8
	np := NewNamePolicy(NameHashing, 0, NewTable(sites, addrs(sites)))
	parent := regFH(100, 0)
	counts := make([]int, sites)
	const names = 8000
	for i := 0; i < names; i++ {
		info := mkInfo(nfsproto.ProcCreate, parent, "f"+string(rune(i))+string(rune(i>>8)))
		site, _ := np.SiteFor(&info)
		counts[site]++
	}
	mean := names / sites
	for s, c := range counts {
		if c < mean*7/10 || c > mean*13/10 {
			t.Fatalf("site %d holds %d names (mean %d): unbalanced", s, c, mean)
		}
	}
}

func TestNameHashingLinkRoutesToNewEntry(t *testing.T) {
	np := NewNamePolicy(NameHashing, 0, NewTable(8, addrs(8)))
	info := nfsproto.RequestInfo{
		Proc: nfsproto.ProcLink,
		FH:   regFH(5, 1),
		FH2:  regFH(6, 2), HasFH2: true,
		Name2: "newname", HasName2: true,
	}
	site, _ := np.SiteFor(&info)
	want := np.Dirs.Site(fhandle.NameKey(fhandle.Handle{Volume: 1, FileID: 6, Gen: 1}, "newname"))
	if site != want {
		t.Fatalf("link routed to %d, want new-entry site %d", site, want)
	}
}

func TestRedirectStats(t *testing.T) {
	np := NewNamePolicy(MkdirSwitching, 1.0, NewTable(8, addrs(8)))
	parent := regFH(1, 0)
	for i := 0; i < 100; i++ {
		info := mkInfo(nfsproto.ProcMkdir, parent, "d"+string(rune(i)))
		np.SiteFor(&info)
	}
	mkdirs, redirects := np.RedirectStats()
	if mkdirs != 100 {
		t.Fatalf("mkdirs = %d", mkdirs)
	}
	if redirects < 75 { // 1/8 of hash targets land home and do not count
		t.Fatalf("redirects = %d with P=1", redirects)
	}
}

func TestAddrFor(t *testing.T) {
	np := NewNamePolicy(MkdirSwitching, 0, NewTable(4, addrs(4)))
	info := mkInfo(nfsproto.ProcLookup, regFH(9, 1), "x")
	a, err := np.AddrFor(&info)
	if err != nil {
		t.Fatal(err)
	}
	if a != addrs(4)[1] {
		t.Fatalf("AddrFor = %v", a)
	}
}

// TestAppendWriteTargetsIntoCallersBuffer: AppendWriteTargets appends the
// targets WriteTargets returns to the caller's buffer, so a caller with
// room on its stack — the µproxy, for every WRITE — routes a write without
// allocating.
func TestAppendWriteTargetsIntoCallersBuffer(t *testing.T) {
	all := addrs(4)
	p := NewIOPolicy(nil, NewTable(2, []netsim.Addr{all[0], all[2]}))
	p.Replicas = replica.NewMap(2, all)
	fh := regFH(5, 0)
	var buf [4]netsim.Addr
	for stripe := uint64(0); stripe < 4; stripe++ {
		want, err := p.WriteTargets(fh, stripe)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.AppendWriteTargets(buf[:0], fh, stripe)
		if err != nil || !slices.Equal(got, want) || &got[0] != &buf[0] {
			t.Fatalf("stripe %d: appended %v (%v), want %v in the caller's buffer", stripe, got, err, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = p.AppendWriteTargets(buf[:0], fh, 1) }); n != 0 {
		t.Fatalf("AppendWriteTargets into a buffer with room allocates %v times", n)
	}
	if _, err := NewIOPolicy(nil, NewTable(0, nil)).AppendWriteTargets(buf[:0], fh, 0); err == nil {
		t.Fatal("an empty table routed a write")
	}
}
