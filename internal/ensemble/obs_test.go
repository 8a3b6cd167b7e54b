package ensemble

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/rebalance"
	"slice/internal/route"
	"slice/internal/workload"
	"slice/internal/xdr"
)

// obsWorkload drives traffic across every hop kind: mount (NewClient),
// directory ops (untar), a small write (small-file server), a large
// write (storage nodes), and a commit (coordinator intend/complete plus
// per-site commits).
func obsWorkload(t *testing.T, e *Ensemble) {
	t.Helper()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := workload.Untar(c, c.Root(), workload.UntarConfig{Entries: 40}); err != nil {
		t.Fatalf("untar: %v", err)
	}
	obsWrites(t, c, 0)
}

// obsWrites creates the i'th pair of files, writes 1 KiB to the small one
// (one WRITE to the small-file server) and 256 KiB to the big one (its
// first 64 KiB to the small-file server, a WRITE to the storage nodes per
// 32 KiB stripe unit after that), and commits the big one.
func obsWrites(t *testing.T, c *client.Client, i int) {
	t.Helper()
	small, _, err := c.Create(c.Root(), fmt.Sprintf("small%d", i), 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(small, 0, make([]byte, 1024), true); err != nil {
		t.Fatal(err)
	}

	big, _, err := c.Create(c.Root(), fmt.Sprintf("big%d", i), 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256<<10)
	if _, err := c.Write(big, 0, data, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(big); err != nil {
		t.Fatal(err)
	}
}

// TestObsHopAttribution runs a traced workload across the full ensemble
// and asserts that the observability layer attributed >0 time to every
// hop the requests crossed — per-stage and per-hop histograms at the
// µproxy, per-op histograms at every server class, and stitched calls
// whose events cover the whole path.
//
// The µproxy traces 1 call in 16 by xid and the calls it orchestrates
// always: the MOUNT's events cover the mount hop and the COMMIT's the
// coordinator. A forwarded call — a CREATE to a directory server, a WRITE
// to the small-file server or a storage node — has events only when it is
// in the sample, so the writes repeat until the events of a forwarded
// call cover each of the three kinds. An iteration forwards at least one
// call of each kind (two CREATEs; the small file's WRITE and the big
// file's first 64 KiB to the small-file server; six 32 KiB WRITEs to the
// storage nodes), each in the sample with probability 1/16 over the
// client's random first xid, so after n iterations a kind is still
// uncovered with probability at most (15/16)ⁿ were the draws independent
// — and the sample's hash spreads sequential xids more evenly than
// independent draws. With n = 340 the three kinds together miss with
// probability ≤ 3 · (15/16)³⁴⁰ < 1e-9.
func TestObsHopAttribution(t *testing.T) {
	e, err := New(Config{
		StorageNodes: 2, DirServers: 2, SmallFileServers: 1,
		Coordinator: true, NameKind: route.MkdirSwitching, MkdirP: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	obsWorkload(t, e)

	// The rings keep the latest events, so coverage accumulates as the
	// writes repeat: covered and timed over every hop a call's events
	// show — a forward or sub-call and the reply that ends it — and
	// forwarded over the replies of calls the µproxy forwarded (with the
	// server's time) rather than its own sub-calls. joined is set by a
	// call whose µproxy forward and directory server handler are in one
	// stitched trace.
	covered := map[obs.HopKind]bool{}
	timed := map[obs.HopKind]bool{}
	forwarded := map[obs.HopKind]bool{}
	joined := false
	scan := func() {
		for _, tr := range e.Obs.Stitch(0) {
			sent := map[obs.HopKind]int64{}
			var sawForward bool
			for _, ev := range tr {
				k := obs.HopKind(ev.Layer)
				switch ev.Kind {
				case obs.KindForward, obs.KindCall:
					sent[k] = ev.At
					sawForward = sawForward || ev.Kind == obs.KindForward && k == obs.HopDirsrv
				case obs.KindReply, obs.KindCallReply:
					if at, ok := sent[k]; ok && ev.At > at {
						covered[k] = true
					}
					if ev.Value > 0 {
						timed[k] = true
						forwarded[k] = forwarded[k] || ev.Kind == obs.KindReply
					}
				case obs.KindBegin:
					joined = joined || sawForward && strings.HasPrefix(ev.Component, "dirsrv[")
				}
			}
		}
	}
	scan()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const maxIterations = 340
	for i := 1; !forwarded[obs.HopDirsrv] || !forwarded[obs.HopSmallfile] || !forwarded[obs.HopStorage]; i++ {
		if i > maxIterations {
			t.Fatalf("after %d iterations the events of forwarded calls cover %v, want dirsrv, smallfile and storage", maxIterations, forwarded)
		}
		obsWrites(t, c, i)
		scan()
	}

	snap := e.Obs.Snapshot()
	up, n := snap.MergeRole("uproxy", "uproxy")
	if n != 1 {
		t.Fatal("no uproxy component in snapshot")
	}
	nonzero := func(name string) {
		t.Helper()
		h, ok := up.Hists[name]
		if !ok || h.Count() == 0 {
			t.Errorf("uproxy %s: no samples", name)
			return
		}
		if h.Percentile(0.5) == 0 {
			t.Errorf("uproxy %s: p50 is zero", name)
		}
	}
	for _, name := range []string{
		"stage.intercept", "stage.decode", "stage.rewrite", "stage.softstate",
		"hop.mount", "hop.dirsrv", "hop.smallfile", "hop.storage", "hop.coord",
		"e2e.mount.mnt", "e2e.nfs.create", "e2e.nfs.write", "e2e.nfs.commit",
	} {
		nonzero(name)
	}

	// Every server class timed its handlers.
	for _, comp := range []string{"dirsrv[0]", "smallfile[0]", "coord"} {
		cs, n := snap.MergeRole(comp, comp)
		if n != 1 {
			t.Errorf("no %s component in snapshot", comp)
			continue
		}
		var total uint64
		for _, h := range cs.Hists {
			total += h.Count()
		}
		if total == 0 {
			t.Errorf("%s: no handler samples", comp)
		}
	}
	if snap.MergeOpClass("nfs.create").Count() == 0 {
		t.Error("no nfs.create samples across directory servers")
	}
	if snap.MergeOpClass("coord.intend").Count() == 0 {
		t.Error("no coord.intend samples at the coordinator")
	}

	// Stitched calls cover every hop kind the workload crossed, each with
	// time attributed to it.
	for _, k := range []obs.HopKind{obs.HopMount, obs.HopDirsrv, obs.HopSmallfile, obs.HopStorage, obs.HopCoord} {
		if !covered[k] {
			t.Errorf("no call's events attribute time to hop %s", k)
		}
	}
	// Every server behind a hop times its calls, so each hop kind also
	// has server-side time, read from the reply header: forwarded calls
	// (directory, small-file and storage servers) and the µproxy's own
	// (the coordinator's intentions) alike.
	for _, k := range []obs.HopKind{obs.HopDirsrv, obs.HopSmallfile, obs.HopStorage, obs.HopCoord} {
		if !timed[k] {
			t.Errorf("no call's reply carries server-side time for hop %s", k)
		}
	}
	if !joined {
		t.Error("no stitched call holds both its µproxy forward and its directory server's handler")
	}
}

// TestObsStatsOverWire exercises the absorbed stats program end to end:
// an ordinary RPC client asks the virtual server for a snapshot and for
// the most stitched calls it serves, and gets the collector's JSON back,
// in one reply datagram.
func TestObsStatsOverWire(t *testing.T) {
	e, err := New(Config{
		StorageNodes: 2, DirServers: 1, SmallFileServers: 1,
		Coordinator: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	obsWorkload(t, e)

	port, err := e.Net.Bind(netsim.Addr{Host: HostClient0 + 90, Port: 901})
	if err != nil {
		t.Fatal(err)
	}
	rc := oncrpc.NewClient(port, e.Virtual, oncrpc.ClientConfig{})
	defer rc.Close()

	body, err := rc.Call(obs.Program, obs.Version, obs.ProcSnapshot, func(enc *xdr.Encoder) {
		enc.PutUint32(0)
	})
	if err != nil {
		t.Fatalf("snapshot call: %v", err)
	}
	raw, err := xdr.NewDecoder(body).Opaque()
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.ClusterSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot json: %v", err)
	}
	if _, n := snap.MergeRole("uproxy", "uproxy"); n != 1 {
		t.Error("wire snapshot missing uproxy component")
	}
	if snap.MergeOpClass("nfs.create").Count() == 0 {
		t.Error("wire snapshot has no nfs.create samples")
	}

	body, err = rc.Call(obs.Program, obs.Version, obs.ProcTraces, func(enc *xdr.Encoder) {
		enc.PutUint32(obs.MaxTraces)
	})
	if err != nil {
		t.Fatalf("traces call: %v", err)
	}
	raw, err = xdr.NewDecoder(body).Opaque()
	if err != nil {
		t.Fatal(err)
	}
	var calls []obs.Trace
	if err := json.Unmarshal(raw, &calls); err != nil {
		t.Fatalf("traces json: %v", err)
	}
	if len(calls) == 0 {
		t.Fatal("wire traces empty")
	}
	if len(calls) > obs.MaxTraces {
		t.Fatalf("wire traces: got %d calls, asked for %d", len(calls), obs.MaxTraces)
	}
	for _, c := range calls {
		if len(c) == 0 {
			t.Fatal("a stitched call has no events")
		}
	}
}

// TestAdminGrowShrinkOverStatsPlane drives the grow and shrink verbs the
// way slicectl does — the stats program's ProcGrow and ProcShrink sent to
// the virtual address — and waits for each transition, read back through
// ProcRebalanceStatus, to settle.
func TestAdminGrowShrinkOverStatsPlane(t *testing.T) {
	e, err := New(Config{
		StorageNodes: 2, DirServers: 1, SmallFileServers: 1,
		Coordinator: true, LogicalSites: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	obsWorkload(t, e)

	port, err := e.Net.Bind(netsim.Addr{Host: HostClient0 + 91, Port: 901})
	if err != nil {
		t.Fatal(err)
	}
	rc := oncrpc.NewClient(port, e.Virtual, oncrpc.ClientConfig{})
	defer rc.Close()
	call := func(proc, arg uint32) []byte {
		t.Helper()
		body, err := rc.Call(obs.Program, obs.Version, proc, func(enc *xdr.Encoder) { enc.PutUint32(arg) })
		if err != nil {
			t.Fatalf("stats proc %d: %v", proc, err)
		}
		raw, err := xdr.NewDecoder(body).Opaque()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	// settle waits for a transition past epoch to finish, and returns it.
	settle := func(epoch uint64) rebalance.Status {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			var st rebalance.Status
			if err := json.Unmarshal(call(obs.ProcRebalanceStatus, 0), &st); err != nil {
				t.Fatal(err)
			}
			if st.Epoch > epoch && (st.State == "done" || st.State == "failed") {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("rebalance did not settle: %+v", st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	width := e.StorageTable.NumPhysical

	call(obs.ProcGrow, 2)
	grown := settle(0)
	if grown.State != "done" || width() != 4 {
		t.Fatalf("grow over the stats plane: %+v, %d nodes in the table", grown, width())
	}
	call(obs.ProcShrink, 2)
	if st := settle(grown.Epoch); st.State != "done" || width() != 2 {
		t.Fatalf("shrink over the stats plane: %+v, %d nodes in the table", st, width())
	}
}

// kinds lists a trace's events but its stage laps, each as its
// component's role and kind ("uproxy recv", "dirsrv begin", ...).
func kinds(tr obs.Trace) []string {
	var out []string
	for _, ev := range tr {
		if ev.Kind != obs.KindStage {
			role, _, _ := strings.Cut(ev.Component, "[")
			out = append(out, role+" "+ev.Kind.String())
		}
	}
	return out
}

// TestStitchedCreateTrace: a CREATE in the sample, as untar makes them,
// is stitched from the µproxy's ring and its directory server's into one
// trace, in time order — the µproxy's arrival and stage laps, its
// forward, the server's handler, the journal's append and sync inside
// it, the reply and the end — and the client's own reading of the call
// encloses it. The residual, the client's time the events do not
// account for, is logged.
func TestStitchedCreateTrace(t *testing.T) {
	e, err := New(Config{StorageNodes: 2, DirServers: 2, SmallFileServers: 1, Coordinator: true,
		NameKind: route.MkdirSwitching, MkdirP: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir, _, err := c.Mkdir(c.Root(), "src", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ start, end int64 }
	var creates []span
	for i := 0; i < 400; i++ {
		t0 := obs.Now()
		if _, _, err := c.Create(dir, fmt.Sprintf("f%04d.c", i), 0o644, true); err != nil {
			t.Fatal(err)
		}
		creates = append(creates, span{t0, obs.Now()})
	}

	want := "uproxy recv,uproxy forward,dirsrv begin,dirsrv append,dirsrv sync,dirsrv done,uproxy reply,uproxy end"
	var residuals, clients []int64
	for _, tr := range e.Obs.Stitch(0) {
		if tr[0].Kind != obs.KindRecv || nfsproto.Proc(tr[0].Layer) != nfsproto.ProcCreate {
			continue
		}
		if got := strings.Join(kinds(tr), ","); got != want {
			t.Errorf("CREATE xid %#x: events %s, want %s", tr[0].Xid, got, want)
			continue
		}
		recv, end := tr[0].At, tr[len(tr)-1].At
		i := sort.Search(len(creates), func(i int) bool { return creates[i].end >= end })
		if i == len(creates) || creates[i].start > recv {
			t.Errorf("CREATE xid %#x: no client call encloses its events [%d, %d]", tr[0].Xid, recv, end)
			continue
		}
		residuals = append(residuals, creates[i].end-creates[i].start-(end-recv))
		clients = append(clients, creates[i].end-creates[i].start)
		if len(residuals) == 1 {
			var b strings.Builder
			tr.WriteText(&b)
			t.Logf("a sampled CREATE:\n%s", b.String())
		}
	}
	if len(residuals) == 0 {
		t.Fatal("no CREATE of 400 was in the sample")
	}
	slices.Sort(residuals)
	slices.Sort(clients)
	t.Logf("%d sampled CREATEs: client's time p50 %s; residual (client's time less the µproxy's arrival to end) p50 %s, max %s",
		len(residuals), obs.Nanos(uint64(clients[len(clients)/2])),
		obs.Nanos(uint64(residuals[len(residuals)/2])), obs.Nanos(uint64(residuals[len(residuals)-1])))
}

// TestCrossSiteRenameTrace: under name hashing a RENAME reaches the other
// directory server by peer calls, each a step of the RENAME — the insert
// of a new name that hashes there, the touch of a directory whose cell
// lives there. A RENAME in the sample shows such a step at the other
// site, its journal append and sync, under the RENAME's own source and
// xid with a Step ≠ 0, and the peer call that carried it at the RENAME's
// own site.
func TestCrossSiteRenameTrace(t *testing.T) {
	e, err := New(Config{StorageNodes: 2, DirServers: 2, Coordinator: true, NameKind: route.NameHashing})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	found := func() bool {
		for _, tr := range e.Obs.Stitch(0) {
			var site string
			var called, stepped bool
			for _, ev := range tr {
				switch {
				case ev.Kind == obs.KindBegin && ev.Step == 0 && nfsproto.Proc(ev.Layer) == nfsproto.ProcRename:
					site = ev.Component
				case ev.Kind == obs.KindCallReply && ev.Step != 0 && ev.Component == site:
					called = true
				case ev.Kind == obs.KindSync && ev.Step != 0 && site != "" && ev.Component != site:
					stepped = true
				}
			}
			if called && stepped {
				var b strings.Builder
				tr.WriteText(&b)
				t.Logf("a cross-site RENAME:\n%s", b.String())
				return true
			}
		}
		return false
	}
	for i := 0; ; i++ {
		if i == 2000 {
			t.Fatal("no RENAME of 2000 in the sample showed a peer step at the other site")
		}
		name := fmt.Sprintf("r%d", i)
		if _, _, err := c.Create(c.Root(), name, 0o644, true); err != nil {
			t.Fatal(err)
		}
		if err := c.Rename(c.Root(), name, c.Root(), name+".moved"); err != nil {
			t.Fatal(err)
		}
		if i%32 == 31 && found() {
			return
		}
	}
}
