package ensemble

import (
	"encoding/json"
	"testing"
	"time"

	"slice/internal/netsim"
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

	small, _, err := c.Create(c.Root(), "small", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(small, 0, make([]byte, 1024), true); err != nil {
		t.Fatal(err)
	}

	big, _, err := c.Create(c.Root(), "big", 0o644, true)
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
// µproxy, per-op histograms at every server class, and archived spans
// whose hops cover the whole path.
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

	// Archived spans cover every hop kind the workload crossed, each with
	// time attributed to it.
	covered := map[obs.HopKind]bool{}
	traced := map[obs.HopKind]bool{}
	for _, rec := range e.Obs.Traces(0) {
		n := rec.NHops
		if n > obs.MaxHops {
			n = obs.MaxHops
		}
		for _, h := range rec.Hops[:n] {
			if h.TotalNS > 0 {
				covered[h.Kind] = true
			}
			if h.ServerNS > 0 {
				traced[h.Kind] = true
			}
		}
	}
	for _, k := range []obs.HopKind{obs.HopMount, obs.HopDirsrv, obs.HopSmallfile, obs.HopStorage, obs.HopCoord} {
		if !covered[k] {
			t.Errorf("no span attributes time to hop %s", k)
		}
	}
	// µproxy-originated RPCs carry the trace id, so those hops must also
	// have server-side handler time from the reply trailer.
	for _, k := range []obs.HopKind{obs.HopStorage, obs.HopCoord} {
		if !traced[k] {
			t.Errorf("no span carries server-side time for hop %s", k)
		}
	}
}

// TestObsStatsOverWire exercises the absorbed stats program end to end:
// an ordinary RPC client asks the virtual server for a snapshot and for
// recent traces, and gets the collector's JSON back.
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
		enc.PutUint32(16)
	})
	if err != nil {
		t.Fatalf("traces call: %v", err)
	}
	raw, err = xdr.NewDecoder(body).Opaque()
	if err != nil {
		t.Fatal(err)
	}
	var spans []obs.NamedSpan
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatalf("traces json: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("wire traces empty")
	}
	if len(spans) > 16 {
		t.Fatalf("wire traces: got %d spans, asked for 16", len(spans))
	}
	for _, s := range spans {
		if s.Component != "uproxy" {
			t.Fatalf("span component %q", s.Component)
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
