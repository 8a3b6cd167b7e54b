package rebalance

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"slice/internal/coord"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/replica"
	"slice/internal/route"
	"slice/internal/storage"
	"slice/internal/wal"
)

// rig is a minimal storage array without the ensemble wrapper (ensemble
// imports this package, so tests here wire nodes directly).
type rig struct {
	net    *netsim.Network
	stores map[netsim.Addr]*storage.ObjectStore
	nodes  map[netsim.Addr]*storage.Node
	table  *route.Table
	io     *route.IOPolicy
}

func addrN(i int) netsim.Addr { return netsim.Addr{Host: uint32(10 + i), Port: 2049} }

// rigLogical is the rigs' logical-site count: slack enough that every
// grow below hands each new node a share.
const rigLogical = 12

// newRig starts storage nodes on addrs[0:cur] as the current binding
// and pre-starts the rest so a transition can target them.
func newRig(t *testing.T, addrs []netsim.Addr, cur int) *rig {
	t.Helper()
	r := &rig{
		net:    netsim.New(netsim.Config{}),
		stores: make(map[netsim.Addr]*storage.ObjectStore),
		nodes:  make(map[netsim.Addr]*storage.Node),
	}
	for _, a := range addrs {
		port, err := r.net.Bind(a)
		if err != nil {
			t.Fatalf("bind %v: %v", a, err)
		}
		st := storage.NewObjectStore()
		r.stores[a] = st
		r.nodes[a] = storage.NewNode(port, st)
	}
	r.table = route.NewTable(rigLogical, addrs[:cur])
	r.io = route.NewIOPolicy(nil, r.table)
	t.Cleanup(func() {
		for _, n := range r.nodes {
			n.Close()
		}
	})
	return r
}

func (r *rig) driver(t *testing.T, reg *obs.Registry) *Driver {
	t.Helper()
	d := New(Config{
		Net:       r.net,
		Host:      200,
		IO:        r.io,
		Settle:    time.Millisecond,
		Heartbeat: 20 * time.Millisecond,
		Obs:       reg,
	})
	t.Cleanup(d.Close)
	return d
}

// grow plans the site list that adds nodes to the current binding — what
// ensemble.Grow hands the driver.
func (r *rig) grow(t *testing.T, add ...netsim.Addr) []netsim.Addr {
	t.Helper()
	next, err := route.PlanGrow(r.table.Physical(), add, r.table.NumLogical())
	if err != nil {
		t.Fatalf("PlanGrow: %v", err)
	}
	return next
}

// movedID returns the first id >= start whose stripe 0 lands on want
// under the site list next (i.e. an object the transition moves).
func movedID(t *testing.T, next []netsim.Addr, want netsim.Addr, start uint64) uint64 {
	t.Helper()
	for id := start; id < start+1<<20; id++ {
		if next[id%uint64(len(next))] == want {
			return id
		}
	}
	t.Fatal("no id found that the transition moves")
	return 0
}

// fill writes deterministic bytes for (id, off).
func fill(p []byte, id, off uint64) {
	for i := range p {
		p[i] = byte(id*131 + (off+uint64(i))*7 + 3)
	}
}

// populate writes an object of the given size striped per the CURRENT
// binding, the way foreground bulk writes would have landed it.
func (r *rig) populate(t *testing.T, id, size uint64) {
	t.Helper()
	su := r.io.StripeUnit
	for off := uint64(0); off == 0 || off < size; off += su {
		a, err := r.table.Route(id + off/su)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		n := su
		if off+n > size {
			n = size - off
		}
		if n == 0 {
			if err := r.stores[a].Truncate(storage.ObjectID(id), 0); err != nil {
				t.Fatalf("truncate: %v", err)
			}
			break
		}
		p := make([]byte, n)
		fill(p, id, off)
		if err := r.stores[a].WriteAt(storage.ObjectID(id), int64(off), p, true); err != nil {
			t.Fatalf("write: %v", err)
		}
		if off+su >= size {
			break
		}
	}
}

// checkPlacement asserts every stripe of (id, size) reads back correctly
// from the node the table currently routes it to.
func (r *rig) checkPlacement(t *testing.T, id, size uint64) {
	t.Helper()
	su := r.io.StripeUnit
	for off := uint64(0); off == 0 || off < size; off += su {
		a, err := r.table.Route(id + off/su)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		if size == 0 {
			if _, ok := r.stores[a].Size(storage.ObjectID(id)); !ok {
				t.Fatalf("object %d absent on %v after rebalance", id, a)
			}
			break
		}
		n := su
		if off+n > size {
			n = size - off
		}
		want := make([]byte, n)
		fill(want, id, off)
		got := make([]byte, n)
		cnt, _, err := r.stores[a].ReadAt(storage.ObjectID(id), int64(off), got)
		if err != nil || uint64(cnt) != n {
			t.Fatalf("obj %d off %d on %v: read %d bytes, err %v (want %d)", id, off, a, cnt, err, n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("obj %d off %d on %v: byte %d = %#x, want %#x", id, off, a, i, got[i], want[i])
			}
		}
		if off+su >= size {
			break
		}
	}
}

func TestGrowMovesBlocks(t *testing.T) {
	addrs := make([]netsim.Addr, 6)
	for i := range addrs {
		addrs[i] = addrN(i)
	}
	r := newRig(t, addrs, 4)
	su := r.io.StripeUnit
	// Growing 4→6 over 12 sites rebinds sites 8–11; every object below
	// has a stripe there.
	sizes := map[uint64]uint64{
		8:  0,           // zero-length: must still appear at its new site
		9:  su / 2,      // sub-stripe
		10: 3*su + su/3, // multi-stripe with a short tail
		7:  4 * su,      // exact stripe multiple
		11: su,
	}
	for id, size := range sizes {
		r.populate(t, id, size)
	}
	reg := obs.NewRegistry("rebalance-test")
	d := r.driver(t, reg)
	preCommitRan := false
	if err := d.Run(r.grow(t, addrs[4:]...), nil, func() error { preCommitRan = true; return nil }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !preCommitRan {
		t.Fatal("preCommit hook did not run")
	}
	if r.table.Transitioning() {
		t.Fatal("transition still open after Run")
	}
	for id, size := range sizes {
		r.checkPlacement(t, id, size)
	}
	st := d.Status()
	if st.State != "done" || st.Epoch == 0 || st.BytesMoved == 0 || st.ChunksChecked == 0 {
		t.Fatalf("status = %+v", st)
	}
	var js Status
	if err := json.Unmarshal(d.StatusJSON(), &js); err != nil || js.State != "done" {
		t.Fatalf("StatusJSON: %v / %+v", err, js)
	}
	if reg.Snapshot().Hists["rebalance.copy_chunk"].Count() == 0 {
		t.Fatal("copy histogram recorded nothing")
	}
}

func TestShrinkMovesBlocksOffRemoved(t *testing.T) {
	addrs := make([]netsim.Addr, 6)
	for i := range addrs {
		addrs[i] = addrN(i)
	}
	r := newRig(t, addrs, 6)
	su := r.io.StripeUnit
	sizes := map[uint64]uint64{11: 2 * su, 12: 5*su + 100, 13: su / 4}
	for id, size := range sizes {
		r.populate(t, id, size)
	}
	next, err := route.PlanShrink(r.table.Physical(), addrs[4:])
	if err != nil {
		t.Fatalf("PlanShrink: %v", err)
	}
	d := r.driver(t, nil)
	if err := d.Run(next, nil, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for id, size := range sizes {
		r.checkPlacement(t, id, size)
	}
	for _, a := range r.table.Physical() {
		if a == addrs[4] || a == addrs[5] {
			t.Fatalf("removed node %v still in the table", a)
		}
	}
}

// TestGrowMovesBackingTagLookalike: every object on a storage node is a
// striped object, whatever its ID's bits. A fingerprint whose top byte is
// 0x5F (the tag small-file fragment stores once used here) must move like
// any other, so a special case for a reserved tag cannot come back.
func TestGrowMovesBackingTagLookalike(t *testing.T) {
	addrs := make([]netsim.Addr, 6)
	for i := range addrs {
		addrs[i] = addrN(i)
	}
	r := newRig(t, addrs, 4)
	next := r.grow(t, addrs[4:]...)
	id := movedID(t, next, addrs[4], 0x5F3C_9A17_0E42_0000)
	if id>>56 != 0x5F {
		t.Fatalf("id %#x does not carry the 0x5F top byte", id)
	}
	size := 3 * r.io.StripeUnit
	r.populate(t, id, size)
	d := r.driver(t, nil)
	if err := d.Run(next, nil, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r.checkPlacement(t, id, size)
}

// TestCopiedBytesSurviveCrash: everything the driver puts on an incoming
// node — copied stripes, a sparse tail, a zero-length object — is stable
// there, because peer writes are. A replica reborn by a transition must
// not shed acknowledged data to a later crash of its volatile state.
func TestCopiedBytesSurviveCrash(t *testing.T) {
	addrs := make([]netsim.Addr, 6)
	for i := range addrs {
		addrs[i] = addrN(i)
	}
	r := newRig(t, addrs, 4)
	su := r.io.StripeUnit
	next := r.grow(t, addrs[4:]...)
	sizes := map[uint64]uint64{
		movedID(t, next, addrs[4], 100): 5*su + su/3,
		movedID(t, next, addrs[4], 200): 0,
		movedID(t, next, addrs[5], 300): 3 * su,
	}
	for id, size := range sizes {
		r.populate(t, id, size)
	}
	d := r.driver(t, nil)
	if err := d.Run(next, nil, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d.Status().BytesMoved == 0 {
		t.Fatal("the grow copied nothing")
	}
	r.stores[addrs[4]].Crash()
	r.stores[addrs[5]].Crash()
	for id, size := range sizes {
		r.checkPlacement(t, id, size)
	}
}

func TestListPaging(t *testing.T) {
	addrs := []netsim.Addr{addrN(0), addrN(1)}
	r := newRig(t, addrs, 1)
	// More objects than one PeerProcList page.
	n := replica.PeerListMax + 88
	for i := 0; i < n; i++ {
		r.populate(t, uint64(1000+i), 8)
	}
	d := r.driver(t, nil)
	if err := d.Run(r.grow(t, addrs[1]), nil, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d.Status().Objects != n {
		t.Fatalf("enumerated %d objects, want %d", d.Status().Objects, n)
	}
	for i := 0; i < n; i++ {
		r.checkPlacement(t, uint64(1000+i), 8)
	}
}

func TestTruncateSyncsStaleDest(t *testing.T) {
	addrs := []netsim.Addr{addrN(0), addrN(1)}
	r := newRig(t, addrs, 1)
	su := r.io.StripeUnit
	// An object whose new placement is the incoming node, already holding
	// a stale larger copy there (earlier aborted migration). The driver
	// must chop it to the source size.
	next := r.grow(t, addrs[1])
	id := movedID(t, next, addrs[1], 21)
	r.populate(t, id, su/2)
	stale := make([]byte, 2*su)
	if err := r.stores[addrs[1]].WriteAt(storage.ObjectID(id), 0, stale, true); err != nil {
		t.Fatal(err)
	}
	d := r.driver(t, nil)
	if err := d.Run(next, nil, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r.checkPlacement(t, id, su/2)
	if size, ok := r.stores[addrs[1]].Size(storage.ObjectID(id)); !ok || size != int64(su/2) {
		t.Fatalf("incoming node: object size %d (present %v), want %d", size, ok, su/2)
	}
}

func TestGhostScrub(t *testing.T) {
	addrs := []netsim.Addr{addrN(0), addrN(1)}
	r := newRig(t, addrs, 1)
	r.populate(t, 31, 64)
	// A ghost: bytes on the incoming node for an object no source lists
	// (its file was removed while an earlier copy attempt was in flight).
	next := r.grow(t, addrs[1])
	ghost := movedID(t, next, addrs[1], 99)
	if err := r.stores[addrs[1]].WriteAt(storage.ObjectID(ghost), 0, []byte("stale"), true); err != nil {
		t.Fatal(err)
	}
	d := r.driver(t, nil)
	if err := d.Run(next, nil, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, ok := r.stores[addrs[1]].Size(storage.ObjectID(ghost)); ok {
		t.Fatal("ghost object survived the scrub")
	}
	if d.Status().Ghosts == 0 {
		t.Fatal("ghost removal not counted")
	}
	r.checkPlacement(t, 31, 64)
}

func TestReplicatedGrow(t *testing.T) {
	addrs := make([]netsim.Addr, 6)
	for i := range addrs {
		addrs[i] = addrN(i)
	}
	r := newRig(t, addrs, 6) // start all nodes; bindings pick primaries
	curReps := replica.NewMap(2, addrs[:4])
	curPrim := []netsim.Addr{addrs[0], addrs[2]}
	r.table = route.NewTable(rigLogical, curPrim)
	r.io = route.NewIOPolicy(nil, r.table)
	r.io.Replicas = curReps

	su := r.io.StripeUnit
	sizes := map[uint64]uint64{44: 3 * su, 45: su + 9} // stripes on sites 8–10, which the grow rebinds
	// Foreground writes land on every group member.
	for id, size := range sizes {
		for off := uint64(0); off < size; off += su {
			prim, err := r.table.Route(id + off/su)
			if err != nil {
				t.Fatal(err)
			}
			g, ok := curReps.GroupOf(prim)
			if !ok {
				t.Fatalf("no group for %v", prim)
			}
			n := su
			if off+n > size {
				n = size - off
			}
			p := make([]byte, n)
			fill(p, id, off)
			for _, m := range g.Members {
				if err := r.stores[m].WriteAt(storage.ObjectID(id), int64(off), p, true); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	nextReps := replica.NewMap(2, addrs)
	d := r.driver(t, nil)
	if err := d.Run(r.grow(t, addrs[4]), nextReps, func() error {
		r.io.Replicas = nextReps
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d.Status().BytesMoved == 0 {
		t.Fatal("the grow moved nothing: the test's objects miss the rebound sites")
	}
	// Every stripe must now be whole on EVERY member of its new group.
	for id, size := range sizes {
		for off := uint64(0); off < size; off += su {
			prim, err := r.table.Route(id + off/su)
			if err != nil {
				t.Fatal(err)
			}
			g, _ := nextReps.GroupOf(prim)
			n := su
			if off+n > size {
				n = size - off
			}
			want := make([]byte, n)
			fill(want, id, off)
			for _, m := range g.Members {
				got := make([]byte, n)
				cnt, _, err := r.stores[m].ReadAt(storage.ObjectID(id), int64(off), got)
				if err != nil || uint64(cnt) != n {
					t.Fatalf("obj %d off %d member %v: read %d, err %v", id, off, m, cnt, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("obj %d off %d member %v: byte %d differs", id, off, m, i)
					}
				}
			}
		}
	}
}

func TestForegroundWritesDuringMigration(t *testing.T) {
	addrs := make([]netsim.Addr, 6)
	for i := range addrs {
		addrs[i] = addrN(i)
	}
	r := newRig(t, addrs, 4)
	su := r.io.StripeUnit
	// Real bulk writes key objects by HandleKey, so derive ids from
	// handles.
	var fhs []fhandle.Handle
	var ids []uint64
	for fid := uint64(50); len(ids) < 20; fid++ {
		fh := fhandle.Handle{FileID: fid}
		fhs = append(fhs, fh)
		ids = append(ids, fhandle.HandleKey(fh))
	}
	for _, id := range ids {
		r.populate(t, id, 2*su)
	}
	// A foreground writer racing the copy: it resolves WriteTargets
	// (which union both bindings mid-transition) and writes everywhere,
	// exactly as the µproxy fan-out does.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			i := int(seq % 20)
			off := (seq % 2) * su
			p := make([]byte, su)
			fill(p, ids[i], off)
			targets, err := r.io.WriteTargets(fhs[i], off/su)
			if err == nil {
				for _, a := range targets {
					_ = r.stores[a].WriteAt(storage.ObjectID(ids[i]), int64(off), p, true)
				}
			}
			seq++
			time.Sleep(time.Millisecond)
		}
	}()
	d := r.driver(t, nil)
	err := d.Run(r.grow(t, addrs[4:]...), nil, nil)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("Run under foreground load: %v", err)
	}
	for _, id := range ids {
		r.checkPlacement(t, id, 2*su)
	}
}

func TestRunRejectsOpenTransition(t *testing.T) {
	addrs := []netsim.Addr{addrN(0), addrN(1)}
	r := newRig(t, addrs, 1)
	next := r.grow(t, addrs[1])
	if _, err := r.table.Begin(next, nil); err != nil {
		t.Fatal(err)
	}
	d := r.driver(t, nil)
	if err := d.Run(next, nil, nil); err == nil {
		t.Fatal("Run succeeded with a transition already open")
	}
	if d.Status().State == "done" {
		t.Fatal("status reports done after refused run")
	}
}

func TestRunAbortsOnPreCommitError(t *testing.T) {
	addrs := []netsim.Addr{addrN(0), addrN(1)}
	r := newRig(t, addrs, 1)
	r.populate(t, 61, 128)
	ver0 := r.table.Version()
	d := r.driver(t, nil)
	if err := d.Run(r.grow(t, addrs[1]), nil, func() error { return fmt.Errorf("swap refused") }); err == nil {
		t.Fatal("Run ignored preCommit error")
	}
	if r.table.Transitioning() {
		t.Fatal("transition left open after failed Run")
	}
	if r.table.NumPhysical() != 1 {
		t.Fatal("table grew despite the abort")
	}
	if r.table.Version() == ver0 {
		t.Fatal("abort did not bump the version")
	}
	if st := d.Status(); st.State != "failed" || st.Err == "" {
		t.Fatalf("status = %+v, want failed", st)
	}
}

func TestRunFailsWhenPeerDenies(t *testing.T) {
	addrs := []netsim.Addr{addrN(0), addrN(1)}
	r := newRig(t, addrs, 1)
	r.populate(t, 71, 64)
	for _, n := range r.nodes {
		n.RequireCapability([]byte("array-key"))
	}
	d := New(Config{
		Net:         r.net,
		Host:        201,
		IO:          r.io,
		CapKey:      []byte("wrong-key"),
		Settle:      time.Millisecond,
		RetryBudget: 50 * time.Millisecond,
	})
	defer d.Close()
	if err := d.Run(r.grow(t, addrs[1]), nil, nil); err == nil {
		t.Fatal("Run succeeded with a rejected bearer token")
	}
	if r.table.Transitioning() {
		t.Fatal("failed run left the transition open")
	}
}

// TestIntentionHeartbeat runs a migration against a live coordinator
// whose probe interval is far shorter than the copy, proving the
// heartbeat keeps the intention fresh (a stale one would fire
// finish(OpMigrate) and abort the transition under the driver).
func TestIntentionHeartbeat(t *testing.T) {
	addrs := make([]netsim.Addr, 6)
	for i := range addrs {
		addrs[i] = addrN(i)
	}
	r := newRig(t, addrs, 4)
	su := r.io.StripeUnit
	for id := uint64(80); id < 90; id++ {
		r.populate(t, id, 3*su)
	}
	coordAddr := netsim.Addr{Host: 90, Port: 3049}
	cport, err := r.net.Bind(coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(wal.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	co := coord.New(cport, coord.Config{
		Log:        log,
		Storage:    r.table,
		Net:        r.net,
		Host:       90,
		ProbeAfter: 50 * time.Millisecond,
	})
	defer co.Close()

	d := New(Config{
		Net:       r.net,
		Host:      202,
		IO:        r.io,
		Coord:     co.Addr,
		Heartbeat: 10 * time.Millisecond,
		Settle:    30 * time.Millisecond, // several probe windows per run
	})
	defer d.Close()
	if err := d.Run(r.grow(t, addrs[4:]...), nil, nil); err != nil {
		t.Fatalf("Run with coordinator: %v", err)
	}
	for id := uint64(80); id < 90; id++ {
		r.checkPlacement(t, id, 3*su)
	}
	// After commit the chain is complete: give the probe time to fire on
	// anything left behind and confirm the committed binding survives.
	time.Sleep(120 * time.Millisecond)
	if r.table.Transitioning() || r.table.NumPhysical() != 6 {
		t.Fatal("committed binding did not survive the probe")
	}
}

// TestStaleIntentionRollsBack simulates a driver crash: the migrate
// intention goes stale and the coordinator's probe must abort the
// transition (the crash-safety half of the protocol).
func TestStaleIntentionRollsBack(t *testing.T) {
	addrs := []netsim.Addr{addrN(0), addrN(1)}
	r := newRig(t, addrs, 1)
	coordAddr := netsim.Addr{Host: 91, Port: 3049}
	cport, err := r.net.Bind(coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(wal.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	co := coord.New(cport, coord.Config{
		Log:        log,
		Storage:    r.table,
		Net:        r.net,
		Host:       91,
		ProbeAfter: 40 * time.Millisecond,
	})
	defer co.Close()

	epoch, err := r.table.Begin(r.grow(t, addrs[1]), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Log the intention the way the driver would, then "crash".
	d := New(Config{Net: r.net, Host: 203, IO: r.io, Coord: co.Addr})
	defer d.Close()
	if id := d.intend(epoch); id == 0 {
		t.Fatal("intend failed")
	}
	deadline := time.Now().Add(2 * time.Second)
	for r.table.Transitioning() {
		if time.Now().After(deadline) {
			t.Fatal("stale migrate intention never rolled the transition back")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := r.table.NumPhysical(); got != 1 {
		t.Fatalf("rollback left %d nodes, want the original 1", got)
	}
}
