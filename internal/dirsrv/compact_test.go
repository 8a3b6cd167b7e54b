package dirsrv

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/once"
	"slice/internal/route"
	"slice/internal/wal"
)

// teeStore is a journal store that compacts like any other and also keeps
// every record ever appended, never compacted — the checkpoints' restated
// records left out, nothing dropped: the full journal a restart from the
// whole history replays. It counts a checkpoint when it cuts and when it
// drops.
type teeStore struct {
	*wal.MemStore
	full              *wal.MemStore
	cuts, compactions atomic.Int32
}

func newTeeStore() *teeStore {
	return &teeStore{MemStore: wal.NewMemStore(), full: wal.NewMemStore()}
}

func (s *teeStore) Append(p []byte) error  { _ = s.full.Append(p); return s.MemStore.Append(p) }
func (s *teeStore) Sync() error            { _ = s.full.Sync(); return s.MemStore.Sync() }
func (s *teeStore) Restate(p []byte) error { return s.MemStore.Restate(p) }
func (s *teeStore) Cut() error             { s.cuts.Add(1); return s.MemStore.Cut() }
func (s *teeStore) Drop() error {
	s.compactions.Add(1)
	_ = s.full.Sync()
	return s.MemStore.Drop()
}

// recordOverhead is a journal record's framing: header and CRC.
const recordOverhead = 24

// liveOf returns the records of the name space s's state compacts to,
// sorted, and the length of all it compacts to as a journal. It panics
// unless that length is the live size s registers with its log: every
// test that reads the live state, around every op and after every
// restart's replay, checks the count. The call outcomes it compacts to are
// counted but not returned: which of them a replay keeps depends on the
// time it runs, since each expires once.Span after it was recorded.
func liveOf(s *Server) ([]string, int) {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].unlock()
		}
	}()
	var recs []string
	n := 0
	for i := range s.shards {
		s.liveRecords(&s.shards[i], func(recType uint32, p []byte) {
			if recType != recOutcome {
				recs = append(recs, strconv.Itoa(int(recType))+":"+string(p))
			}
			n += recordOverhead + len(p)
		})
	}
	if got := s.liveSize(); got != n {
		panic(fmt.Sprintf("site %d registers a live size of %d bytes, its live records are %d", s.site, got, n))
	}
	sort.Strings(recs)
	return recs, n
}

func (h *harness) compactions() int {
	n := 0
	for _, tee := range h.tees {
		n += int(tee.compactions.Load())
	}
	return n
}

// crashCopies returns every site's durable journal: compacted, or the
// full history.
func (h *harness) crashCopies(full bool) []*wal.MemStore {
	var out []*wal.MemStore
	for _, tee := range h.tees {
		if full {
			out = append(out, tee.full.CrashCopy())
		} else {
			out = append(out, tee.MemStore.CrashCopy())
		}
	}
	return out
}

// restartAll rebuilds every site from stores through Restart, on a
// network of its own, and returns the recovered servers' live records.
// Check must find the recovered name space clean.
func (h *harness) restartAll(stores []*wal.MemStore) [][]string {
	h.t.Helper()
	var live [][]string
	h.restartEach(stores, func(s *Server) {
		recs, _ := liveOf(s)
		live = append(live, recs)
	})
	return live
}

// restartEach is restartAll handing each recovered server to read.
func (h *harness) restartEach(stores []*wal.MemStore, read func(*Server)) {
	h.t.Helper()
	net := netsim.New(netsim.Config{})
	var servers []*Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for i, st := range stores {
		s := h.restartSite(net, i, st)
		servers = append(servers, s)
	}
	if problems := Check(servers, h.root); len(problems) != 0 {
		h.t.Fatalf("restart is not fsck-clean:\n%s", strings.Join(problems, "\n"))
	}
	for _, s := range servers {
		read(s)
	}
}

func (h *harness) restartSite(net *netsim.Network, i int, st *wal.MemStore) *Server {
	h.t.Helper()
	log, err := wal.Open(st)
	if err != nil {
		h.t.Fatal(err)
	}
	port, err := net.Bind(netsim.Addr{Host: uint32(10 + i), Port: 2049})
	if err != nil {
		h.t.Fatal(err)
	}
	s, err := Restart(port, Config{Site: uint32(i), Volume: 1, Table: h.table, Log: log, Net: net, Host: uint32(10 + i)})
	if err != nil {
		h.t.Fatal(err)
	}
	s.SetRoot(h.root)
	return s
}

// forgetOutcomes empties every site's outcome table, as the passing of
// a once.Span would: a workload of a few thousand ops runs within one,
// and the outcomes it keeps would otherwise hold most of its journal live.
func (h *harness) forgetOutcomes() {
	for _, s := range h.servers {
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			sh.done = once.Table{}
			sh.unlock()
		}
	}
}

func (h *harness) liveAll() [][]string {
	var live [][]string
	for _, s := range h.servers {
		recs, _ := liveOf(s)
		live = append(live, recs)
	}
	return live
}

// must fails the test unless an RPC succeeded with status OK.
func (h *harness) must(proc nfsproto.Proc, args nfsproto.Msg, res nfsproto.Msg, st *nfsproto.Status) {
	h.t.Helper()
	if err := h.call(proc, args, res); err != nil || *st != nfsproto.OK {
		h.t.Fatalf("%v: %v %v", proc, *st, err)
	}
}

func (h *harness) remove(dir fhandle.Handle, name string) {
	var res nfsproto.RemoveRes
	h.must(nfsproto.ProcRemove, &nfsproto.RemoveArgs{Dir: dir, Name: name}, &res, &res.Status)
}

// TestCompactionEquivalentToFullJournal runs an untar with removes,
// renames, rmdirs and symlinks mixed in across two sites. Around every
// op during which a journal compacted, the crash copies taken just before
// and just after it restart fsck-clean to exactly the state of every
// acknowledged op; a restart from the compacted journal and its suffix
// equals a restart from the full, never-compacted journal.
func TestCompactionEquivalentToFullJournal(t *testing.T) {
	for _, kind := range []route.NameKind{route.MkdirSwitching, route.NameHashing} {
		t.Run(kind.String(), func(t *testing.T) {
			h := newHarness(t, 2, kind, 0.3)
			rng := rand.New(rand.NewSource(7))
			type name struct {
				dir  fhandle.Handle
				name string
				fh   fhandle.Handle
			}
			dirs := []name{{fh: h.root}}
			var leaves []name // files and symlinks
			children := map[uint64]int{}
			pick := func(ns []name) int { return rng.Intn(len(ns)) }
			seq, events := 0, 0
			for op := 0; op < 1500; op++ {
				before, beforeLive, n := h.crashCopies(false), h.liveAll(), h.compactions()
				seq++
				nm := fmt.Sprintf("n%d", seq)
				switch r := rng.Intn(100); {
				case r < 50:
					d := dirs[pick(dirs)].fh
					leaves = append(leaves, name{d, nm, h.create(d, nm)})
					children[d.FileID]++
				case r < 60:
					d := dirs[pick(dirs)].fh
					dirs = append(dirs, name{d, nm, h.mkdir(d, nm)})
					children[d.FileID]++
				case r < 68:
					d := dirs[pick(dirs)].fh
					var res nfsproto.CreateRes
					h.must(nfsproto.ProcSymlink, &nfsproto.SymlinkArgs{Dir: d, Name: nm, Target: "/t/" + nm}, &res, &res.Status)
					leaves = append(leaves, name{d, nm, res.FH})
					children[d.FileID]++
				case r < 80 && len(leaves) > 0:
					i := pick(leaves)
					l := leaves[i]
					h.remove(l.dir, l.name)
					leaves = slices.Delete(leaves, i, i+1)
					children[l.dir.FileID]--
				case r < 92 && len(leaves) > 0:
					i := pick(leaves)
					l := leaves[i]
					to := dirs[pick(dirs)].fh
					var res nfsproto.RenameRes
					h.must(nfsproto.ProcRename, &nfsproto.RenameArgs{FromDir: l.dir, FromName: l.name, ToDir: to, ToName: nm}, &res, &res.Status)
					children[l.dir.FileID]--
					children[to.FileID]++
					leaves[i] = name{to, nm, l.fh}
				case len(dirs) > 1:
					i := 1 + rng.Intn(len(dirs)-1)
					d := dirs[i]
					if children[d.fh.FileID] > 0 {
						continue
					}
					var res nfsproto.RemoveRes
					h.must(nfsproto.ProcRmdir, &nfsproto.RemoveArgs{Dir: d.dir, Name: d.name}, &res, &res.Status)
					dirs = slices.Delete(dirs, i, i+1)
					children[d.dir.FileID]--
				}
				h.forgetOutcomes()
				if h.compactions() == n {
					continue
				}
				events++
				if got := h.restartAll(before); !slices.EqualFunc(got, beforeLive, slices.Equal) {
					t.Fatalf("op %d: the crash copy from before the compaction restarts to another state", op)
				}
				after := h.liveAll()
				if got := h.restartAll(h.crashCopies(false)); !slices.EqualFunc(got, after, slices.Equal) {
					t.Fatalf("op %d: the crash copy from after the compaction lost an acknowledged op", op)
				}
				if got := h.restartAll(h.crashCopies(true)); !slices.EqualFunc(got, after, slices.Equal) {
					t.Fatalf("op %d: a restart from the full journal differs from one from the compacted journal", op)
				}
			}
			if events < 4 {
				t.Fatalf("%d ops compacted a journal, want at least 4", events)
			}
			if got, want := h.restartAll(h.crashCopies(false)), h.restartAll(h.crashCopies(true)); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatal("at the end, a restart from the compacted journals differs from one from the full journals")
			}
		})
	}
}

// TestNoFileIDReuseAfterCompaction: the highest fileID minted is removed
// before a checkpoint, so no live cell carries it; the next create after
// a restart from the compacted journal still mints past it.
func TestNoFileIDReuseAfterCompaction(t *testing.T) {
	h := newHarness(t, 1, route.MkdirSwitching, 0)
	h.create(h.root, "keep")
	highest := h.create(h.root, "highest")
	h.remove(h.root, "highest")
	if err := h.servers[0].Log().Checkpoint(); err != nil {
		t.Fatal(err)
	}

	s := h.restartSite(netsim.New(netsim.Config{}), 0, h.stores[0].CrashCopy())
	defer s.Close()
	res := s.create(&nfsproto.CreateArgs{Dir: h.root, Name: "next", Exclusive: true}, &op{})
	if res.Status != nfsproto.OK {
		t.Fatalf("create after restart: %v", res.Status)
	}
	if res.FH.FileID <= highest.FileID {
		t.Fatalf("create after a restart from the compacted journal minted fileID %#x, not past the removed %#x", res.FH.FileID, highest.FileID)
	}
}

// TestJournalBoundedUnderChurn: a create/remove churn holds the journal
// within twice the larger of its live state and the compaction floor.
func TestJournalBoundedUnderChurn(t *testing.T) {
	h := newHarness(t, 1, route.MkdirSwitching, 0)
	const live = 20
	for i := 0; i < live; i++ {
		h.create(h.root, fmt.Sprintf("f%d", i))
	}
	for i := live; i < 3000; i++ {
		h.remove(h.root, fmt.Sprintf("f%d", i-live))
		h.create(h.root, fmt.Sprintf("f%d", i))
		journal, _ := h.stores[0].Contents()
		_, liveBytes := liveOf(h.servers[0])
		if limit := 2 * max(liveBytes, wal.CompactFloor); len(journal) > limit {
			t.Fatalf("op %d: journal holds %d bytes, over 2 × max(%d live, %d floor)", i, len(journal), liveBytes, wal.CompactFloor)
		}
	}
	if n := h.compactions(); n < 5 {
		t.Fatalf("%d compactions over the churn, want several", n)
	}
	// The log's byte count is what the role appended: compaction output
	// is not in it.
	full, _ := h.tees[0].full.Contents()
	if st := h.servers[0].Log().Stats(); st.Bytes != uint64(len(full)) {
		t.Fatalf("the log counts %d bytes appended, the full journal holds %d", st.Bytes, len(full))
	}
}

// TestJournalRecordAllocatesNothing: a SETATTR's journal record is encoded
// into the server's scratch and framed in the log's, so the SETATTR's
// local half — the cell update, its record with the call's outcome, the
// outcome table's entry and the synced append — allocates nothing. (The
// log compacts every few hundred records here, and the table grows by
// doubling; each allocates too rarely to show per op.)
func TestJournalRecordAllocatesNothing(t *testing.T) {
	h := newHarness(t, 1, route.MkdirSwitching, 0)
	fh := h.create(h.root, "f")
	s := h.servers[0]
	sa := attr.SetAttr{SetMode: true, Mode: 0o600}
	id := once.Ident{Src: netsim.Addr{Host: 200, Port: 1}, Prog: nfsproto.Program}
	setattr := func() {
		id.Xid++
		if st, _ := s.localSetAttrByKey(fh.FileID, &sa, id); st != nfsproto.OK {
			t.Fatalf("setattr: %v", st)
		}
	}
	setattr() // the scratch's first record grows it once
	if n := testing.AllocsPerRun(1000, setattr); n != 0 {
		t.Fatalf("a SETATTR's journaled update allocates %v times, want 0", n)
	}
}
