package dirsrv

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/nfsproto"
	"slice/internal/route"
	"slice/internal/wal"
)

// TestDisjointDirectoriesShareNoLock: while one directory's shard is
// locked, LOOKUP, ACCESS, GETATTR, CREATE and SETATTR in a directory of
// another shard all complete: an operation on a file takes no lock but
// its directory's shard's.
func TestDisjointDirectoriesShareNoLock(t *testing.T) {
	h := newHarness(t, 1, route.MkdirSwitching, 0)
	held, free := h.mkdir(h.root, "held"), h.mkdir(h.root, "free")
	f := h.create(free, "f")
	sh := h.servers[0].shard(held.FileID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	within(t, func() error {
		var lk nfsproto.LookupRes
		var ac nfsproto.AccessRes
		var ga nfsproto.GetAttrRes
		var cr nfsproto.CreateRes
		var sa nfsproto.SetAttrRes
		for _, c := range []struct {
			proc      nfsproto.Proc
			args, res nfsproto.Msg
			st        *nfsproto.Status
		}{
			{nfsproto.ProcLookup, &nfsproto.LookupArgs{Dir: free, Name: "f"}, &lk, &lk.Status},
			{nfsproto.ProcAccess, &nfsproto.AccessArgs{FH: free, Access: nfsproto.AccessModify}, &ac, &ac.Status},
			{nfsproto.ProcGetAttr, &nfsproto.GetAttrArgs{FH: f}, &ga, &ga.Status},
			{nfsproto.ProcCreate, &nfsproto.CreateArgs{Dir: free, Name: "g", Exclusive: true}, &cr, &cr.Status},
			{nfsproto.ProcSetAttr, &nfsproto.SetAttrArgs{FH: f, Sattr: attr.SetAttr{SetMode: true, Mode: 0o444}}, &sa, &sa.Status},
		} {
			if err := h.call(c.proc, c.args, c.res); err != nil || *c.st != nfsproto.OK {
				return fmt.Errorf("%v in another shard's directory: %v %v", c.proc, *c.st, err)
			}
		}
		return nil
	})
}

// checkpointOpen reports whether any site's journal has a checkpoint
// open: cut, not yet dropped.
func (h *harness) checkpointOpen() bool {
	for _, tee := range h.tees {
		if tee.cuts.Load() > tee.compactions.Load() {
			return true
		}
	}
	return false
}

// digest is a site's live records, its call outcomes left out, as their
// count and the sum of their hashes: what liveOf compares, without a
// string per record and a sort.
type digest struct{ n, sum uint64 }

var digestSeed = maphash.MakeSeed()

func digestOf(s *Server) digest {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].unlock()
		}
	}()
	var d digest
	for i := range s.shards {
		s.liveRecords(&s.shards[i], func(recType uint32, p []byte) {
			if recType == recOutcome {
				return
			}
			d.n++
			d.sum += maphash.Bytes(digestSeed, p) ^ uint64(recType)
		})
	}
	return d
}

func (h *harness) digestAll() []digest {
	var out []digest
	for _, s := range h.servers {
		out = append(out, digestOf(s))
	}
	return out
}

// restartDigests is restartAll, read as digests.
func (h *harness) restartDigests(stores []*wal.MemStore) []digest {
	h.t.Helper()
	var out []digest
	h.restartEach(stores, func(s *Server) { out = append(out, digestOf(s)) })
	return out
}

// mixer runs TestCompactionEquivalentToFullJournal's ops under one
// directory of its own, weighted toward removes and with symlinks of a
// few KiB: a name space past what a checkpoint writes in one step, and a
// journal that turns garbage fast enough to checkpoint it every few
// hundred ops.
type mixer struct {
	h      *harness
	rng    *rand.Rand
	prefix string
	seq    int
	dirs   []mixName
	leaves []mixName // files and symlinks
	kids   map[uint64]int
}

type mixName struct {
	dir  fhandle.Handle
	name string
	fh   fhandle.Handle
}

func newMixer(h *harness, seed int64, top fhandle.Handle, prefix string) *mixer {
	return &mixer{h: h, rng: rand.New(rand.NewSource(seed)), prefix: prefix,
		dirs: []mixName{{fh: top}}, kids: map[uint64]int{}}
}

// op runs the mix's next op, or with grow its symlink op; it is safe to
// run beside another mixer's.
func (m *mixer) op(grow bool) error {
	m.seq++
	nm := fmt.Sprintf("%sn%d", m.prefix, m.seq)
	pick := func(ns []mixName) int { return m.rng.Intn(len(ns)) }
	r := m.rng.Intn(100)
	if grow {
		r = 30
	}
	switch {
	case r < 20:
		d := m.dirs[pick(m.dirs)].fh
		var res nfsproto.CreateRes
		if err := m.call(nfsproto.ProcCreate, &nfsproto.CreateArgs{Dir: d, Name: nm, Exclusive: true}, &res, &res.Status); err != nil {
			return err
		}
		m.leaves = append(m.leaves, mixName{d, nm, res.FH})
		m.kids[d.FileID]++
	case r < 26:
		d := m.dirs[pick(m.dirs)].fh
		var res nfsproto.CreateRes
		if err := m.call(nfsproto.ProcMkdir, &nfsproto.CreateArgs{Dir: d, Name: nm}, &res, &res.Status); err != nil {
			return err
		}
		m.dirs = append(m.dirs, mixName{d, nm, res.FH})
		m.kids[d.FileID]++
	case r < 54:
		d := m.dirs[pick(m.dirs)].fh
		target := "/t/" + strings.Repeat("x", 2000+m.rng.Intn(2000)) + nm
		var res nfsproto.CreateRes
		if err := m.call(nfsproto.ProcSymlink, &nfsproto.SymlinkArgs{Dir: d, Name: nm, Target: target}, &res, &res.Status); err != nil {
			return err
		}
		m.leaves = append(m.leaves, mixName{d, nm, res.FH})
		m.kids[d.FileID]++
	case r < 90 && len(m.leaves) > 0:
		i := pick(m.leaves)
		l := m.leaves[i]
		var res nfsproto.RemoveRes
		if err := m.call(nfsproto.ProcRemove, &nfsproto.RemoveArgs{Dir: l.dir, Name: l.name}, &res, &res.Status); err != nil {
			return err
		}
		m.leaves = slices.Delete(m.leaves, i, i+1)
		m.kids[l.dir.FileID]--
	case r < 96 && len(m.leaves) > 0:
		i := pick(m.leaves)
		l := m.leaves[i]
		to := m.dirs[pick(m.dirs)].fh
		var res nfsproto.RenameRes
		if err := m.call(nfsproto.ProcRename, &nfsproto.RenameArgs{FromDir: l.dir, FromName: l.name, ToDir: to, ToName: nm}, &res, &res.Status); err != nil {
			return err
		}
		m.kids[l.dir.FileID]--
		m.kids[to.FileID]++
		m.leaves[i] = mixName{to, nm, l.fh}
	case len(m.dirs) > 1:
		i := 1 + m.rng.Intn(len(m.dirs)-1)
		d := m.dirs[i]
		if m.kids[d.fh.FileID] > 0 {
			return nil
		}
		var res nfsproto.RemoveRes
		if err := m.call(nfsproto.ProcRmdir, &nfsproto.RemoveArgs{Dir: d.dir, Name: d.name}, &res, &res.Status); err != nil {
			return err
		}
		m.dirs = slices.Delete(m.dirs, i, i+1)
		m.kids[d.dir.FileID]--
	}
	return nil
}

func (m *mixer) call(proc nfsproto.Proc, args, res nfsproto.Msg, st *nfsproto.Status) error {
	if err := m.h.call(proc, args, res); err != nil || *st != nfsproto.OK {
		return fmt.Errorf("%v: %v %v", proc, *st, err)
	}
	return nil
}

// TestShardCheckpointEquivalentAtEveryOp runs the compaction test's ops
// (mixer) from one goroutine and from two at once in disjoint
// directories, under both name-space policies, over a name space built
// first of long symlinks, so that a checkpoint takes several steps and
// stays open across ops. At the end of every round of ops (one op from
// each goroutine) that starts, continues or closes a checkpoint — so
// before and after every op while one is open — the crash copies
// restart fsck-clean to exactly the state of every acknowledged op, and a
// restart from the full journal equals one from the checkpointed journal.
func TestShardCheckpointEquivalentAtEveryOp(t *testing.T) {
	for _, kind := range []route.NameKind{route.MkdirSwitching, route.NameHashing} {
		for _, lanes := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/%d-goroutines", kind, lanes), func(t *testing.T) {
				h := newHarness(t, 2, kind, 0.3)
				var mixers []*mixer
				for i := 0; i < lanes; i++ {
					top := h.mkdir(h.root, fmt.Sprintf("lane%d", i))
					mixers = append(mixers, newMixer(h, int64(7+i), top, fmt.Sprintf("l%d-", i)))
					for j := 0; j < 240/lanes; j++ {
						if err := mixers[i].op(j%10 != 0); err != nil {
							t.Fatal(err)
						}
					}
				}
				errs := make([]error, lanes)
				round := func() {
					var wg sync.WaitGroup
					for i, m := range mixers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							errs[i] = m.op(false)
						}()
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				// Every round in or around a checkpoint is checked at its
				// end; the crash copies from before a round with the
				// checkpoint open at its start are the last round's, checked
				// at that round's end. The full journal, which no checkpoint
				// touches, is restarted when one has dropped its prefix.
				inside := 0
				for r := 0; r < 3000/lanes; r++ {
					if r%8 == 0 {
						h.forgetOutcomes() // a few rounds' outcomes weigh nothing in the image
					}
					open, n := h.checkpointOpen(), h.compactions()
					round()
					if !open && !h.checkpointOpen() && h.compactions() == n {
						continue
					}
					inside++
					after := h.digestAll()
					if !slices.Equal(h.restartDigests(h.crashCopies(false)), after) {
						t.Fatalf("round %d: a crash copy taken with a checkpoint open restarts to another state than the acknowledged one", r)
					}
					if h.compactions() != n && !slices.Equal(h.restartDigests(h.crashCopies(true)), after) {
						t.Fatalf("round %d: a restart from the full journal differs from one from the checkpointed journal", r)
					}
				}
				if spanned := inside - h.compactions(); inside < 8 || spanned < 2 {
					t.Fatalf("%d rounds in or around %d checkpoints: want checkpoints that stay open across rounds", inside, h.compactions())
				}
				t.Logf("%d rounds in or around %d checkpoints", inside, h.compactions())
			})
		}
	}
}
