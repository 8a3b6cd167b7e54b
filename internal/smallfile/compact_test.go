package smallfile

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"slice/internal/netsim"
	"slice/internal/storage"
	"slice/internal/wal"
)

// teeStore is a journal store that compacts like any other and also keeps
// every record ever appended, never compacted — the checkpoints' restated
// records left out, nothing dropped: the full journal a restart from the
// whole history replays. It counts a checkpoint when it drops.
type teeStore struct {
	*wal.MemStore
	full        *wal.MemStore
	compactions atomic.Int32
}

func newTeeStore() *teeStore {
	return &teeStore{MemStore: wal.NewMemStore(), full: wal.NewMemStore()}
}

func (s *teeStore) Append(p []byte) error { _ = s.full.Append(p); return s.MemStore.Append(p) }
func (s *teeStore) Sync() error           { _ = s.full.Sync(); return s.MemStore.Sync() }
func (s *teeStore) Drop() error {
	s.compactions.Add(1)
	_ = s.full.Sync()
	return s.MemStore.Drop()
}

// liveOf returns the records s's state compacts to, sorted. It panics
// unless their length as a journal is the live size s registers with its
// log (see liveBytes).
func liveOf(s *Store) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var recs []string
	s.liveRecords(func(recType uint32, p []byte) {
		recs = append(recs, fmt.Sprintf("%d:%x", recType, p))
	})
	sort.Strings(recs)
	mustLiveSize(s)
	return recs
}

// liveBytes is the length of the journal s's state compacts to (24 bytes
// of framing per record).
func liveBytes(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return mustLiveSize(s)
}

// mustLiveSize returns the length of the journal s's state compacts to,
// and panics unless it is the live size s registers with its log: every
// test that reads the live state, around every op and after every
// restart's replay, checks the count. The caller holds s.mu.
func mustLiveSize(s *Store) int {
	n := 0
	s.liveRecords(func(_ uint32, p []byte) { n += 24 + len(p) })
	if got := s.liveSize(); got != n {
		panic(fmt.Sprintf("the store registers a live size of %d bytes, its live records are %d", got, n))
	}
	return n
}

// restart recovers a store from journal against backing through Restart
// and returns it, after checking that no two live fragments overlap.
func restart(t *testing.T, backing *storage.ObjectStore, journal *wal.MemStore) *Store {
	t.Helper()
	log, err := wal.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	port, err := netsim.New(netsim.Config{}).Bind(netsim.Addr{Host: 50, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Restart(port, backing, log)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	s := srv.Store()
	type frag struct{ off, end int64 }
	var frags []frag
	for _, rec := range s.maps {
		for _, ext := range rec.Extents {
			if ext.Length > 0 {
				frags = append(frags, frag{ext.Off, ext.Off + int64(ext.Length)})
			}
		}
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].off < frags[j].off })
	for i := 1; i < len(frags); i++ {
		if frags[i].off < frags[i-1].end {
			t.Fatalf("recovered fragments overlap: %+v and %+v", frags[i-1], frags[i])
		}
	}
	return s
}

// TestCompactionEquivalentToFullJournal runs an overwrite, truncate and
// remove mix. Around every op during which the journal compacted, the
// crash copies taken just before and just after it recover to exactly
// the maps of every acknowledged op, and the one after reads back every
// file; a restart from the compacted journal and its suffix equals one
// from the full, never-compacted journal.
func TestCompactionEquivalentToFullJournal(t *testing.T) {
	backing := storage.NewObjectStore()
	tee := newTeeStore()
	log, err := wal.Open(tee)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(backing, 1, log)
	rng := rand.New(rand.NewSource(3))
	model := map[uint64][]byte{}
	const files = 200
	events := 0
	for op := 0; op < 4000; op++ {
		before, beforeLive, n := tee.MemStore.CrashCopy(), (liveOf(s)), tee.compactions.Load()
		id := uint64(1 + rng.Intn(files))
		switch r := rng.Intn(10); {
		case r < 7: // overwrite (or extend) a few bytes
			off := rng.Intn(3 * LogicalBlock)
			data := bytes.Repeat([]byte{byte(op)}, 1+rng.Intn(2000))
			if err := s.Write(fh(id), int64(off), data, true); err != nil {
				t.Fatal(err)
			}
			m := model[id]
			if end := off + len(data); end > len(m) {
				m = append(m, make([]byte, end-len(m))...)
			}
			copy(m[off:], data)
			model[id] = m
		case r < 9:
			size := rng.Intn(2 * LogicalBlock)
			if err := s.Truncate(fh(id), int64(size)); err != nil {
				t.Fatal(err)
			}
			if m, ok := model[id]; ok || size > 0 {
				model[id] = append(m, make([]byte, max(0, size-len(m)))...)[:size]
			}
		default:
			s.Remove(fh(id))
			delete(model, id)
		}
		if tee.compactions.Load() == n {
			continue
		}
		events++
		if got := (liveOf(restart(t, backing, before))); !slices.Equal(got, beforeLive) {
			t.Fatalf("op %d: the crash copy from before the compaction recovers other maps", op)
		}
		after := restart(t, backing, tee.MemStore.CrashCopy())
		if got, want := (liveOf(after)), (liveOf(s)); !slices.Equal(got, want) {
			t.Fatalf("op %d: the crash copy from after the compaction lost an acknowledged op", op)
		}
		for id, want := range model {
			got := make([]byte, len(want))
			if n, _, err := after.Read(fh(id), 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
				t.Fatalf("op %d: file %d reads back %d bytes (%v), not its %d acknowledged bytes", op, id, n, err, len(want))
			}
		}
		if got, want := (liveOf(restart(t, backing, tee.full.CrashCopy()))), (liveOf(after)); !slices.Equal(got, want) {
			t.Fatalf("op %d: a restart from the full journal differs from one from the compacted journal", op)
		}
	}
	if events < 3 {
		t.Fatalf("%d ops compacted the journal, want at least 3", events)
	}
}

// TestJournalBoundedUnderOverwrites: an overwrite-heavy mix over a file
// set larger than the compaction floor holds the journal within twice the
// larger of its live state and the floor.
func TestJournalBoundedUnderOverwrites(t *testing.T) {
	tee := newTeeStore()
	log, err := wal.Open(tee)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(storage.NewObjectStore(), 1, log)
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 512)
	for op := 0; op < 5000; op++ {
		id := fh(uint64(1 + rng.Intn(600)))
		if rng.Intn(8) == 0 {
			_ = s.Truncate(id, int64(rng.Intn(LogicalBlock)))
		} else if err := s.Write(id, int64(rng.Intn(2*LogicalBlock)), data, false); err != nil {
			t.Fatal(err)
		}
		journal, _ := tee.Contents()
		live := liveBytes(s)
		if limit := 2 * max(live, wal.CompactFloor); len(journal) > limit {
			t.Fatalf("op %d: journal holds %d bytes, over 2 × max(%d live, %d floor)", op, len(journal), live, wal.CompactFloor)
		}
	}
	if live := liveBytes(s); live <= wal.CompactFloor || tee.compactions.Load() < 3 {
		t.Fatalf("%d live bytes, %d compactions: want a live set past the floor and several compactions", live, tee.compactions.Load())
	}
}
