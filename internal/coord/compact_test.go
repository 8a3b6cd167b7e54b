package coord

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

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

// liveOf returns the records c's state compacts to, sorted, and their
// length as a journal (24 bytes of framing per record). It panics unless
// that length is the live size c registers with its log: every test that
// reads the live state, around every op and after every recovery's
// replay, checks the count.
func liveOf(c *Coordinator) ([]string, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var recs []string
	n := 0
	c.liveRecords(func(recType uint32, p []byte) {
		recs = append(recs, fmt.Sprintf("%d:%x", recType, p))
		n += 24 + len(p)
	})
	if got := c.liveSize(); got != n {
		panic(fmt.Sprintf("the coordinator registers a live size of %d bytes, its live records are %d", got, n))
	}
	sort.Strings(recs)
	return recs, n
}

// recovered rebuilds a coordinator's state from journal, as Restart does
// before it finishes the recovered intentions.
func recovered(t *testing.T, journal *wal.MemStore) *Coordinator {
	t.Helper()
	log, err := wal.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	c := newCoordinator(Config{Log: log})
	if err := c.recoverState(log); err != nil {
		t.Fatal(err)
	}
	return c
}

// newJournaled returns a coordinator over a tee store, not serving: the
// tests drive Intend and Complete directly.
func newJournaled(t *testing.T) (*Coordinator, *teeStore) {
	t.Helper()
	tee := newTeeStore()
	log, err := wal.Open(tee)
	if err != nil {
		t.Fatal(err)
	}
	return newCoordinator(Config{Log: log}), tee
}

// TestCompactionEquivalentToFullJournal: intend/complete churn that
// leaves some intentions pending. Around every op during which the
// journal compacted, the crash copies taken just before and just after it
// recover exactly the pending set of every acknowledged op; a restart
// from the compacted journal and its suffix equals one from the full,
// never-compacted journal. The journal stays within twice the larger of
// its live state and the compaction floor.
func TestCompactionEquivalentToFullJournal(t *testing.T) {
	c, tee := newJournaled(t)
	rng := rand.New(rand.NewSource(9))
	var pending []uint64
	events := 0
	for op := 0; op < 6000; op++ {
		before, n := tee.MemStore.CrashCopy(), tee.compactions.Load()
		beforeLive, _ := liveOf(c)
		if len(pending) == 0 || rng.Intn(100) < 52 {
			id, err := c.Intend(OpRemove, testFH(uint64(op)), uint64(op))
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, id)
		} else {
			i := rng.Intn(len(pending))
			c.Complete(pending[i])
			pending = slices.Delete(pending, i, i+1)
		}
		journal, _ := tee.Contents()
		live, liveBytes := liveOf(c)
		if limit := 2 * max(liveBytes, wal.CompactFloor); len(journal) > limit {
			t.Fatalf("op %d: journal holds %d bytes, over 2 × max(%d live, %d floor)", op, len(journal), liveBytes, wal.CompactFloor)
		}
		if tee.compactions.Load() == n {
			continue
		}
		events++
		if got, _ := liveOf(recovered(t, before)); !slices.Equal(got, beforeLive) {
			t.Fatalf("op %d: the crash copy from before the compaction recovers another state", op)
		}
		after := recovered(t, tee.MemStore.CrashCopy())
		if got, _ := liveOf(after); !slices.Equal(got, live) || after.PendingIntentions() != len(pending) {
			t.Fatalf("op %d: the crash copy from after the compaction lost an acknowledged op", op)
		}
		if got, _ := liveOf(recovered(t, tee.full.CrashCopy())); !slices.Equal(got, live) {
			t.Fatalf("op %d: a restart from the full journal differs from one from the compacted journal", op)
		}
	}
	if events < 3 || len(pending) == 0 {
		t.Fatalf("%d compactions, %d intentions pending: want several and some", events, len(pending))
	}
}

// TestNoIntentionIDReuseAfterCompaction: the highest intention ID issued
// is completed before a checkpoint, so no pending intention carries it;
// the next intention after a restart from the compacted journal still
// gets a larger ID.
func TestNoIntentionIDReuseAfterCompaction(t *testing.T) {
	c, tee := newJournaled(t)
	if _, err := c.Intend(OpTruncate, testFH(1), 10); err != nil { // stays pending
		t.Fatal(err)
	}
	highest, err := c.Intend(OpRemove, testFH(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Complete(highest)
	if err := c.cfg.Log.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r := recovered(t, tee.MemStore.CrashCopy())
	if r.PendingIntentions() != 1 {
		t.Fatalf("%d intentions pending after restart, want 1", r.PendingIntentions())
	}
	id, err := r.Intend(OpRemove, testFH(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if id <= highest {
		t.Fatalf("intention after a restart from the compacted journal got ID %d, not past %d", id, highest)
	}
}
