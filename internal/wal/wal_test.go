package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestAppendScanRoundTrip(t *testing.T) {
	store := NewMemStore()
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := log.Append(uint32(i%3), []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	var seen []string
	err = log.Scan(func(seq uint64, recType uint32, payload []byte) error {
		seen = append(seen, fmt.Sprintf("%d:%d:%s", seq, recType, payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 {
		t.Fatalf("scanned %d records, want 10", len(seen))
	}
	if seen[0] != "1:0:record-0" || seen[9] != "10:0:record-9" {
		t.Fatalf("unexpected records: %v", seen)
	}
}

func TestSequenceNumbersSurviveReopen(t *testing.T) {
	store := NewMemStore()
	log, _ := Open(store)
	seq1, _ := log.AppendSync(1, []byte("a"))
	log2, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	seq2, _ := log2.AppendSync(1, []byte("b"))
	if seq2 <= seq1 {
		t.Fatalf("sequence did not advance across reopen: %d then %d", seq1, seq2)
	}
}

// TestCrashLosesUnsyncedTail: records appended but not synced disappear
// after a crash; synced records survive.
func TestCrashLosesUnsyncedTail(t *testing.T) {
	store := NewMemStore()
	log, _ := Open(store)
	if _, err := log.AppendSync(1, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(1, []byte("volatile")); err != nil {
		t.Fatal(err)
	}
	crashed := store.CrashCopy()
	log2, err := Open(crashed)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	_ = log2.Scan(func(seq uint64, recType uint32, payload []byte) error {
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if len(payloads) != 1 || !bytes.Equal(payloads[0], []byte("durable")) {
		t.Fatalf("after crash: %q, want only the durable record", payloads)
	}
}

// TestTornTailIgnored: a partial final record (mid-append crash) must not
// poison the scan.
func TestTornTailIgnored(t *testing.T) {
	store := NewMemStore()
	log, _ := Open(store)
	_, _ = log.AppendSync(1, []byte("whole"))
	// Simulate a torn append: write half a frame directly.
	_ = store.Append([]byte{0x51, 0xC3, 0x10, 0x6E, 0x00, 0x00})
	_ = store.Sync()
	log2, err := Open(store)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	count := 0
	if err := log2.Scan(func(uint64, uint32, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("scanned %d records, want 1", count)
	}
}

// TestMidLogCorruptionDetected: corruption before the tail is an error,
// not a silent truncation.
func TestMidLogCorruptionDetected(t *testing.T) {
	store := NewMemStore()
	log, _ := Open(store)
	_, _ = log.AppendSync(1, bytes.Repeat([]byte("x"), 100))
	_, _ = log.AppendSync(1, bytes.Repeat([]byte("y"), 100))
	data, _ := store.Contents()
	data[30] ^= 0xFF // flip a bit inside the first record's payload
	bad := NewMemStore()
	_ = bad.Append(data)
	_ = bad.Sync()
	if _, err := Open(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestCheckpointResetsLogKeepsSeq: a checkpoint compacts the log to the
// records live emits (none at first), numbered on from the last sequence
// number, and the rewrite is durable at once: a crash right after it
// reopens with exactly the live records, and sequence numbers stay
// monotone across it.
func TestCheckpointResetsLogKeepsSeq(t *testing.T) {
	store := NewMemStore()
	log, _ := Open(store)
	seq1, _ := log.AppendSync(1, []byte("pre"))
	if err := log.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	count := 0
	_ = log.Scan(func(uint64, uint32, []byte) error { count++; return nil })
	if count != 0 {
		t.Fatalf("%d records after checkpoint, want 0", count)
	}
	seq2, _ := log.AppendSync(1, []byte("post"))
	if seq2 <= seq1 {
		t.Fatalf("sequence regressed after checkpoint: %d then %d", seq1, seq2)
	}

	// Compact to two live records, under the role's lock, with an
	// unsynced record pending: the crash copy holds the live records and
	// nothing else.
	var role sync.Mutex
	locked := false
	setLive(log, &role, func(emit func(uint32, []byte)) {
		locked = !role.TryLock()
		for _, p := range []string{"a", "b"} {
			emit(2, []byte(p))
		}
	}, func() int { return 2 * FrameLen(1) })
	_, _ = log.Append(1, []byte("unsynced"))
	if err := log.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !locked {
		t.Fatal("Checkpoint ran live without the role's lock")
	}
	reopened, err := Open(store.CrashCopy())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := scanAll(reopened)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("%d:2:%x", seq2+2, "a"),
		fmt.Sprintf("%d:2:%x", seq2+3, "b"),
	}
	if !slices.Equal(recs, want) {
		t.Fatalf("crash copy after compaction replays %v, want %v", recs, want)
	}
	if seq3, _ := reopened.AppendSync(1, []byte("next")); seq3 != seq2+4 {
		t.Fatalf("reopened log appends seq %d, want %d", seq3, seq2+4)
	}
	if st := log.Stats(); st.Appends != 3 || st.Bytes != uint64(3*(headerLen+crcLen)+len("pre")+len("post")+len("unsynced")) {
		t.Fatalf("stats %+v count the compaction output", st)
	}
}

// TestCompactionPolicy: a log with live state compacts when a record
// would take it past twice the role's registered live image (and past the
// floor), before that record is appended, so it never holds more than
// max(2 × its live image, CompactFloor) bytes.
func TestCompactionPolicy(t *testing.T) {
	store := NewMemStore()
	log, _ := Open(store)
	payload := make([]byte, 1000)
	frame := FrameLen(len(payload))
	liveRecs := 0
	setLive(log, nil, func(emit func(uint32, []byte)) {
		for i := 0; i < liveRecs; i++ {
			emit(3, payload)
		}
	}, func() int { return liveRecs * frame })
	compactions := 0
	for i := 0; i < 2000; i++ {
		liveRecs = i / 10 // live state grows at a tenth of the append rate
		before := log.size
		seq, err := log.Append(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := store.Contents()
		if len(data) != log.size {
			t.Fatalf("append %d: the log thinks it holds %d bytes, the store %d", i, log.size, len(data))
		}
		if log.size < before {
			compactions++
			if want := (liveRecs + 1) * frame; log.size != want {
				t.Fatalf("append %d: %d bytes after compaction, want %d live records + the new one", i, log.size, liveRecs)
			}
			recs, _ := scanAll(log)
			if last := recs[len(recs)-1]; !strings.HasPrefix(last, fmt.Sprintf("%d:1:", seq)) {
				t.Fatalf("append %d: the triggering record %q is not last after compaction", i, last)
			}
		}
		if limit := max(2*liveRecs*frame, CompactFloor); log.size > limit {
			t.Fatalf("append %d: %d bytes, over the limit %d", i, log.size, limit)
		}
	}
	if compactions < 3 || uint64(compactions) != log.Stats().Compactions {
		t.Fatalf("%d compactions over 2000 appends (Stats counts %d), want several and equal", compactions, log.Stats().Compactions)
	}
}

// TestCompactionRuleByCount pins when a log compacts, by count. A journal
// whose every record stays live never compacts, however far past the
// floor it grows: there is no garbage to reclaim. A journal of pure
// overwrites — a live set of k records, each append replacing the oldest —
// compacts exactly at the appends that would take it past twice its live
// image: at the 2k+1st append, then at every kth.
func TestCompactionRuleByCount(t *testing.T) {
	payload := make([]byte, 500)
	frame := FrameLen(len(payload))

	t.Run("all-live", func(t *testing.T) {
		log, _ := Open(NewMemStore())
		n := 0
		setLive(log, nil, func(emit func(uint32, []byte)) {
			for i := 0; i < n; i++ {
				emit(1, payload)
			}
		}, func() int { return n * frame })
		for i := 0; i < 4*CompactFloor/frame; i++ {
			n++ // the record is live before it is appended, as in a role
			if _, err := log.Append(1, payload); err != nil {
				t.Fatal(err)
			}
		}
		if st := log.Stats(); st.Compactions != 0 || st.Size != uint64(n*frame) || st.Live != st.Size {
			t.Fatalf("an all-live journal of %d bytes: %+v, want no compaction and Size = Live", n*frame, st)
		}
	})

	t.Run("overwrites", func(t *testing.T) {
		const k = 100 // 2 × k frames is past the floor
		if 2*k*frame <= CompactFloor {
			t.Fatal("the live set does not reach past half the floor")
		}
		log, _ := Open(NewMemStore())
		live := 0
		setLive(log, nil, func(emit func(uint32, []byte)) {
			for i := 0; i < live; i++ {
				emit(1, payload)
			}
		}, func() int { return live * frame })
		const appends = 5000
		var want uint64
		for i := 0; i < appends; i++ {
			live = min(i+1, k)
			before := log.size
			compacts := before+frame > max(2*live*frame, CompactFloor)
			if compacts {
				want++
			}
			if _, err := log.Append(1, payload); err != nil {
				t.Fatal(err)
			}
			if got := log.Stats().Compactions; got != want {
				t.Fatalf("append %d at %d bytes, %d live: %d compactions, want %d", i, before, live*frame, got, want)
			}
			if compacts && log.size != (k+1)*frame {
				t.Fatalf("append %d: %d bytes after compaction, want the %d live records and the new one", i, log.size, k)
			}
		}
		// The first compaction comes when the journal would pass 2k
		// frames, at append 2k (from 0); each one leaves k + 1 (the live
		// set holds the triggering record too), so the next comes k
		// appends on.
		if closed := uint64(1 + (appends-1-2*k)/k); want != closed {
			t.Fatalf("%d compactions over %d overwrites, want %d", want, appends, closed)
		}
	})
}

func TestGroupCommit(t *testing.T) {
	store := NewMemStore()
	log, _ := Open(store)
	for i := 0; i < 100; i++ {
		if _, err := log.Append(1, []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil { // no-op: nothing dirty
		t.Fatal(err)
	}
	if got := store.Syncs(); got != 1 {
		t.Fatalf("store synced %d times for 100 appends + 2 Sync calls, want 1", got)
	}
	st := log.Stats()
	if st.Appends != 100 || st.Syncs != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEmptyLogScan(t *testing.T) {
	log, err := Open(NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Scan(func(uint64, uint32, []byte) error {
		t.Fatal("callback on empty log")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestScanCallbackErrorPropagates(t *testing.T) {
	log, _ := Open(NewMemStore())
	_, _ = log.AppendSync(1, []byte("x"))
	sentinel := errors.New("stop")
	if err := log.Scan(func(uint64, uint32, []byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

// setLive registers live and size with l as a role of one shard, guarded
// by mu.
func setLive(l *Log, mu *sync.Mutex, live func(emit func(uint32, []byte)), size func() int) {
	l.SetLive(size, Shard{Mu: mu, Live: live})
}

func TestLargePayloads(t *testing.T) {
	log, _ := Open(NewMemStore())
	big := bytes.Repeat([]byte{0xAB}, 1<<16)
	if _, err := log.AppendSync(9, big); err != nil {
		t.Fatal(err)
	}
	var got []byte
	_ = log.Scan(func(_ uint64, _ uint32, p []byte) error {
		got = append([]byte(nil), p...)
		return nil
	})
	if !bytes.Equal(got, big) {
		t.Fatal("large payload mismatch")
	}
}

// sliceStore is the MemStore this package had before the segmented one —
// the whole log in one slice that append regrows and re-copies — kept as
// its oracle.
type sliceStore struct {
	buf          []byte
	durable, cut int
}

func (m *sliceStore) Append(p []byte) error  { m.buf = append(m.buf, p...); return nil }
func (m *sliceStore) Sync() error            { m.durable = len(m.buf); return nil }
func (m *sliceStore) Restate(p []byte) error { return m.Append(p) }
func (m *sliceStore) Cut() error             { m.cut = len(m.buf); return nil }
func (m *sliceStore) Drop() error {
	m.buf = append([]byte(nil), m.buf[m.cut:]...)
	m.durable, m.cut = len(m.buf), 0
	return nil
}
func (m *sliceStore) Contents() ([]byte, error) {
	return append([]byte{}, m.buf...), nil
}
func (m *sliceStore) crashCopy() *sliceStore {
	return &sliceStore{buf: append([]byte(nil), m.buf[:m.durable]...), durable: m.durable}
}

// scanAll replays a log into one comparable string per record, plus the
// error the scan ended with.
func scanAll(l *Log) ([]string, error) {
	var recs []string
	err := l.Scan(func(seq uint64, recType uint32, payload []byte) error {
		recs = append(recs, fmt.Sprintf("%d:%d:%x", seq, recType, payload))
		return nil
	})
	return recs, err
}

// TestMemStoreMatchesSliceOracle drives a log over the segmented MemStore
// and one over the one-slice oracle with the same random appends, syncs,
// torn tails, crashes and compactions — records sized to straddle the 4,
// 8, 16 KiB … segment boundaries, and the boundary between a compacted
// journal's segment and the next — and requires the same bytes, the same
// replay and the same crash survivors from both at every step.
func TestMemStoreMatchesSliceOracle(t *testing.T) {
	for _, seed := range []int64{1, 42, 777} {
		rng := rand.New(rand.NewSource(seed))
		store, oracle := NewMemStore(), &sliceStore{}
		// The "live state" both logs compact to: the last few records
		// appended, as many as keep says.
		var recent [][]byte
		keep, straddled, compacted := 0, 0, false
		live := func(emit func(uint32, []byte)) {
			compacted = true
			for _, p := range recent[len(recent)-min(keep, len(recent)):] {
				emit(uint32(len(p)), p)
			}
		}
		size := func() int {
			n := 0
			for _, p := range recent[len(recent)-min(keep, len(recent)):] {
				n += FrameLen(len(p))
			}
			return n
		}
		open := func() (*Log, *Log) {
			t.Helper()
			a, errA := Open(store)
			b, errB := Open(oracle)
			if (errA == nil) != (errB == nil) || errors.Is(errA, ErrCorrupt) != errors.Is(errB, ErrCorrupt) {
				t.Fatalf("seed %d: Open: %v over segments, %v over the oracle", seed, errA, errB)
			}
			if a != nil {
				setLive(a, nil, live, size)
				setLive(b, nil, live, size)
			}
			return a, b
		}
		log, olog := open()
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(20); {
			case op < 12: // a record, often larger than what is left of the segment
				payload := make([]byte, rng.Intn(3000))
				rng.Read(payload)
				recType := rng.Uint32()
				keep = 20 // the policy compacts to the last 20 records
				segs := len(store.segs)
				s1, err1 := log.Append(recType, payload)
				s2, err2 := olog.Append(recType, payload)
				if s1 != s2 || err1 != nil || err2 != nil {
					t.Fatalf("seed %d step %d: Append: seq %d (%v) vs %d (%v)", seed, step, s1, err1, s2, err2)
				}
				recent = append(recent, payload)
				if compacted && len(store.segs) > segs {
					straddled++ // out of the compacted journal's segment
					compacted = false
				}
			case op < 16:
				_, _ = log.Sync(), olog.Sync()
			case op == 16: // a torn tail: the start of a frame, appended beneath the log and made durable
				var frame [headerLen]byte
				binary.BigEndian.PutUint32(frame[:], recMagic)
				torn := frame[:1+rng.Intn(headerLen-1)]
				_, _ = store.Append(torn), oracle.Append(torn)
				_, _ = store.Sync(), oracle.Sync()
				// Nothing can follow a torn tail but a restart.
				fallthrough
			case op == 17: // crash: only what was synced survives, and the logs reopen on it
				store, oracle = store.CrashCopy(), oracle.crashCopy()
				compacted = false
				if log, olog = open(); log == nil {
					// Both refused the survivors alike: start over.
					store, oracle = NewMemStore(), &sliceStore{}
					log, olog = open()
				}
			case op == 18: // a checkpoint: compaction to anywhere from none to 12 of the last records
				keep = rng.Intn(13)
				if err1, err2 := log.Checkpoint(), olog.Checkpoint(); err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
			case op == 19:
				recs, err := scanAll(log)
				orecs, oerr := scanAll(olog)
				if !slices.Equal(recs, orecs) || (err == nil) != (oerr == nil) {
					t.Fatalf("seed %d step %d: Scan replays %d records (%v), the oracle %d (%v)", seed, step, len(recs), err, len(orecs), oerr)
				}
			}
			got, _ := store.Contents()
			want, _ := oracle.Contents()
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: Contents differ: %d bytes over segments, %d over the oracle", seed, step, len(got), len(want))
			}
		}
		if straddled == 0 {
			t.Fatalf("seed %d: no append crossed out of a compacted journal's segment", seed)
		}
	}
}

// TestAppendAllocatesNothing: a record costs no allocation — the frame is
// built in the log's scratch and copied into a segment that is already
// there (a new one comes once per maxSegment bytes, not per record).
func TestAppendAllocatesNothing(t *testing.T) {
	log, err := Open(NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 120)
	for i := 0; i < 2*maxSegment/len(payload); i++ { // into the full-size segments
		if _, err := log.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := log.AppendSync(1, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendSync allocates %v times per record, want 0", n)
	}
}
