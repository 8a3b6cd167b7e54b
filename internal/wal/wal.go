// Package wal implements the write-ahead log used by Slice file managers.
//
// Directory servers, small-file servers, and the block-service coordinator
// keep their durable state in a journal of updates (§2.3); a small-file
// server also keeps its fragment store beside its journal. The system
// recovers a failed manager by replaying its log (against that fragment
// store, for a small-file server), which is what enables fast failover to
// a surviving site.
//
// Records are framed with a magic number, a monotonically increasing
// sequence number, a record type, and a CRC-32 over the frame. A torn final
// record (from a crash mid-append) is detected by the CRC and ignored, as
// in Hagmann-style logging [10]. Group commit is supported by buffering
// appends until Sync. A log compacts itself to the records of its role's
// live state, one shard of it at a time (SetLive): a checkpoint is the
// journal compacted.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"time"
)

// Store is the durable medium beneath a log. In the prototype it is an
// in-memory store with an explicit durability horizon so tests can simulate
// crashes; in a deployment it would be a storage-service object.
type Store interface {
	// Append adds a copy of p to the store buffer (not yet durable); p is
	// the caller's again when it returns.
	Append(p []byte) error
	// Sync makes all appended bytes durable.
	Sync() error
	// Contents returns the durable byte sequence.
	Contents() ([]byte, error)
	// Cut marks the current end of the content: the next Drop discards
	// everything before it.
	Cut() error
	// Restate is Append for a checkpoint's records, which restate state
	// the records before the last Cut hold: they go where Append's go, in
	// order with them, but a store that keeps the whole history may leave
	// them out.
	Restate(p []byte) error
	// Drop makes every appended byte durable and discards the bytes
	// before the last Cut, in one step: a crash sees the content with
	// them or without them, never a mix.
	Drop() error
}

// MemStore is an in-memory Store that distinguishes buffered from durable
// bytes. CrashCopy returns a view holding only the durable prefix, which
// tests use to simulate power failure.
//
// The log is held in fixed segments, so bytes once appended never move:
// Append copies p and nothing else, however long the log has grown. Every
// segment but the last is full; sizes double from minSegment to maxSegment,
// so an idle log costs a few KiB and a busy one allocates once per MiB. A
// Cut closes the last segment, so a Drop lets go of whole segments.
type MemStore struct {
	mu      sync.Mutex
	segs    [][]byte
	size    int // bytes appended
	durable int // bytes guaranteed to survive a crash
	syncs   uint64
	// cut is the number of segments before the last Cut, cutSize the
	// bytes they hold.
	cut, cutSize int
}

const (
	minSegment = 4 << 10
	maxSegment = 1 << 20
)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append implements Store.
func (m *MemStore) Append(p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.size += len(p)
	for len(p) > 0 {
		last := len(m.segs) - 1
		if last < 0 || len(m.segs[last]) == cap(m.segs[last]) {
			n := minSegment
			if last >= 0 {
				n = min(max(2*cap(m.segs[last]), minSegment), maxSegment)
			}
			m.segs = append(m.segs, make([]byte, 0, n))
			last++
		}
		seg := m.segs[last]
		n := copy(seg[len(seg):cap(seg)], p)
		m.segs[last] = seg[:len(seg)+n]
		p = p[n:]
	}
	return nil
}

// Sync implements Store.
func (m *MemStore) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.durable = m.size
	m.syncs++
	return nil
}

// Syncs returns the number of Sync calls, for group-commit accounting.
func (m *MemStore) Syncs() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

// Contents implements Store. It returns everything appended; after a
// simulated crash use CrashCopy to get only the durable prefix.
func (m *MemStore) Contents() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.prefix(m.size), nil
}

// prefix returns a copy of the first n bytes of the log.
func (m *MemStore) prefix(n int) []byte {
	out := make([]byte, 0, n)
	for _, seg := range m.segs {
		out = append(out, seg[:min(len(seg), n-len(out))]...)
	}
	return out
}

// Restate implements Store: it is Append.
func (m *MemStore) Restate(p []byte) error { return m.Append(p) }

// Cut implements Store: the last segment takes no more bytes, so the
// cut falls between segments.
func (m *MemStore) Cut() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if last := len(m.segs) - 1; last >= 0 {
		m.segs[last] = m.segs[last][:len(m.segs[last]):len(m.segs[last])]
	}
	m.cut, m.cutSize = len(m.segs), m.size
	return nil
}

// Drop implements Store: the segments before the cut go, and what is
// left is durable, in one step.
func (m *MemStore) Drop() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.segs = append([][]byte(nil), m.segs[m.cut:]...)
	m.size -= m.cutSize
	m.durable = m.size
	m.cut, m.cutSize = 0, 0
	return nil
}

// CrashCopy returns a new store containing only the bytes durable at the
// last Sync, simulating loss of buffered data in a crash.
func (m *MemStore) CrashCopy() *MemStore {
	m.mu.Lock()
	durable := m.prefix(m.durable)
	m.mu.Unlock()
	return &MemStore{segs: [][]byte{durable}, size: len(durable), durable: len(durable)}
}

const (
	recMagic  = 0x51C3106E // "Slice log"
	headerLen = 4 + 8 + 4 + 4
	crcLen    = 4
)

// FrameLen is the journal length of a record whose payload is n bytes:
// the unit a role counts its live image in (SetLive).
func FrameLen(n int) int { return headerLen + n + crcLen }

// ErrCorrupt indicates a damaged log record (other than a torn tail).
var ErrCorrupt = errors.New("wal: corrupt record")

// CompactFloor is the journal length below which a log never starts a
// checkpoint. Above it, a log starts one when a record would take it past
// twice its role's live image: it cleans only when the garbage it
// reclaims is at least the live state it copies, so checkpoints at most
// double the bytes written. A checkpoint step writes at least
// CompactFloor bytes, so a role of one shard, or an image that small, is
// checkpointed in the step that starts it, before the record that
// triggered it, and its journal holds at most 2 × max(live,
// CompactFloor) bytes plus one record.
const CompactFloor = 64 << 10

// Stats aggregates log activity for the experiments (Fig. 3 reports log
// traffic per directory server). Checkpoint output is not counted in
// Appends or Bytes.
type Stats struct {
	Appends uint64
	Syncs   uint64
	Bytes   uint64
	// Compactions counts checkpoints completed, Checkpoint's included,
	// and CompactNS the time their steps took. MaxStepNS is the longest
	// step: the longest a checkpoint held one shard's lock.
	Compactions uint64
	CompactNS   uint64
	MaxStepNS   uint64
	// Size is the journal's length now; Live is the role's live image as
	// it last registered it, at the last append or checkpoint.
	Size uint64
	Live uint64
}

// Shard is one lock's worth of a role's state, as its log checkpoints
// it: Mu guards it (nil: the caller of every Append does), and Live emits
// it as the records that rebuild it on replay. Live runs under Mu; it
// must not touch the log, nor any scratch that may still hold a payload
// being appended.
type Shard struct {
	Mu   *sync.Mutex
	Live func(emit func(recType uint32, payload []byte))
}

// Log is a write-ahead journal over a Store.
type Log struct {
	mu        sync.Mutex
	store     Store
	nextSeq   uint64
	appendGen uint64 // bumped by every Append
	syncGen   uint64 // appendGen horizon known durable
	stats     Stats
	frame     []byte // Append's framing scratch, reused under mu

	size     int        // the store's length
	liveSize func() int // the journal length the shards emit, O(1)
	shards   []Shard
	// ck is the checkpoint in progress, if open, under mu: cut is the
	// store's length at its cut, left the shards it has still to write,
	// in ascending order, and wrote the bytes it has written.
	ck struct {
		open       bool
		cut, wrote int
		left       []int
	}
	// stepMu is held by the one goroutine taking a checkpoint step,
	// which owns the fields below: snap, the step's framing scratch;
	// emit, l.restate bound once; restated and failed, the bytes write
	// has restated of a shard and the error it met. A step releases mu
	// while a shard encodes its records, and takes it again to number
	// and append each CompactFloor of them. Lock order: a role's shard
	// locks, then stepMu (Append only tries it), then mu; Checkpoint
	// takes stepMu before it waits on a shard lock, holding no other.
	stepMu   sync.Mutex
	snap     []byte
	emit     func(recType uint32, payload []byte)
	restated int
	failed   error

	// syncMu serializes store.Sync and forms the group-commit queue:
	// callers blocked here when the leader finishes usually find their
	// records already durable and return without another device sync.
	// Lock order: a role's shard locks, then syncMu, then mu.
	syncMu sync.Mutex
}

// Open attaches to a store, scanning existing durable records to find the
// next sequence number.
func Open(store Store) (*Log, error) {
	l := &Log{store: store, nextSeq: 1}
	err := l.Scan(func(seq uint64, recType uint32, payload []byte) error {
		if seq >= l.nextSeq {
			l.nextSeq = seq + 1
		}
		l.size += FrameLen(len(payload))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// SetLive registers, before the log is shared, the role's state as
// shards, and size, which returns the journal length all their Live
// functions emit (the sum of their records' FrameLen) in O(1), and so
// lets the log checkpoint itself. The role appends a record only while it
// holds the lock of the shard the record is of — shard 0 for Append, the
// one AppendIn names otherwise — so an object's records and its snapshot
// reach the journal under one lock, in the order they were made.
//
// A checkpoint is fuzzy. When a record would take the journal past
// max(2 × size, CompactFloor), the log cuts the store at its end; then
// every Append while the checkpoint is open takes one step before it
// frames its own record: it writes the records of the next shards, each
// under its lock, at least CompactFloor bytes, and on to the last shard
// once less than that of the image is left to write. A step writes the
// caller's own shard at once, and leaves a shard whose lock another holds
// (TryLock) to a later step, so it never waits on a shard lock. After the
// last shard the store drops everything before the cut. A role's replay
// must make that correct: every record carries post-state and replays
// idempotently, so the records of a shard that follow the cut replay the
// same whether the shard's earlier history is there or not, and its
// snapshot asserts the state those before it had built.
//
// size decides only when the log checkpoints, never what it writes: a
// count too low checkpoints too often, one too high lets the journal grow
// longer first, and either way the journal is the shards' records.
func (l *Log) SetLive(size func() int, shards ...Shard) {
	l.liveSize, l.shards, l.emit = size, shards, l.restate
}

// Stats returns a snapshot of log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Size = uint64(l.size)
	return st
}

// Append buffers a record of shard 0 (a role of one shard appends only
// these); it becomes durable at the next Sync.
func (l *Log) Append(recType uint32, payload []byte) (uint64, error) {
	return l.AppendIn(0, recType, payload)
}

// AppendIn buffers a record of shard, whose lock the caller holds; it
// becomes durable at the next Sync.
func (l *Log) AppendIn(shard int, recType uint32, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := FrameLen(len(payload))
	if l.liveSize != nil {
		live := l.liveSize()
		l.stats.Live = uint64(live)
		if !l.ck.open && l.size+n > max(2*live, CompactFloor) {
			if err := l.cut(); err != nil {
				return 0, err
			}
		}
		if l.ck.open && l.stepMu.TryLock() {
			err := l.step(shard, live)
			l.stepMu.Unlock()
			if err != nil {
				return 0, err
			}
		}
	}
	seq := l.nextSeq
	l.nextSeq++
	l.frame = appendFrame(l.frame[:0], seq, recType, payload)
	if err := l.store.Append(l.frame); err != nil {
		return 0, err
	}
	l.size += n
	l.appendGen++
	l.stats.Appends++
	l.stats.Bytes += uint64(n)
	return seq, nil
}

// appendFrame appends one framed record to dst.
func appendFrame(dst []byte, seq uint64, recType uint32, payload []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, recMagic)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, recType)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// cut opens a checkpoint at the store's end. The caller holds mu.
func (l *Log) cut() error {
	if err := l.store.Cut(); err != nil {
		return err
	}
	l.ck.open, l.ck.cut, l.ck.wrote = true, l.size, 0
	l.ck.left = l.ck.left[:0]
	for k := range l.shards {
		l.ck.left = append(l.ck.left, k)
	}
	return nil
}

// step takes one step of the open checkpoint for the holder of shard
// held, of a role whose live image is live bytes (see SetLive), and
// closes the checkpoint after its last shard. The caller holds mu and
// stepMu.
func (l *Log) step(held, live int) error {
	start := time.Now()
	defer l.timed(start)
	wrote := 0
	for i := 0; i < len(l.ck.left); {
		if wrote >= CompactFloor && live-l.ck.wrote >= CompactFloor {
			return nil
		}
		k := l.ck.left[i]
		mu := l.shards[k].Mu
		if k != held && mu != nil && !mu.TryLock() {
			i++
			continue
		}
		n, err := l.write(k)
		if k != held && mu != nil {
			mu.Unlock()
		}
		if err != nil {
			return err
		}
		l.ck.left = slices.Delete(l.ck.left, i, i+1)
		wrote += n
	}
	if len(l.ck.left) == 0 {
		return l.finish()
	}
	return nil
}

// write appends shard k's records to the store and returns their
// length. The caller holds mu, stepMu and k's lock; write releases mu
// while the shard emits its records (restate).
func (l *Log) write(k int) (int, error) {
	l.restated, l.failed = 0, nil
	l.mu.Unlock()
	l.shards[k].Live(l.emit)
	l.mu.Lock()
	l.flush()
	l.ck.wrote += l.restated
	return l.restated, l.failed
}

// restate frames one record of the shard write is writing, numbered and
// sealed again by flush, and flushes each CompactFloor bytes.
func (l *Log) restate(recType uint32, payload []byte) {
	l.snap = appendFrame(l.snap, 0, recType, payload)
	if len(l.snap) >= CompactFloor {
		l.mu.Lock()
		l.flush()
		l.mu.Unlock()
	}
}

// flush numbers the records framed so far on from nextSeq, seals each
// with its CRC and hands them to the store. The caller holds mu.
func (l *Log) flush() {
	for rec := l.snap; len(rec) > 0; {
		n := headerLen + int(binary.BigEndian.Uint32(rec[16:]))
		binary.BigEndian.PutUint64(rec[4:], l.nextSeq)
		l.nextSeq++
		binary.BigEndian.PutUint32(rec[n:], crc32.ChecksumIEEE(rec[:n]))
		rec = rec[n+crcLen:]
	}
	if l.failed == nil && len(l.snap) > 0 {
		if l.failed = l.store.Restate(l.snap); l.failed == nil {
			l.restated += len(l.snap)
			l.size += len(l.snap)
		}
	}
	l.snap = l.snap[:0]
}

// finish closes the checkpoint: the store makes the journal durable and
// drops everything before the cut. The caller holds mu.
func (l *Log) finish() error {
	if err := l.store.Drop(); err != nil {
		return err
	}
	l.size -= l.ck.cut
	l.syncGen = l.appendGen
	l.stats.Live = uint64(l.ck.wrote)
	l.stats.Compactions++
	l.ck.open = false
	return nil
}

// timed counts a step that began at start. The caller holds mu.
func (l *Log) timed(start time.Time) {
	d := uint64(time.Since(start))
	l.stats.CompactNS += d
	l.stats.MaxStepNS = max(l.stats.MaxStepNS, d)
}

// Checkpoint completes a checkpoint now — the open one, or one it cuts —
// taking each shard's lock in turn, so the caller must hold none. With no
// shards registered the journal is dropped whole; the sequence goes on.
func (l *Log) Checkpoint() error {
	l.stepMu.Lock()
	defer l.stepMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.ck.open {
		if err := l.cut(); err != nil {
			return err
		}
	}
	for len(l.ck.left) > 0 {
		mu := l.shards[l.ck.left[0]].Mu
		if mu != nil {
			l.mu.Unlock()
			mu.Lock()
			l.mu.Lock()
		}
		start := time.Now()
		_, err := l.write(l.ck.left[0])
		l.timed(start)
		if mu != nil {
			mu.Unlock()
		}
		if err != nil {
			return err
		}
		l.ck.left = slices.Delete(l.ck.left, 0, 1)
	}
	return l.finish()
}

// Sync forces buffered records to durable storage (group commit point).
// It returns once every record appended before the call is durable, but
// does not hold the log mutex across the store sync: concurrent Sync
// callers queue behind one leader and piggyback on its device sync, so a
// slow store stalls only the records actually waiting on it — not every
// Append, Scan, and Stats on the log.
func (l *Log) Sync() error {
	l.mu.Lock()
	goal := l.appendGen
	done := l.syncGen >= goal
	l.mu.Unlock()
	if done {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.syncGen >= goal {
		// The previous leader's sync covered our records: group commit.
		l.mu.Unlock()
		return nil
	}
	horizon := l.appendGen
	l.mu.Unlock()
	if err := l.store.Sync(); err != nil {
		return err
	}
	l.mu.Lock()
	if horizon > l.syncGen {
		l.syncGen = horizon
	}
	l.stats.Syncs++
	l.mu.Unlock()
	return nil
}

// AppendSync appends a record and immediately makes it durable.
func (l *Log) AppendSync(recType uint32, payload []byte) (uint64, error) {
	seq, err := l.Append(recType, payload)
	if err != nil {
		return 0, err
	}
	return seq, l.Sync()
}

// Scan replays durable records in order. A torn or corrupt tail record
// terminates the scan without error (it could not have been acknowledged);
// corruption before the tail returns ErrCorrupt.
func (l *Log) Scan(fn func(seq uint64, recType uint32, payload []byte) error) error {
	l.mu.Lock()
	data, err := l.store.Contents()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < headerLen+crcLen {
			return nil // torn tail
		}
		if binary.BigEndian.Uint32(rest[0:]) != recMagic {
			if off == 0 {
				return fmt.Errorf("%w: bad magic at offset 0", ErrCorrupt)
			}
			return nil // garbage after the last full record
		}
		seq := binary.BigEndian.Uint64(rest[4:])
		recType := binary.BigEndian.Uint32(rest[12:])
		// Bound the on-disk length against the remaining data BEFORE any
		// int arithmetic: a corrupt plen near 1<<31 would overflow
		// headerLen+plen+crcLen on 32-bit platforms and defeat the torn-
		// tail check. Comparing in uint64 space is exact for any value.
		plen64 := uint64(binary.BigEndian.Uint32(rest[16:]))
		if plen64 > uint64(len(rest)-headerLen-crcLen) {
			return nil // torn tail (or insane length: cannot be a full record)
		}
		plen := int(plen64)
		want := binary.BigEndian.Uint32(rest[headerLen+plen:])
		got := crc32.ChecksumIEEE(rest[:headerLen+plen])
		if want != got {
			if off+headerLen+plen+crcLen >= len(data) {
				return nil // torn tail
			}
			return fmt.Errorf("%w: crc mismatch at offset %d", ErrCorrupt, off)
		}
		if err := fn(seq, recType, rest[headerLen:headerLen+plen]); err != nil {
			return err
		}
		off += headerLen + plen + crcLen
	}
	return nil
}
