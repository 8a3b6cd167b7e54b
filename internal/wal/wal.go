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
// live state (SetLive): a checkpoint is the journal compacted.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
	// Replace discards all content and installs p in its place, durable:
	// a crash sees either the old content or p, never a mix. The store
	// keeps p.
	Replace(p []byte) error
}

// MemStore is an in-memory Store that distinguishes buffered from durable
// bytes. CrashCopy returns a view holding only the durable prefix, which
// tests use to simulate power failure.
//
// The log is held in fixed segments, so bytes once appended never move:
// Append copies p and nothing else, however long the log has grown. Every
// segment but the last is full; sizes double from minSegment to maxSegment,
// so an idle log costs a few KiB and a busy one allocates once per MiB. A
// compacted journal is the first segment, as Replace received it.
type MemStore struct {
	mu      sync.Mutex
	segs    [][]byte
	size    int // bytes appended
	durable int // bytes guaranteed to survive a crash
	syncs   uint64
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

// Replace implements Store: p becomes the one segment, durable, in one
// step. Appends fill its spare capacity before they start a new segment.
func (m *MemStore) Replace(p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.segs, m.size, m.durable = [][]byte{p}, len(p), len(p)
	return nil
}

// CrashCopy returns a new store containing only the bytes durable at the
// last Sync, simulating loss of buffered data in a crash.
func (m *MemStore) CrashCopy() *MemStore {
	m.mu.Lock()
	durable := m.prefix(m.durable)
	m.mu.Unlock()
	c := &MemStore{}
	_ = c.Replace(durable) // cannot fail
	return c
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

// CompactFloor is the journal length below which a log never compacts.
// Above it, a log compacts when a record would take it past twice its
// role's live image: it cleans only when the garbage it reclaims is at
// least the live state it copies, so compaction at most doubles the bytes
// written, and the journal holds at most 2 × max(live, CompactFloor)
// bytes plus one record.
const CompactFloor = 64 << 10

// Stats aggregates log activity for the experiments (Fig. 3 reports log
// traffic per directory server). Compaction output is not counted in
// Appends or Bytes.
type Stats struct {
	Appends uint64
	Syncs   uint64
	Bytes   uint64
	// Compactions counts journal rewrites, Checkpoint's included, and
	// CompactNS the time they took: time under the role's lock.
	Compactions uint64
	CompactNS   uint64
	// Size is the journal's length now; Live is the role's live image as
	// it last registered it, at the last append or compaction.
	Size uint64
	Live uint64
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

	size     int // the store's length
	live     func(emit func(recType uint32, payload []byte))
	liveSize func() int  // the journal length live emits, O(1)
	roleMu   sync.Locker // guards the state live and liveSize read

	// syncMu serializes store.Sync and forms the group-commit queue:
	// callers blocked here when the leader finishes usually find their
	// records already durable and return without another device sync.
	// Lock order: syncMu before mu.
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

// SetLive registers, before the log is shared, the function that emits
// the role's current state as the records that rebuild it on replay, the
// function that returns those records' journal length (the sum of their
// FrameLen) in O(1), and the lock that guards that state, and so lets the
// log compact itself. Compaction runs inside Append, before the
// triggering record is framed: the role must append only while holding
// mu, and live must not touch the log, nor any scratch that may still hold
// the payload being appended. live and size run under mu, so no record
// can slip between the state live captures and the swap; a record already
// applied to that state replays idempotently after it.
//
// size decides only when the log compacts, never what it writes: a count
// too low compacts too often, one too high lets the journal grow longer
// first, and either way the journal is live's records.
func (l *Log) SetLive(mu sync.Locker, live func(emit func(recType uint32, payload []byte)), size func() int) {
	l.roleMu, l.live, l.liveSize = mu, live, size
}

// Stats returns a snapshot of log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Size = uint64(l.size)
	return st
}

// Append buffers a record; it becomes durable at the next Sync.
func (l *Log) Append(recType uint32, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := FrameLen(len(payload))
	if l.live != nil {
		live := l.liveSize()
		l.stats.Live = uint64(live)
		if l.size+n > max(2*live, CompactFloor) {
			if err := l.compact(); err != nil {
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

// compact rewrites the journal to the records live emits (none, if no
// role registered), numbered on from nextSeq, and installs them in one
// Replace. The buffer is sized to the registered live image, so it is
// allocated once when the count is right. The caller holds mu.
func (l *Log) compact() error {
	start := time.Now()
	var buf []byte
	if l.live != nil {
		buf = make([]byte, 0, l.liveSize())
		l.live(func(recType uint32, payload []byte) {
			buf = appendFrame(buf, l.nextSeq, recType, payload)
			l.nextSeq++
		})
	}
	if err := l.store.Replace(buf); err != nil {
		return err
	}
	l.size = len(buf)
	l.stats.Live = uint64(len(buf))
	l.stats.Compactions++
	l.stats.CompactNS += uint64(time.Since(start))
	return nil
}

// Checkpoint compacts the log now, under the role's lock, to the role's
// live state (to nothing if none is registered), keeping the sequence.
func (l *Log) Checkpoint() error {
	if l.roleMu != nil {
		l.roleMu.Lock()
		defer l.roleMu.Unlock()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compact()
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
