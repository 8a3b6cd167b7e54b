// Package wal implements the write-ahead log used by Slice file managers.
//
// Directory servers, small-file servers, and the block-service coordinator
// are "dataless": all durable state lives in backing objects on the network
// storage array plus a journal of updates (§2.3). The system recovers a
// failed manager by replaying its log against its backing objects, which is
// what enables fast failover to a surviving site.
//
// Records are framed with a magic number, a monotonically increasing
// sequence number, a record type, and a CRC-32 over the frame. A torn final
// record (from a crash mid-append) is detected by the CRC and ignored, as
// in Hagmann-style logging [10]. Group commit is supported by buffering
// appends until Sync.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
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
	// Reset discards all content (used at checkpoint).
	Reset() error
}

// MemStore is an in-memory Store that distinguishes buffered from durable
// bytes. CrashCopy returns a view holding only the durable prefix, which
// tests use to simulate power failure.
//
// The log is held in fixed segments, so bytes once appended never move:
// Append copies p and nothing else, however long the log has grown. Every
// segment but the last is full; sizes double from minSegment to maxSegment,
// so an idle log costs a few KiB and a busy one allocates once per MiB.
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
				n = min(2*cap(m.segs[last]), maxSegment)
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

// Reset implements Store.
func (m *MemStore) Reset() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.segs = nil
	m.size = 0
	m.durable = 0
	return nil
}

// CrashCopy returns a new store containing only the bytes durable at the
// last Sync, simulating loss of buffered data in a crash.
func (m *MemStore) CrashCopy() *MemStore {
	m.mu.Lock()
	durable := m.prefix(m.durable)
	m.mu.Unlock()
	c := &MemStore{}
	_ = c.Append(durable) // cannot fail
	c.durable = c.size
	return c
}

const (
	recMagic  = 0x51C3106E // "Slice log"
	headerLen = 4 + 8 + 4 + 4
	crcLen    = 4
)

// ErrCorrupt indicates a damaged log record (other than a torn tail).
var ErrCorrupt = errors.New("wal: corrupt record")

// Stats aggregates log activity for the experiments (Fig. 3 reports log
// traffic per directory server).
type Stats struct {
	Appends uint64
	Syncs   uint64
	Bytes   uint64
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

	// syncMu serializes store.Sync and forms the group-commit queue:
	// callers blocked here when the leader finishes usually find their
	// records already durable and return without another device sync.
	// Never held together with mu by the same goroutine except in
	// Checkpoint (syncMu before mu).
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
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Stats returns a snapshot of log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Append buffers a record; it becomes durable at the next Sync.
func (l *Log) Append(recType uint32, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.nextSeq
	l.nextSeq++
	n := headerLen + len(payload) + crcLen
	if cap(l.frame) < n {
		l.frame = make([]byte, n)
	}
	frame := l.frame[:n]
	binary.BigEndian.PutUint32(frame[0:], recMagic)
	binary.BigEndian.PutUint64(frame[4:], seq)
	binary.BigEndian.PutUint32(frame[12:], recType)
	binary.BigEndian.PutUint32(frame[16:], uint32(len(payload)))
	copy(frame[headerLen:], payload)
	crc := crc32.ChecksumIEEE(frame[:headerLen+len(payload)])
	binary.BigEndian.PutUint32(frame[headerLen+len(payload):], crc)
	if err := l.store.Append(frame); err != nil {
		return 0, err
	}
	l.appendGen++
	l.stats.Appends++
	l.stats.Bytes += uint64(len(frame))
	return seq, nil
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

// Checkpoint discards the log after its state has been captured in backing
// objects. The sequence counter is preserved.
func (l *Log) Checkpoint() error {
	l.syncMu.Lock() // exclude a concurrent store.Sync racing the Reset
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncGen = l.appendGen
	return l.store.Reset()
}
