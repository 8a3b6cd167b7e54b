// Package storage implements the Slice network storage nodes: object-based
// block storage in the style of the NSIC OBSD proposal and CMU NASD (§2.2).
//
// A storage node serves a flat space of storage objects named by unique
// identifiers; requesters address data as (object, logical offset). Nodes
// accept NFS file handles as object identifiers, mapping them to objects
// with an external hash, and serve the NFS subset {read, write, commit}
// plus an extension program for remove/truncate of raw objects, through
// the data-server Handler the small-file servers share.
//
// Writes are unstable until committed, mirroring NFS V3 write semantics:
// a crash reverts every byte and every object's size to what was last
// committed and changes the node's write verifier, which clients detect
// and use to re-send uncommitted data.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"slice/internal/nfsproto"
)

// BlockSize is the logical block size of storage objects.
const BlockSize = 8192

// ObjectID names a storage object within a node.
type ObjectID uint64

// ErrNoObject is returned for operations on objects that do not exist.
var ErrNoObject = errors.New("storage: no such object")

// An offset or size past int64 — a negative one here — names the NFS
// status a data server answers it with (Handler).
var (
	errOffset = &nfsproto.StatusError{Status: nfsproto.ErrIO}
	errSize   = &nfsproto.StatusError{Status: nfsproto.ErrInval}
)

// block is one logical block of an object. data is always BlockSize long.
// queued marks a block on its object's unstable list: data holds bytes no
// commit has covered. shadow is then what a crash puts back — the block's
// committed bytes, kept by its first unstable write since they were
// committed, plus any stable write since — or nil if none of its bytes is
// committed, and a crash drops the block.
type block struct {
	data   []byte
	shadow *block
	queued bool
}

// maxFreeBlocks bounds the store's free list: 32 MiB of block data, what
// removing one 32 MiB object hands back at once. A node that has never
// removed, shrunk or crashed holds none of it.
const maxFreeBlocks = 4096

// object is an ordered byte sequence held as a sparse block map. unstable
// lists the blocks written unstably since the last commit — each at most
// once (block.queued) — so a commit costs what was written, not what the
// object holds. A block truncated away stays on the list until the next
// commit or crash empties it; committing it again is harmless — which is
// why a block still on the list is never recycled into another object
// (ObjectStore.recycle).
type object struct {
	blocks   map[int64]*block
	unstable []*block
	size     int64 // logical size in bytes
	durable  int64 // the size a crash reverts to: as of the last commit, stable write or truncate
}

// commit makes the object's unstable blocks durable and returns how many
// it visited. Caller holds s.mu.
func (s *ObjectStore) commit(o *object) int {
	n := len(o.unstable)
	for _, b := range o.unstable {
		b.queued = false
		if b.shadow != nil {
			s.recycle(b.shadow)
			b.shadow = nil
		}
	}
	clear(o.unstable)
	o.unstable = o.unstable[:0]
	o.durable = o.size
	return n
}

// Stats counts storage node activity.
type Stats struct {
	Reads           uint64
	Writes          uint64
	Commits         uint64
	BlocksCommitted uint64 // blocks a commit made durable
	Removes         uint64
	BytesRead       uint64
	BytesWritten    uint64
	PrefetchStarts  uint64 // sequential streams detected
	Crashes         uint64
}

// ObjectStore is the storage manager inside one node (the role FFS played
// in the prototype). It is safe for concurrent use.
type ObjectStore struct {
	mu       sync.Mutex
	objects  map[ObjectID]*object
	verifier uint64
	stats    Stats

	// seqTail tracks the end offset of the last read per object, to
	// detect sequential streams for prefetching (§4.2: storage nodes
	// prefetch sequential files up to 256KB beyond the current access).
	seqTail map[ObjectID]int64

	// free is a LIFO of blocks dropped by Remove, Truncate and Crash, at
	// most maxFreeBlocks of them. Their data is stale, not zero: the write
	// that claims one clears whatever it does not itself cover.
	free []*block
}

// NewObjectStore returns an empty store with a fresh write verifier.
func NewObjectStore() *ObjectStore {
	return &ObjectStore{
		objects:  make(map[ObjectID]*object),
		verifier: 1,
		seqTail:  make(map[ObjectID]int64),
	}
}

// Stats returns a snapshot of the counters.
func (s *ObjectStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Verifier returns the node's current write verifier. It changes whenever
// uncommitted data may have been lost.
func (s *ObjectStore) Verifier() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verifier
}

// NumObjects returns the number of objects in the store.
func (s *ObjectStore) NumObjects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// recycle puts a block no object maps any more on the free list. The block
// must not be on any unstable list: a later commit of that list would mark
// it durable inside whichever object had claimed it since. Caller holds
// s.mu.
func (s *ObjectStore) recycle(b *block) {
	if len(s.free) < maxFreeBlocks {
		s.free = append(s.free, b)
	}
}

// claim returns a block for a write of n bytes at block offset bo that
// found none mapped: a recycled one with the bytes the write will not cover
// cleared (holes and the tail past end of object read as zeros), or a fresh
// one; and whether it was recycled. A recycled block was last written
// with its previous object, on ddwrite 32 MiB of traffic ago, so it is
// cold in cache; a fresh block's data was zeroed just now. Kept out of
// line so the allocation stays off WriteAt's hit path. Caller holds s.mu.
//
//go:noinline
func (s *ObjectStore) claim(bo int64, n int) (*block, bool) {
	if last := len(s.free) - 1; last >= 0 {
		b := s.free[last]
		s.free[last] = nil
		s.free = s.free[:last]
		clear(b.data[:bo])
		clear(b.data[bo+int64(n):])
		return b, true
	}
	return &block{data: make([]byte, BlockSize)}, false
}

// keep gives b, about to take its first unstable write since its bytes
// were committed, a shadow holding them. Caller holds s.mu.
//
//go:noinline
func (s *ObjectStore) keep(b *block) {
	b.shadow, _ = s.claim(0, BlockSize)
	copy(b.shadow.data, b.data)
}

// commitBytes writes p, a stable write at block offset bo, into the
// shadow of b, a block that also holds uncommitted bytes, so that a crash
// keeps it. A block with no shadow had no committed byte: its new shadow
// holds p and zeros. Caller holds s.mu.
//
//go:noinline
func (s *ObjectStore) commitBytes(b *block, bo int64, p []byte) {
	if b.shadow == nil {
		b.shadow, _ = s.claim(bo, len(p))
	}
	copy(b.shadow.data[bo:], p)
}

func (s *ObjectStore) get(id ObjectID, create bool) *object {
	o := s.objects[id]
	if o == nil && create {
		o = &object{blocks: make(map[int64]*block)}
		s.objects[id] = o
	}
	return o
}

// WriteAt writes p at byte offset off of object id, creating the object if
// needed. If stable is true the data is durable immediately (FILE_SYNC);
// otherwise it remains volatile until Commit. The bytes a write puts into
// a block taken from the free list go through copyCold, whose streaming
// stores one storeFence orders before s.mu is released; the rest through
// copy.
func (s *ObjectStore) WriteAt(id ObjectID, off int64, p []byte, stable bool) error {
	if off < 0 {
		return errOffset
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.get(id, true)
	s.stats.Writes++
	s.stats.BytesWritten += uint64(len(p))
	end := off + int64(len(p))
	cold := false
	for len(p) > 0 {
		bn := off / BlockSize
		bo := off % BlockSize
		w := p[:min(len(p), int(BlockSize-bo))]
		b := o.blocks[bn]
		if b == nil {
			var recycled bool
			b, recycled = s.claim(bo, len(w))
			o.blocks[bn] = b
			if recycled {
				copyCold(b.data[bo:], w)
				cold = true
			} else {
				copy(b.data[bo:], w)
			}
		} else {
			if !stable && !b.queued {
				s.keep(b)
			}
			copy(b.data[bo:], w)
		}
		if stable {
			if b.queued {
				s.commitBytes(b, bo, w)
			}
		} else if !b.queued {
			b.queued = true
			o.unstable = append(o.unstable, b)
		}
		p = p[len(w):]
		off += int64(len(w))
	}
	o.size = max(o.size, end)
	if stable {
		o.durable = max(o.durable, end)
	}
	if cold {
		storeFence()
	}
	return nil
}

// ReadAt reads up to len(p) bytes from object id at byte offset off. It
// returns the byte count and whether the read reached end of object. Holes
// read as zeros. Reading a nonexistent object returns ErrNoObject.
func (s *ObjectStore) ReadAt(id ObjectID, off int64, p []byte) (int, bool, error) {
	if off < 0 {
		return 0, false, errOffset
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.get(id, false)
	if o == nil {
		return 0, false, fmt.Errorf("%w: %d", ErrNoObject, uint64(id))
	}
	s.stats.Reads++
	if off >= o.size {
		return 0, true, nil
	}
	n := len(p)
	if int64(n) > o.size-off {
		n = int(o.size - off)
	}
	// Detect sequential access for prefetch accounting.
	if tail, ok := s.seqTail[id]; ok && tail == off {
		s.stats.PrefetchStarts++
	}
	s.seqTail[id] = off + int64(n)

	read := 0
	for read < n {
		bn := (off + int64(read)) / BlockSize
		bo := (off + int64(read)) % BlockSize
		want := n - read
		if int64(want) > BlockSize-bo {
			want = int(BlockSize - bo)
		}
		if b := o.blocks[bn]; b != nil {
			copy(p[read:read+want], b.data[bo:])
		} else {
			clear(p[read : read+want])
		}
		read += want
	}
	s.stats.BytesRead += uint64(n)
	return n, off+int64(n) >= o.size, nil
}

// Commit makes all buffered writes to object id durable (write clustering:
// one pass over the blocks written since the last commit) and returns the
// write verifier.
// Committing a nonexistent object succeeds: NFS commit of a file with no
// uncommitted data is a no-op.
func (s *ObjectStore) Commit(id ObjectID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Commits++
	if o := s.get(id, false); o != nil {
		s.stats.BlocksCommitted += uint64(s.commit(o))
	}
	return s.verifier
}

// CommitAll makes every object durable, as a periodic syncer would.
func (s *ObjectStore) CommitAll() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Commits++
	for _, o := range s.objects {
		s.stats.BlocksCommitted += uint64(s.commit(o))
	}
	return s.verifier
}

// Remove deletes object id. Removing a missing object is a no-op, so that
// retransmitted removes are idempotent.
func (s *ObjectStore) Remove(id ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Removes++
	if o := s.objects[id]; o != nil {
		// The unstable list dies with the object, so every block is free
		// to go, queued or not.
		for _, b := range o.blocks {
			b.queued = false
			s.recycle(b)
			if b.shadow != nil {
				s.recycle(b.shadow)
				b.shadow = nil
			}
		}
	}
	delete(s.objects, id)
	delete(s.seqTail, id)
}

// Truncate sets the logical size of object id, discarding blocks beyond
// the new end. Like a stable write it is durable at once: a crash keeps
// the new size and the zeros past it. Truncating a nonexistent object
// creates it.
func (s *ObjectStore) Truncate(id ObjectID, size int64) error {
	if size < 0 {
		return errSize
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.get(id, true)
	if size < o.size {
		lastBlock := (size + BlockSize - 1) / BlockSize
		for bn, b := range o.blocks {
			if bn >= lastBlock {
				delete(o.blocks, bn)
				if b.shadow != nil {
					s.recycle(b.shadow)
					b.shadow = nil
				}
				// A queued block stays on o.unstable until the next
				// commit (which leaves it to the collector) or crash.
				if !b.queued {
					s.recycle(b)
				}
			}
		}
		// Zero the tail of the new last block, committed bytes included.
		if size%BlockSize != 0 {
			if b := o.blocks[size/BlockSize]; b != nil {
				clear(b.data[size%BlockSize:])
				if b.shadow != nil {
					clear(b.shadow.data[size%BlockSize:])
				}
			}
		}
	}
	o.size, o.durable = size, size
	return nil
}

// ObjEntry is one object's directory entry: identifier and logical size.
type ObjEntry struct {
	ID   ObjectID
	Size int64
}

// ListAfter returns up to max objects with ID strictly greater than
// after, in ascending ID order — the pagination primitive of the
// replica peer program. A fresh page is consistent at the instant it
// was taken; callers tolerate objects appearing or vanishing between
// pages (the rebalance driver re-lists every round, and writes fan out
// to its destinations from the transition's start).
func (s *ObjectStore) ListAfter(after ObjectID, max int) []ObjEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	ents := make([]ObjEntry, 0, len(s.objects))
	for id, o := range s.objects {
		if id > after {
			ents = append(ents, ObjEntry{ID: id, Size: o.size})
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].ID < ents[j].ID })
	if max > 0 && len(ents) > max {
		ents = ents[:max]
	}
	return ents
}

// Size returns the logical size of object id and whether it exists.
func (s *ObjectStore) Size(id ObjectID) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.get(id, false)
	if o == nil {
		return 0, false
	}
	return o.size, true
}

// Crash simulates a node failure and restart: every byte reverts to its
// last committed value (a block with none becomes a hole), every object's
// size to its last committed size, and the write verifier changes so
// clients re-send uncommitted writes.
func (s *ObjectStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Crashes++
	s.verifier++
	for _, o := range s.objects {
		// A queued block with a shadow gets its committed bytes back and
		// leaves the list unmarked, or its next unstable write would never
		// be queued. One without is unmapped and stays marked for the
		// pass below.
		for bn, b := range o.blocks {
			if !b.queued {
				continue
			}
			if sh := b.shadow; sh != nil {
				b.data, sh.data = sh.data, b.data
				b.shadow, b.queued = nil, false
				s.recycle(sh)
			} else {
				delete(o.blocks, bn)
			}
		}
		// What is still marked no object maps: the blocks just dropped
		// and those Truncate dropped while queued. The list is emptied
		// before s.mu is released, so no commit can reach them again.
		for _, b := range o.unstable {
			if b.queued {
				b.queued = false
				s.recycle(b)
			}
		}
		clear(o.unstable)
		o.unstable = o.unstable[:0]
		o.size = o.durable
	}
	s.seqTail = make(map[ObjectID]int64)
}

// TotalBytes sums the logical sizes of all objects. Striped files appear
// at near-full size on every node holding any of their stripes (offsets
// are file-global and objects are sparse); use PhysicalBytes for actual
// storage consumption.
func (s *ObjectStore) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, o := range s.objects {
		t += o.size
	}
	return t
}

// PhysicalBytes sums the allocated block storage across all objects.
func (s *ObjectStore) PhysicalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, o := range s.objects {
		t += int64(len(o.blocks)) * BlockSize
	}
	return t
}
