// Package proxy implements the Slice µproxy: an interposed request router
// that virtualizes the file service (§2.1, §3, §4.1).
//
// The µproxy is a network element on each client's path to the service.
// It intercepts datagrams addressed to the virtual server, classifies each
// request (bulk I/O, small-file I/O, name space, attributes), selects a
// physical server with the configured routing policies, rewrites the
// destination address and port with an incremental checksum update, and
// forwards the packet. Responses are intercepted on the way back, have the
// virtual server address restored, and — for I/O responses from storage
// and small-file servers, which carry no attributes — are patched with a
// complete attribute set from the µproxy's attribute cache.
//
// All µproxy state is soft: pending-request records, routing tables, the
// attribute cache and the replica dirty set can be discarded at any time;
// end-to-end RPC retransmission recovers. The µproxy caches nothing it
// cannot keep exactly right on its own: attributes are merged from what
// it routed and what the directory servers told it, never conjured, and
// name-to-handle bindings — which another fleet member can change unseen —
// are not cached at all (REMOVE resolves its victim with a LOOKUP of the
// µproxy's own every time).
//
// Soft state is sharded: the pending-request table and every cache are
// split into numShards independently locked shards keyed by a hash of the
// record identity, so concurrent clients touch disjoint locks and the
// data path scales across cores (the paper's kernel packet filter had no
// global lock to serialize on; neither does this).
package proxy

import (
	"sync"
	"sync/atomic"

	"slice/internal/attr"
	"slice/internal/fhandle"
)

// numShards is the soft-state shard count (power of two). 16 shards keep
// the per-shard footprint trivial while making cross-client lock
// collisions rare even at high core counts.
const numShards = 16

// keyHash mixes a handle identity into a well-distributed 64-bit hash.
func keyHash(k fhandle.Key) uint64 {
	h := k.FileID ^ uint64(k.Volume)<<32 ^ uint64(k.Gen)
	h *= 0x9E3779B97F4A7C15 // Fibonacci hashing: spread low-entropy IDs
	return h
}

// shardIndex selects a shard from a hash, using the high bits (the
// multiplicative hash concentrates entropy there).
func shardIndex(h uint64) int { return int(h>>60) & (numShards - 1) }

// ------------------------------------------------------- attribute cache

// attrShardCap bounds each shard of the attribute cache (4096 entries in
// all); inserting over it evicts the shard's least-recently-used entry.
const attrShardCap = 4096 / numShards

// attrEntry is one attribute-cache entry. Dirty entries hold attribute
// changes (size/mtime from I/O traffic) not yet pushed to the directory
// server with SETATTR. srvSize is the size the directory server last
// reported (or was last sent): write-back sets the size only when routed
// I/O grew the file past it, so a µproxy that merely overwrote part of a
// file never pushes its partial view of the length. prev/next chain the
// shard's intrusive LRU list.
type attrEntry struct {
	fh      fhandle.Handle
	at      attr.Attr
	srvSize uint64
	dirty   bool

	prev, next *attrEntry
}

// attrShard is one lock's worth of the attribute cache: a map for lookup
// plus an intrusive LRU list (head = most recent) for eviction.
type attrShard struct {
	mu      sync.Mutex
	entries map[fhandle.Key]*attrEntry
	head    *attrEntry
	tail    *attrEntry

	hits   atomic.Uint64
	misses atomic.Uint64
}

// attrCache caches file attributes observed in responses and updated by
// I/O completions (§4.1). Entries are created only by observe, from
// attributes a directory server sent: access and update apply I/O on top
// of an entry and report a miss otherwise, because attributes conjured
// from one request would carry that request's view of the size (0 for a
// READ, the end of one WRITE) and be served — or written back — as the
// file's. It is bounded per shard; inserting over capacity evicts the
// least-recently-used entry, and a dirty evictee is returned to the caller
// for writeback OUTSIDE the shard lock, so a slow directory server never
// stalls unrelated cache hits.
type attrCache struct {
	shards [numShards]attrShard
}

func newAttrCache() *attrCache {
	c := &attrCache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[fhandle.Key]*attrEntry)
	}
	return c
}

func (c *attrCache) shard(k fhandle.Key) *attrShard {
	return &c.shards[shardIndex(keyHash(k))]
}

// moveToFront makes e the shard's most-recently-used entry, linking it in
// if it is fresh.
func (s *attrShard) moveToFront(e *attrEntry) {
	if s.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if s.tail == e {
		s.tail = e.prev
	}
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// unlink removes e from the shard's LRU list.
func (s *attrShard) unlink(e *attrEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// evictOver pops the least-recently-used entry if the shard exceeds its
// capacity. Called with the shard locked; the caller writes back a dirty
// evictee after unlocking.
func (s *attrShard) evictOver() (attrEntry, bool) {
	if len(s.entries) <= attrShardCap || s.tail == nil {
		return attrEntry{}, false
	}
	victim := s.tail
	s.unlink(victim)
	delete(s.entries, victim.fh.Ident())
	return *victim, victim.dirty
}

// get returns a copy of the cached attributes for fh.
func (c *attrCache) get(fh fhandle.Handle) (attr.Attr, bool) { return c.lookup(fh, nil) }

// access stamps a read of fh at time now into its cached attributes and
// returns them; a READ of a file the cache does not hold is a miss.
func (c *attrCache) access(fh fhandle.Handle, now attr.Time) (attr.Attr, bool) {
	return c.lookup(fh, &now)
}

// lookup returns a copy of the cached attributes for fh, after marking
// them accessed (and so dirty) at *atime when one is given.
func (c *attrCache) lookup(fh fhandle.Handle, atime *attr.Time) (attr.Attr, bool) {
	s := c.shard(fh.Ident())
	s.mu.Lock()
	e := s.entries[fh.Ident()]
	if e == nil {
		s.mu.Unlock()
		s.misses.Add(1)
		return attr.Attr{}, false
	}
	if atime != nil {
		e.at.Atime = *atime
		e.dirty = true
	}
	s.moveToFront(e)
	at := e.at
	s.mu.Unlock()
	s.hits.Add(1)
	return at, true
}

// observe folds authoritative attributes from a server response into the
// cache. If the entry is dirty, locally known size/mtime win: they reflect
// I/O the directory server has not seen yet. A dirty entry evicted to make
// room is returned for writeback by the caller, outside the shard lock.
func (c *attrCache) observe(fh fhandle.Handle, at attr.Attr) (attrEntry, bool) {
	s := c.shard(fh.Ident())
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[fh.Ident()]
	if e == nil {
		e = &attrEntry{fh: fh, at: at}
		s.entries[fh.Ident()] = e
	} else if e.dirty {
		merged := at
		if e.at.Size > merged.Size {
			merged.Size = e.at.Size
		}
		if merged.Mtime.Before(e.at.Mtime) {
			merged.Mtime = e.at.Mtime
		}
		e.at = merged
	} else {
		e.at = at
	}
	e.srvSize = at.Size
	s.moveToFront(e)
	return s.evictOver()
}

// update applies fn to fh's entry and marks it dirty, tracking size and
// timestamps across I/O completions. It reports false, having done
// nothing, when the cache holds no entry for fh: the caller fetches the
// file's attributes from its directory server and tries again.
func (c *attrCache) update(fh fhandle.Handle, fn func(*attrEntry)) bool {
	s := c.shard(fh.Ident())
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[fh.Ident()]
	if e == nil {
		return false
	}
	fn(e)
	e.dirty = true
	s.moveToFront(e)
	return true
}

// takeDirty returns fh's entry and clears its dirty flag, for SETATTR
// writeback. ok is false if there was nothing dirty.
func (c *attrCache) takeDirty(fh fhandle.Handle) (attrEntry, bool) {
	s := c.shard(fh.Ident())
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[fh.Ident()]
	if e == nil || !e.dirty {
		return attrEntry{}, false
	}
	e.dirty = false
	return *e, true
}

// markDirty re-marks an entry dirty (writeback failed; retry later).
func (c *attrCache) markDirty(fh fhandle.Handle) {
	s := c.shard(fh.Ident())
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[fh.Ident()]; e != nil {
		e.dirty = true
	}
}

// pushed records that the directory server accepted size for fh, so later
// write-backs of the same entry leave the size alone until I/O grows it.
func (c *attrCache) pushed(fh fhandle.Handle, size uint64) {
	s := c.shard(fh.Ident())
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[fh.Ident()]; e != nil && e.srvSize < size {
		e.srvSize = size
	}
}

// allDirty snapshots every dirty entry and clears the flags; the periodic
// writeback uses it to bound attribute drift (§4.1).
func (c *attrCache) allDirty() []attrEntry {
	var out []attrEntry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.entries {
			if e.dirty {
				out = append(out, *e)
				e.dirty = false
			}
		}
		s.mu.Unlock()
	}
	return out
}

// drain empties the cache (soft-state loss) and returns the dirty entries
// it held. Each shard's map and LRU are swapped out under the shard's
// lock, so an update lands either in an entry drain returns or — after
// missing and re-fetching — in a fresh resident one: never in an entry
// about to be thrown away, which is how a write-back followed by a
// separate clear lost the size of a WRITE that completed between the two.
func (c *attrCache) drain() []attrEntry {
	var dirty []attrEntry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		old := s.entries
		s.entries = make(map[fhandle.Key]*attrEntry)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
		for _, e := range old {
			if e.dirty {
				dirty = append(dirty, *e)
			}
		}
	}
	return dirty
}

// forget drops the entry for fh (file removed).
func (c *attrCache) forget(fh fhandle.Handle) {
	s := c.shard(fh.Ident())
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[fh.Ident()]; e != nil {
		s.unlink(e)
		delete(s.entries, fh.Ident())
	}
}
