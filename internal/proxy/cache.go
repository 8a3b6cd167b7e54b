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
// attribute cache, the name cache, and block-map fragments can be
// discarded at any time; end-to-end RPC retransmission recovers.
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
	"time"

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

// attrEntry is one attribute-cache entry. Dirty entries hold attribute
// changes (size/mtime from I/O traffic) not yet pushed to the directory
// server with SETATTR. prev/next chain the shard's intrusive LRU list.
type attrEntry struct {
	fh      fhandle.Handle
	at      attr.Attr
	dirty   bool
	touched time.Time

	prev, next *attrEntry
}

// attrShard is one lock's worth of the attribute cache: a map for lookup
// plus an intrusive LRU list (head = most recent) for eviction.
type attrShard struct {
	mu      sync.Mutex
	entries map[fhandle.Key]*attrEntry
	head    *attrEntry
	tail    *attrEntry
	cap     int

	hits   atomic.Uint64
	misses atomic.Uint64
}

// attrCache caches file attributes observed in responses and updated by
// I/O completions (§4.1). It is bounded per shard; inserting over
// capacity evicts the least-recently-used entry, and a dirty evictee is
// returned to the caller for writeback OUTSIDE the shard lock, so a slow
// directory server never stalls unrelated cache hits.
type attrCache struct {
	shards [numShards]attrShard
}

func newAttrCache(capacity int) *attrCache {
	if capacity <= 0 {
		capacity = 4096
	}
	per := capacity / numShards
	if per < 1 {
		per = 1
	}
	c := &attrCache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[fhandle.Key]*attrEntry)
		c.shards[i].cap = per
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
	if len(s.entries) <= s.cap || s.tail == nil {
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
// returns them. Unlike update it never creates an entry: attributes
// conjured for a file the µproxy knows nothing about would carry size 0,
// and a READ answered from them would report a false end of file.
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
		e.touched = time.Now()
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
	e.touched = time.Now()
	s.moveToFront(e)
	return s.evictOver()
}

// update applies fn to the entry for fh, creating it if absent, and marks
// it dirty. Used on I/O completions to track size and timestamps. A dirty
// evictee is returned for out-of-lock writeback, as with observe.
func (c *attrCache) update(fh fhandle.Handle, fn func(*attr.Attr)) (attrEntry, bool) {
	s := c.shard(fh.Ident())
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[fh.Ident()]
	if e == nil {
		e = &attrEntry{fh: fh, at: attr.Attr{
			Type:   attr.FileType(fh.Type),
			FileID: fh.FileID,
			Nlink:  1,
		}}
		s.entries[fh.Ident()] = e
	}
	fn(&e.at)
	e.dirty = true
	e.touched = time.Now()
	s.moveToFront(e)
	return s.evictOver()
}

// takeDirty returns and clears the dirty flag of fh's entry, for SETATTR
// writeback. ok is false if there was nothing dirty.
func (c *attrCache) takeDirty(fh fhandle.Handle) (attr.Attr, bool) {
	s := c.shard(fh.Ident())
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[fh.Ident()]
	if e == nil || !e.dirty {
		return attr.Attr{}, false
	}
	e.dirty = false
	return e.at, true
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

// len returns the number of cached entries across all shards.
func (c *attrCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// clear drops all entries (soft-state loss).
func (c *attrCache) clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[fhandle.Key]*attrEntry)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// ------------------------------------------------------------ name cache

// nameKey identifies a directory entry.
type nameKey struct {
	parent fhandle.Key
	name   string
}

// nameKeyHash extends the parent's identity hash with an FNV-1a fold of
// the entry name. Allocation-free.
func nameKeyHash(k nameKey) uint64 {
	h := keyHash(k.parent)
	for i := 0; i < len(k.name); i++ {
		h = (h ^ uint64(k.name[i])) * 1099511628211
	}
	return h
}

// nameEntry is one (directory, name) → child binding in a shard's LRU.
type nameEntry struct {
	key   nameKey
	child fhandle.Handle

	prev, next *nameEntry
}

// nameShard is one lock's worth of the name cache.
type nameShard struct {
	mu      sync.Mutex
	entries map[nameKey]*nameEntry
	head    *nameEntry
	tail    *nameEntry
	cap     int

	hits   atomic.Uint64
	misses atomic.Uint64
}

// nameCache remembers (directory, name) → child handle bindings harvested
// from LOOKUP/CREATE/MKDIR responses. The µproxy uses it to orchestrate
// REMOVE (it must know the victim's handle to clear its data). Soft
// state, sharded like the attribute cache, evicted LRU per shard.
type nameCache struct {
	shards [numShards]nameShard
}

func newNameCache(capacity int) *nameCache {
	if capacity <= 0 {
		capacity = 8192
	}
	per := capacity / numShards
	if per < 1 {
		per = 1
	}
	c := &nameCache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[nameKey]*nameEntry)
		c.shards[i].cap = per
	}
	return c
}

func (c *nameCache) shard(k nameKey) *nameShard {
	return &c.shards[shardIndex(nameKeyHash(k))]
}

func (s *nameShard) moveToFront(e *nameEntry) {
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

func (s *nameShard) unlink(e *nameEntry) {
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

func (c *nameCache) put(parent fhandle.Handle, name string, child fhandle.Handle) {
	k := nameKey{parent.Ident(), name}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[k]
	if e == nil {
		e = &nameEntry{key: k}
		s.entries[k] = e
	}
	e.child = child
	s.moveToFront(e)
	if len(s.entries) > s.cap && s.tail != nil {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.key)
	}
}

func (c *nameCache) get(parent fhandle.Handle, name string) (fhandle.Handle, bool) {
	k := nameKey{parent.Ident(), name}
	s := c.shard(k)
	s.mu.Lock()
	e := s.entries[k]
	if e == nil {
		s.mu.Unlock()
		s.misses.Add(1)
		return fhandle.Handle{}, false
	}
	s.moveToFront(e)
	child := e.child
	s.mu.Unlock()
	s.hits.Add(1)
	return child, true
}

func (c *nameCache) drop(parent fhandle.Handle, name string) {
	k := nameKey{parent.Ident(), name}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[k]; e != nil {
		s.unlink(e)
		delete(s.entries, k)
	}
}

func (c *nameCache) clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[nameKey]*nameEntry)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// --------------------------------------------------------- block-map cache

// mapShard is one lock's worth of the block-map cache.
type mapShard struct {
	mu      sync.Mutex
	entries map[fhandle.Key][]uint32
}

// mapCache caches per-file block-map fragments supplied by a coordinator
// (§3.1). Fragments are fetched in chunks. Sharded by file identity.
type mapCache struct {
	shards [numShards]mapShard
}

// mapChunk is how many stripes one coordinator fetch returns.
const mapChunk = 64

func newMapCache() *mapCache {
	c := &mapCache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[fhandle.Key][]uint32)
	}
	return c
}

func (c *mapCache) shard(k fhandle.Key) *mapShard {
	return &c.shards[shardIndex(keyHash(k))]
}

// get returns the cached site of a stripe, or ok=false on a miss.
func (c *mapCache) get(fh fhandle.Handle, stripe uint64) (uint32, bool) {
	s := c.shard(fh.Ident())
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.entries[fh.Ident()]
	if stripe < uint64(len(m)) {
		return m[stripe], true
	}
	return 0, false
}

// fill installs a fetched fragment starting at stripe first.
func (c *mapCache) fill(fh fhandle.Handle, first uint64, sites []uint32) {
	s := c.shard(fh.Ident())
	s.mu.Lock()
	defer s.mu.Unlock()
	key := fh.Ident()
	m := s.entries[key]
	need := first + uint64(len(sites))
	for uint64(len(m)) < need {
		m = append(m, 0)
	}
	copy(m[first:], sites)
	s.entries[key] = m
}

func (c *mapCache) forget(fh fhandle.Handle) {
	s := c.shard(fh.Ident())
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, fh.Ident())
}

func (c *mapCache) clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[fhandle.Key][]uint32)
		s.mu.Unlock()
	}
}
