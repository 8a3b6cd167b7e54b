// Package smallfile implements the Slice small-file servers (§4.4).
//
// A small-file server absorbs read/write traffic below the threshold
// offset, keeping it away from both the storage array and the directory
// servers. Each file is a sequence of 8KB logical blocks; a per-file map
// record — held in a descriptor array indexed by fileID — maps each block
// to an (offset, length) extent within a backing storage object. Physical
// space for a block is rounded up to the next power of two, and freed
// fragments are reallocated best-fit, in the manner of FFS fragments and
// SquidMLA. New data is laid out sequentially at the end of the backing
// object, batching small writes into a single stream.
package smallfile

import (
	"sync"

	"slice/internal/fhandle"
	"slice/internal/nfsproto"
	"slice/internal/storage"
	"slice/internal/wal"
	"slice/internal/xdr"
)

// A Store's errors name the NFS status its server answers with
// (storage.Handler).
var (
	errOffset    = &nfsproto.StatusError{Status: nfsproto.ErrIO}    // an offset past int64
	errThreshold = &nfsproto.StatusError{Status: nfsproto.ErrFBig}  // a write past the threshold region
	errSize      = &nfsproto.StatusError{Status: nfsproto.ErrInval} // a size past int64
)

// LogicalBlock is the logical block size of small files.
const LogicalBlock = 8192

// MaxBlocks bounds the logical blocks a map record can describe; with the
// default 64KB threshold a small-file server never sees offsets beyond
// MaxBlocks*LogicalBlock.
const MaxBlocks = 8

// MinFrag is the smallest physical fragment (the paper's example: a 108
// byte tail consumes a 128 byte fragment).
const MinFrag = 128

// extent locates one logical block's physical storage in the backing
// object. Length 0 means unallocated.
type extent struct {
	Off    int64
	Length int32 // physical fragment size (power of two)
	Used   int32 // bytes of the fragment holding live data
}

// mapRecord is the per-file map (Figure 2 of the paper).
type mapRecord struct {
	Extents [MaxBlocks]extent
	Size    int64 // local (below-threshold) file size
}

// Stats counts small-file store activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	Removes      uint64
	BytesRead    uint64
	BytesWritten uint64
	FragAllocs   uint64
	FragReuses   uint64 // allocations satisfied from the free list
	FragFrees    uint64
	Grows        uint64 // block rewrites into a larger fragment
	AppendBytes  int64  // bytes laid out at the end of the backing object
}

// roundFrag rounds n up to the next power-of-two fragment size, minimum
// MinFrag, maximum LogicalBlock.
func roundFrag(n int32) int32 {
	if n <= MinFrag {
		return MinFrag
	}
	f := int32(MinFrag)
	for f < n {
		f <<= 1
	}
	if f > LogicalBlock {
		f = LogicalBlock
	}
	return f
}

// fragClass maps a fragment size to its free-list class index.
func fragClass(size int32) int {
	c := 0
	for f := int32(MinFrag); f < size; f <<= 1 {
		c++
	}
	return c
}

// numClasses is the number of power-of-two size classes (128..8192).
const numClasses = 7

// Store is the small-file storage manager: map records plus a best-fit
// fragment allocator over a backing storage object.
type Store struct {
	mu      sync.Mutex
	backing *storage.ObjectStore
	backID  storage.ObjectID
	maps    map[uint64]*mapRecord // fileID -> map record
	free    [numClasses][]int64   // size class -> free fragment offsets
	end     int64                 // end of backing object (next append offset)
	log     *wal.Log
	stats   Stats
}

// NewStore creates a small-file store over the given backing object.
func NewStore(backing *storage.ObjectStore, backID storage.ObjectID, log *wal.Log) *Store {
	s := &Store{
		backing: backing,
		backID:  backID,
		maps:    make(map[uint64]*mapRecord),
		log:     log,
	}
	if log != nil {
		log.SetLive(s.liveSize, wal.Shard{Mu: &s.mu, Live: s.liveRecords})
	}
	return s
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// NumFiles returns the number of map records.
func (s *Store) NumFiles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.maps)
}

// PhysicalBytes returns the bytes of backing storage allocated to live
// fragments (the paper's example: an 8300 byte file consumes 8320).
func (s *Store) PhysicalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, rec := range s.maps {
		for _, ext := range rec.Extents {
			t += int64(ext.Length)
		}
	}
	return t
}

// alloc obtains a fragment of exactly size bytes (a power of two),
// preferring the free list (best fit: smallest class that fits) and
// otherwise extending the backing object.
func (s *Store) alloc(size int32) int64 {
	s.stats.FragAllocs++
	for c := fragClass(size); c < numClasses; c++ {
		if n := len(s.free[c]); n > 0 {
			off := s.free[c][n-1]
			s.free[c] = s.free[c][:n-1]
			s.stats.FragReuses++
			// A larger-class fragment is used whole; the remainder is
			// internal fragmentation until freed (simple and safe).
			return off
		}
	}
	off := s.end
	s.end += int64(size)
	s.stats.AppendBytes += int64(size)
	return off
}

// freeFrag returns a fragment to its size-class free list.
func (s *Store) freeFrag(off int64, size int32) {
	if size <= 0 {
		return
	}
	s.stats.FragFrees++
	c := fragClass(size)
	if c >= numClasses {
		c = numClasses - 1
	}
	s.free[c] = append(s.free[c], off)
}

// Write stores data at the byte offset off of the file identified by fh.
// stable selects NFS FILE_SYNC semantics.
func (s *Store) Write(fh fhandle.Handle, off int64, data []byte, stable bool) error {
	if off < 0 {
		return errOffset
	}
	if off+int64(len(data)) > MaxBlocks*LogicalBlock {
		return errThreshold
	}
	fileID := fh.FileID
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Writes++
	s.stats.BytesWritten += uint64(len(data))
	rec := s.maps[fileID]
	if rec == nil {
		rec = &mapRecord{}
		s.maps[fileID] = rec
	}
	end := off + int64(len(data))
	for len(data) > 0 {
		bn := off / LogicalBlock
		bo := int32(off % LogicalBlock)
		n := int32(len(data))
		if n > LogicalBlock-bo {
			n = LogicalBlock - bo
		}
		ext := &rec.Extents[bn]
		needUsed := bo + n
		if ext.Used > needUsed {
			needUsed = ext.Used
		}
		needFrag := roundFrag(needUsed)
		if needFrag > ext.Length {
			// Grow: allocate a larger fragment, migrate live bytes.
			newOff := s.alloc(needFrag)
			if ext.Length > 0 {
				old := make([]byte, ext.Used)
				if _, _, err := s.backing.ReadAt(s.backID, ext.Off, old); err == nil {
					if err := s.backing.WriteAt(s.backID, newOff, old, stable); err != nil {
						return err
					}
				}
				s.freeFrag(ext.Off, ext.Length)
				s.stats.Grows++
			}
			ext.Off = newOff
			ext.Length = needFrag
		}
		if bo > ext.Used {
			// Zero the gap: a truncate or an earlier owner left bytes.
			if err := s.backing.WriteAt(s.backID, ext.Off+int64(ext.Used), make([]byte, bo-ext.Used), stable); err != nil {
				return err
			}
		}
		if err := s.backing.WriteAt(s.backID, ext.Off+int64(bo), data[:n], stable); err != nil {
			return err
		}
		ext.Used = needUsed
		data = data[n:]
		off += int64(n)
	}
	if end > rec.Size {
		rec.Size = end
	}
	if s.log != nil {
		if _, err := s.log.Append(recMap, encodeMapRecord(fileID, rec)); err != nil {
			return err
		}
		if stable {
			if err := s.log.Sync(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Read fills p from the file at byte offset off, returning the count and
// whether the read reached the end of the server's local data.
func (s *Store) Read(fh fhandle.Handle, off int64, p []byte) (int, bool, error) {
	if off < 0 {
		return 0, false, errOffset
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Reads++
	rec := s.maps[fh.FileID]
	if rec == nil {
		return 0, true, nil
	}
	if off >= rec.Size {
		return 0, true, nil
	}
	n := len(p)
	if int64(n) > rec.Size-off {
		n = int(rec.Size - off)
	}
	read := 0
	for read < n {
		cur := off + int64(read)
		bn := cur / LogicalBlock
		bo := int32(cur % LogicalBlock)
		want := n - read
		if int32(want) > LogicalBlock-bo {
			want = int(LogicalBlock - bo)
		}
		ext := &rec.Extents[bn]
		if ext.Length == 0 || bo >= ext.Used {
			// Hole: zero fill.
			for i := read; i < read+want; i++ {
				p[i] = 0
			}
		} else {
			avail := int(ext.Used - bo)
			fill := want
			if fill > avail {
				fill = avail
			}
			if _, _, err := s.backing.ReadAt(s.backID, ext.Off+int64(bo), p[read:read+fill]); err != nil {
				return read, false, err
			}
			for i := read + fill; i < read+want; i++ {
				p[i] = 0
			}
		}
		read += want
	}
	s.stats.BytesRead += uint64(n)
	return n, off+int64(n) >= rec.Size, nil
}

// Size returns the store's local size for the file.
func (s *Store) Size(fh fhandle.Handle) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.maps[fh.FileID]
	if rec == nil {
		return 0, false
	}
	return rec.Size, true
}

// Remove frees the file's fragments and map record.
func (s *Store) Remove(fh fhandle.Handle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Removes++
	rec := s.maps[fh.FileID]
	if rec == nil {
		return
	}
	for _, ext := range rec.Extents {
		s.freeFrag(ext.Off, ext.Length)
	}
	delete(s.maps, fh.FileID)
	if s.log != nil {
		_, _ = s.log.AppendSync(recUnmap, encodeFileID(fh.FileID))
	}
}

// Truncate sets the local size, freeing fragments beyond the new end.
func (s *Store) Truncate(fh fhandle.Handle, size int64) error {
	if size < 0 {
		return errSize
	}
	if size > MaxBlocks*LogicalBlock {
		size = MaxBlocks * LogicalBlock
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.maps[fh.FileID]
	if rec == nil {
		if size == 0 {
			return nil
		}
		rec = &mapRecord{}
		s.maps[fh.FileID] = rec
	}
	firstFree := (size + LogicalBlock - 1) / LogicalBlock
	for bn := firstFree; bn < MaxBlocks; bn++ {
		ext := &rec.Extents[bn]
		if ext.Length > 0 {
			s.freeFrag(ext.Off, ext.Length)
			*ext = extent{}
		}
	}
	if bo := int32(size % LogicalBlock); bo > 0 {
		ext := &rec.Extents[size/LogicalBlock]
		if ext.Used > bo {
			ext.Used = bo
		}
	}
	rec.Size = size
	if s.log != nil {
		if _, err := s.log.AppendSync(recMap, encodeMapRecord(fh.FileID, rec)); err != nil {
			return err
		}
	}
	return nil
}

// Key names a file by its handle: a Store is a storage.Backend.
func (s *Store) Key(fh fhandle.Handle) fhandle.Handle { return fh }

// Verifier returns the backing object's write verifier.
func (s *Store) Verifier() uint64 { return s.backing.Verifier() }

// Commit makes the file's buffered data durable (NFS V3 commit compliance
// for writes below the threshold offset) and returns the write verifier.
func (s *Store) Commit(fh fhandle.Handle) uint64 {
	s.mu.Lock()
	log := s.log
	s.mu.Unlock()
	if log != nil {
		_ = log.Sync()
	}
	return s.backing.Commit(s.backID)
}

// ------------------------------------------------------------ journaling

// Log record types for small-file map journaling.
const (
	recMap   = 1 // full map record post-state
	recUnmap = 2 // file removed
)

// mapRecordLen is a recMap payload's length: the fileID, the size and
// MaxBlocks extents, whether used or not.
const mapRecordLen = 8 + 8 + MaxBlocks*16

func encodeMapRecord(fileID uint64, rec *mapRecord) []byte {
	e := xdr.NewEncoder(mapRecordLen)
	e.PutUint64(fileID)
	e.PutInt64(rec.Size)
	for _, ext := range rec.Extents {
		e.PutInt64(ext.Off)
		e.PutInt32(ext.Length)
		e.PutInt32(ext.Used)
	}
	return e.Bytes()
}

func decodeMapRecord(p []byte) (uint64, *mapRecord, error) {
	d := xdr.NewDecoder(p)
	fileID, err := d.Uint64()
	if err != nil {
		return 0, nil, err
	}
	rec := &mapRecord{}
	if rec.Size, err = d.Int64(); err != nil {
		return 0, nil, err
	}
	for i := range rec.Extents {
		if rec.Extents[i].Off, err = d.Int64(); err != nil {
			return 0, nil, err
		}
		if rec.Extents[i].Length, err = d.Int32(); err != nil {
			return 0, nil, err
		}
		if rec.Extents[i].Used, err = d.Int32(); err != nil {
			return 0, nil, err
		}
	}
	return fileID, rec, nil
}

func encodeFileID(fileID uint64) []byte {
	e := xdr.NewEncoder(8)
	e.PutUint64(fileID)
	return e.Bytes()
}

// liveRecords emits the store's state as journal records, for wal.Log to
// compact to: one recMap per live file. The caller holds s.mu.
func (s *Store) liveRecords(emit func(recType uint32, payload []byte)) {
	for fileID, rec := range s.maps {
		emit(recMap, encodeMapRecord(fileID, rec))
	}
}

// liveSize is the journal length liveRecords emits. The caller holds s.mu.
func (s *Store) liveSize() int { return len(s.maps) * wal.FrameLen(mapRecordLen) }

// replayLog rebuilds the map records from the store's journal; the data
// itself is in the backing object. This is the small-file half of
// manager failover.
func (s *Store) replayLog() error {
	maps := make(map[uint64]*mapRecord)
	var end int64
	err := s.log.Scan(func(seq uint64, recType uint32, payload []byte) error {
		switch recType {
		case recMap:
			fileID, rec, err := decodeMapRecord(payload)
			if err != nil {
				return err
			}
			maps[fileID] = rec
			for _, ext := range rec.Extents {
				if e := ext.Off + int64(ext.Length); e > end {
					end = e
				}
			}
		case recUnmap:
			d := xdr.NewDecoder(payload)
			fileID, err := d.Uint64()
			if err != nil {
				return err
			}
			delete(maps, fileID)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.maps = maps
	s.end = end
	// Free lists are conservatively dropped on recovery: fragments that
	// were free simply stay unused until the region is reallocated by
	// growth at the end; a background compactor would reclaim them.
	for i := range s.free {
		s.free[i] = nil
	}
	s.mu.Unlock()
	return nil
}
