// Package dirsrv implements the Slice directory servers (§4.3).
//
// A directory server stores name entries and file attributes as fixed-size
// cells indexed by hash chains keyed on an MD5 fingerprint of (parent file
// handle, name). Cells for a directory may be distributed across servers:
// attribute cells can reference entries on other sites, which is what lets
// one code base support both the mkdir-switching and name-hashing routing
// policies. Servers use fixed placement — a cell lives where it was
// created — and a peer-peer protocol to update link counts and follow
// cross-site references.
//
// Within a server the cells are split into shards, each under its own
// lock: a directory's entries and attribute cell, and the cells of the
// files minted in it, share one, so clients working in different
// directories do not wait on each other.
//
// Directory servers are dataless: every mutation is journaled in a
// write-ahead log, which compacts itself to the records of the live cells
// one shard at a time, and a restart replays it, enabling failover
// (§2.3).
package dirsrv

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/nfsproto"
	"slice/internal/once"
	"slice/internal/wal"
	"slice/internal/xdr"
)

// attrCell is the attribute cell for one file or directory. Symbolic
// links store their target path in the cell: link contents are small,
// immutable, and read with the attributes, so they live with the name
// service rather than the data servers.
type attrCell struct {
	fh     fhandle.Handle
	at     attr.Attr
	target string
}

// nameCell is one name entry: a binding of (parent, name) to a child
// handle. The child's attribute cell may be local or on another site
// (a "remote key" in the paper's terms); child.Site says where.
type nameCell struct {
	parent fhandle.Key
	name   string
	child  fhandle.Handle
}

// nShards is the number of shards a directory server's state is split
// into. It is a constant, not an option: a file ID's low bits name its
// shard (shardOf) for as long as the journal keeps the file.
const nShards = 256

// shardOf returns the shard that holds fileID's attribute cell and, for a
// directory, its name entries. A file is minted into its parent's shard,
// so a file's create, lookup, getattr and setattr take that one shard's
// lock; a directory is minted into the next shard round-robin.
func shardOf(fileID uint64) int { return int(fileID % nShards) }

// state is the cell store of one shard.
type state struct {
	// attrs maps cell keys (fileIDs) to attribute cells.
	attrs map[uint64]*attrCell
	// chains maps name-key fingerprints to hash chains of name cells.
	chains map[uint64][]*nameCell
	// byDir indexes local name cells by parent directory for readdir.
	byDir map[fhandle.Key][]*nameCell
	// last is the highest fileID minted or replayed in the shard (0:
	// none); the high bits carry the site so IDs are unique across
	// servers, the low bits the shard.
	last uint64
	// cellBytes is the journal length of the cells' live records (one
	// recNewCell per attribute cell, one recInsert per name cell), kept
	// by putCell, dropCell, insertEntry and removeEntry, so replay keeps
	// it too.
	cellBytes int
}

// shard is one lock's worth of a directory server's state: its cells,
// the outcome of each call whose record the shard journaled, and the
// scratch those records are encoded in. Every record of a shard is
// appended under its lock, the lock the log takes the shard's snapshot
// under (wal.Log.SetLive).
type shard struct {
	mu sync.Mutex
	i  int // the shard's index
	state
	// done is the outcome of each non-idempotent call served in the last
	// once.Span whose record is of this shard, NFS and peer alike; the
	// journal carries it (answered), so it survives a restart.
	done once.Table
	// rec is the journal records' scratch: a record is encoded into it
	// and appended before the next is encoded. snap is liveRecords': rec
	// may still hold the record whose append is taking a checkpoint step.
	rec, snap xdr.Encoder
	log       *wal.Log
	// counted is how much of the server's live total is this shard's
	// image; unlock brings it up to date.
	counted int
	total   *atomic.Int64
}

func (sh *shard) init(i int, log *wal.Log, total *atomic.Int64) {
	sh.i, sh.log, sh.total = i, log, total
	sh.attrs = make(map[uint64]*attrCell)
	sh.chains = make(map[uint64][]*nameCell)
	sh.byDir = make(map[fhandle.Key][]*nameCell)
}

// liveBytes is the journal length of the shard's live records
// (liveRecords), in O(1).
func (sh *shard) liveBytes() int {
	n := sh.cellBytes + sh.done.Len()*outcomeFrameLen
	if sh.last > 0 {
		n += 2 * cellFrameLen("")
	}
	return n
}

// unlock releases the shard, first adding the change in its live image
// to the server's total, which the log's checkpoint trigger reads.
func (sh *shard) unlock() {
	if n := sh.liveBytes(); n != sh.counted {
		sh.total.Add(int64(n - sh.counted))
		sh.counted = n
	}
	sh.mu.Unlock()
}

// append journals a record of the shard; the caller holds sh.mu.
func (sh *shard) append(recType uint32, payload []byte) error {
	_, err := sh.log.AppendIn(sh.i, recType, payload)
	return err
}

// appendSync journals a record of the shard and makes it durable; the
// caller holds sh.mu.
func (sh *shard) appendSync(recType uint32, payload []byte) error {
	if err := sh.append(recType, payload); err != nil {
		return err
	}
	return sh.log.Sync()
}

// findEntry returns the name cell for (parent, name), or nil.
func (st *state) findEntry(parent fhandle.Handle, name string) *nameCell {
	key := nameKeyOf(parent, name)
	for _, c := range st.chains[key] {
		if c.parent == parent.Ident() && c.name == name {
			return c
		}
	}
	return nil
}

// putCell installs an attribute cell, replacing any with its fileID.
func (st *state) putCell(c *attrCell) {
	if old := st.attrs[c.fh.FileID]; old != nil {
		st.cellBytes -= cellFrameLen(old.target)
	}
	st.attrs[c.fh.FileID] = c
	st.cellBytes += cellFrameLen(c.target)
}

// dropCell deletes the attribute cell with the given fileID, if any.
func (st *state) dropCell(fileID uint64) {
	if c := st.attrs[fileID]; c != nil {
		delete(st.attrs, fileID)
		st.cellBytes -= cellFrameLen(c.target)
	}
}

// insertEntry adds a name cell; the caller must have checked uniqueness.
func (st *state) insertEntry(c *nameCell) {
	key := fhandle.NameKey(handleFromKey(c.parent), c.name)
	st.chains[key] = append(st.chains[key], c)
	st.byDir[c.parent] = append(st.byDir[c.parent], c)
	st.cellBytes += entryFrameLen(c.name)
}

// removeEntry deletes the name cell for (parent, name) and returns it.
func (st *state) removeEntry(parent fhandle.Handle, name string) *nameCell {
	key := nameKeyOf(parent, name)
	chain := st.chains[key]
	for i, c := range chain {
		if c.parent == parent.Ident() && c.name == name {
			st.chains[key] = append(chain[:i], chain[i+1:]...)
			if len(st.chains[key]) == 0 {
				delete(st.chains, key)
			}
			dl := st.byDir[c.parent]
			for j, d := range dl {
				if d == c {
					st.byDir[c.parent] = append(dl[:j], dl[j+1:]...)
					break
				}
			}
			if len(st.byDir[c.parent]) == 0 {
				delete(st.byDir, c.parent)
			}
			st.cellBytes -= entryFrameLen(c.name)
			return c
		}
	}
	return nil
}

// entriesOf returns the local name cells under parent, sorted by name.
func (st *state) entriesOf(parent fhandle.Key) []*nameCell {
	ents := st.byDir[parent]
	out := make([]*nameCell, len(ents))
	copy(out, ents)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// handleFromKey reconstructs the identity fields of a handle from a Key.
// Only identity fields participate in NameKey fingerprints, so name-key
// computations from a Key match those from the original handle.
func handleFromKey(k fhandle.Key) fhandle.Handle {
	return fhandle.Handle{Volume: k.Volume, FileID: k.FileID, Gen: k.Gen}
}

// NameKey fingerprints must depend only on handle identity; assert the
// convention once here. A handle with hints differs from its bare identity
// handle, so the fingerprint must be computed from identity alone.
func nameKeyOf(parent fhandle.Handle, name string) uint64 {
	return fhandle.NameKey(handleFromKey(parent.Ident()), name)
}

// ------------------------------------------------------------ WAL records

// Log record types for directory server journaling.
const (
	recCreate   = 1 // entry + attr cell created together
	recMkdirIn  = 2 // redirected mkdir: local cell, remote entry
	recRemove   = 3 // entry removed (and cell, if local)
	recSetAttr  = 4
	recInsert   = 5  // entry inserted (peer or rename/link)
	recTouch    = 6  // directory nlink/mtime adjustment
	recLinkDel  = 7  // link count delta on a cell
	recCellGone = 8  // attribute cell removed
	recNewCell  = 9  // attribute cell created alone
	recOutcome  = 10 // a call's outcome alone: its shard's index, then its once.Done
)

// A record that makes a call's mutation durable ends in the call's
// once.Done — its identity and outcome — after its own fields
// (shard.answered), so the mutation and the answer a retransmission gets
// reach the journal together, and replay rebuilds the outcome table. A
// record is of the shard of the cell or the directory it names (a cell
// record's file, an entry record's parent) and a recOutcome of the shard
// it names; its outcome lives in that shard's table.

// outcomeFrameLen is the journal length of a recOutcome record.
var outcomeFrameLen = wal.FrameLen(4 + once.DoneSize)

// cellFrameLen is the journal length of a cell record carrying target.
func cellFrameLen(target string) int {
	return wal.FrameLen(fhandle.Size + attr.EncodedSize + xdr.StringSize(target))
}

// entryFrameLen is the journal length of an entry record for name.
func entryFrameLen(name string) int {
	return wal.FrameLen(2*fhandle.Size + xdr.StringSize(name))
}

// encodeCellRecord encodes into e, reset first, a cell's full post-state,
// including any symlink target, and returns the record.
func encodeCellRecord(e *xdr.Encoder, fh fhandle.Handle, at *attr.Attr, target string) []byte {
	e.Reset()
	fh.Encode(e)
	at.Encode(e)
	e.PutString(target)
	return e.Bytes()
}

// cellRecord encodes a cell record into the shard's journal scratch. The
// caller holds sh.mu and appends the record before it encodes another.
func (sh *shard) cellRecord(fh fhandle.Handle, at *attr.Attr) []byte {
	return encodeCellRecord(&sh.rec, fh, at, "")
}

func decodeCellRecord(d *xdr.Decoder) (fhandle.Handle, attr.Attr, string, error) {
	fh, err := fhandle.Decode(d)
	if err != nil {
		return fh, attr.Attr{}, "", err
	}
	var at attr.Attr
	if err := at.Decode(d); err != nil {
		return fh, at, "", err
	}
	target, err := d.String()
	return fh, at, target, err
}

// encodeEntryRecord encodes into e, reset first, a name entry record.
func encodeEntryRecord(e *xdr.Encoder, parent fhandle.Handle, name string, child fhandle.Handle) []byte {
	e.Reset()
	parent.Encode(e)
	e.PutString(name)
	child.Encode(e)
	return e.Bytes()
}

// entryRecord encodes an entry record into the shard's journal scratch,
// under the same rule as cellRecord.
func (sh *shard) entryRecord(parent fhandle.Handle, name string, child fhandle.Handle) []byte {
	return encodeEntryRecord(&sh.rec, parent, name, child)
}

// outcome journals the outcome st and v of the call id in a recOutcome
// of the shard's own: an op whose last record is of another shard, or of
// another site, records it where its retransmission looks.
func (sh *shard) outcome(id once.Ident, st nfsproto.Status, v uint64) {
	sh.mu.Lock()
	defer sh.unlock()
	sh.rec.Reset()
	sh.rec.PutUint32(uint32(sh.i))
	_ = sh.append(recOutcome, sh.answered(id, st, v))
}

func decodeEntryRecord(d *xdr.Decoder) (parent fhandle.Handle, name string, child fhandle.Handle, err error) {
	if parent, err = fhandle.Decode(d); err != nil {
		return
	}
	if name, err = d.String(); err != nil {
		return
	}
	child, err = fhandle.Decode(d)
	return
}

// answered appends to the record just encoded in the journal scratch the
// outcome st and v of the call id, and records it in the shard's outcome
// table: the record that carries the call's mutation carries its answer
// too. A zero id — a step of an operation whose outcome another record
// carries — appends nothing. It returns the record. The caller holds
// sh.mu.
func (sh *shard) answered(id once.Ident, st nfsproto.Status, v uint64) []byte {
	if !id.IsZero() {
		d := sh.done.Record(id, once.Outcome{Status: uint32(st), Value: v})
		d.Encode(&sh.rec)
	}
	return sh.rec.Bytes()
}

// recorded returns the outcome the shard recorded for the call id (zero:
// none). The caller holds sh.mu.
func (sh *shard) recorded(id once.Ident) (nfsproto.Status, uint64, bool) {
	if id.IsZero() {
		return 0, 0, false
	}
	o, ok := sh.done.Find(id)
	return nfsproto.Status(o.Status), o.Value, ok
}

// ------------------------------------------------------------ compaction

// liveRecords emits shard sh's state for wal.Log to checkpoint: the last
// fileID minted in it, as a cell made and gone so no restart reissues it,
// then one recNewCell per attribute cell, one recInsert per name cell and
// one recOutcome per call outcome of the last once.Span, encoded in the
// shard's snapshot scratch. The caller holds sh.mu.
func (s *Server) liveRecords(sh *shard, emit func(recType uint32, payload []byte)) {
	e := &sh.snap
	if sh.last > 0 {
		last := fhandle.Handle{Volume: s.vol, FileID: sh.last, CellKey: sh.last, Site: s.site, Gen: 1}
		rec := encodeCellRecord(e, last, &attr.Attr{}, "")
		emit(recNewCell, rec)
		emit(recCellGone, rec)
	}
	for _, c := range sh.attrs {
		emit(recNewCell, encodeCellRecord(e, c.fh, &c.at, c.target))
	}
	for _, ents := range sh.byDir { // name cells in creation order
		for _, c := range ents {
			emit(recInsert, encodeEntryRecord(e, handleFromKey(c.parent), c.name, c.child))
		}
	}
	sh.done.Each(func(d *once.Done) {
		e.Reset()
		e.PutUint32(uint32(sh.i))
		d.Encode(e)
		emit(recOutcome, e.Bytes())
	})
}

// liveSize is the journal length every shard's liveRecords emits, as the
// shards last counted it on unlock: exact whenever no shard is locked.
func (s *Server) liveSize() int { return int(s.live.Load()) }

// replayLog applies every surviving journal record over the current
// state (empty for a restarted server). Replay is idempotent, so replaying over state that already
// holds some records is safe.
func (s *Server) replayLog(log *wal.Log) error {
	return log.Scan(func(seq uint64, recType uint32, payload []byte) error {
		return s.replay(recType, payload)
	})
}

// replay applies one journal record to the shard it is of. Replay is
// idempotent: records assert final states rather than increments where
// possible, and increments are guarded by the presence checks below. A
// record that ends in a call's outcome puts it back in its shard's
// outcome table, unless it has expired. A record touches its shard
// alone, so a shard's records replay the same whether the records of
// others before them are there or not: a checkpoint may drop them.
func (s *Server) replay(recType uint32, payload []byte) error {
	d := xdr.NewDecoder(payload)
	var (
		sh                *shard
		fh, parent, child fhandle.Handle
		at                attr.Attr
		target, name      string
		err               error
	)
	switch recType {
	case recCreate, recMkdirIn, recNewCell, recSetAttr, recTouch, recLinkDel, recCellGone:
		fh, at, target, err = decodeCellRecord(d)
		sh = s.shard(fh.FileID)
	case recInsert, recRemove:
		parent, name, child, err = decodeEntryRecord(d)
		sh = s.shard(parent.FileID)
	case recOutcome:
		var i uint32
		if i, err = d.Uint32(); err == nil && i >= nShards {
			err = fmt.Errorf("dirsrv: outcome record of shard %d", i)
		}
		sh = &s.shards[i%nShards]
	default:
		return fmt.Errorf("dirsrv: unknown log record type %d", recType)
	}
	if err != nil {
		return err
	}
	var done once.Done
	answered := d.Remaining() > 0
	if answered {
		if done, err = once.DecodeDone(d); err != nil {
			return err
		}
	}
	sh.mu.Lock()
	defer sh.unlock()
	switch recType {
	case recCreate, recMkdirIn, recNewCell:
		sh.putCell(&attrCell{fh: fh, at: at, target: target})
		sh.last = max(sh.last, fh.FileID)
	case recInsert:
		if sh.findEntry(parent, name) == nil {
			sh.insertEntry(&nameCell{parent: parent.Ident(), name: name, child: child})
		}
	case recRemove:
		sh.removeEntry(parent, name)
	case recSetAttr, recTouch, recLinkDel:
		if c := sh.attrs[fh.FileID]; c != nil {
			c.at = at // records carry the post-state for idempotent replay
		}
	case recCellGone:
		sh.dropCell(fh.FileID)
	}
	if answered {
		sh.done.Put(done)
	}
	return nil
}

// now returns the current wire timestamp.
func (s *Server) now() attr.Time { return attr.FromGo(time.Now()) }

// Counters aggregates directory server activity for the experiments.
type Counters struct {
	Ops        uint64 // NFS operations executed, not those answered from their outcome
	PeerCalls  uint64 // outbound peer-protocol calls
	PeerServed uint64 // inbound peer-protocol calls
	CrossSite  uint64 // NFS operations that required a peer call
	// Outcomes is the outcome tables' size now (once.Table.Len, summed
	// over the shards), OutcomesPeak the sum of each shard's most: at
	// least the most the server has held at once.
	Outcomes, OutcomesPeak uint64
}
