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
// Directory servers are dataless: every mutation is journaled in a
// write-ahead log, which compacts itself to the records of the live cells,
// and a restart replays it, enabling failover (§2.3).
package dirsrv

import (
	"fmt"
	"sort"
	"time"

	"slice/internal/attr"
	"slice/internal/fhandle"
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

// state is the cell store of one directory server. All access goes through
// the server mutex.
type state struct {
	// attrs maps cell keys (fileIDs) to attribute cells.
	attrs map[uint64]*attrCell
	// chains maps name-key fingerprints to hash chains of name cells.
	chains map[uint64][]*nameCell
	// byDir indexes local name cells by parent directory for readdir.
	byDir map[fhandle.Key][]*nameCell
	// nextID is one past the highest fileID minted or replayed here; the
	// high bits carry the site so IDs are unique across servers.
	nextID uint64
	// cellBytes is the journal length of the cells' live records (one
	// recNewCell per attribute cell, one recInsert per name cell), kept
	// by putCell, dropCell, insertEntry and removeEntry, so replay keeps
	// it too.
	cellBytes int
}

func newState() *state {
	return &state{
		attrs:  make(map[uint64]*attrCell),
		chains: make(map[uint64][]*nameCell),
		byDir:  make(map[fhandle.Key][]*nameCell),
	}
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
	recInsert   = 5 // entry inserted (peer or rename/link)
	recTouch    = 6 // directory nlink/mtime adjustment
	recLinkDel  = 7 // link count delta on a cell
	recCellGone = 8 // attribute cell removed
	recNewCell  = 9 // attribute cell created alone
)

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

// cellRecord encodes a cell record into the server's journal scratch.
// The caller holds s.mu and appends the record before it encodes another.
func (s *Server) cellRecord(fh fhandle.Handle, at *attr.Attr) []byte {
	return encodeCellRecord(&s.rec, fh, at, "")
}

func decodeCellRecord(p []byte) (fhandle.Handle, attr.Attr, string, error) {
	d := xdr.NewDecoder(p)
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

// entryRecord encodes an entry record into the server's journal scratch,
// under the same rule as cellRecord.
func (s *Server) entryRecord(parent fhandle.Handle, name string, child fhandle.Handle) []byte {
	return encodeEntryRecord(&s.rec, parent, name, child)
}

func decodeEntryRecord(p []byte) (parent fhandle.Handle, name string, child fhandle.Handle, err error) {
	d := xdr.NewDecoder(p)
	if parent, err = fhandle.Decode(d); err != nil {
		return
	}
	if name, err = d.String(); err != nil {
		return
	}
	child, err = fhandle.Decode(d)
	return
}

// ------------------------------------------------------------ compaction

// liveRecords emits the server's state for wal.Log to compact to: the last
// fileID minted, as a cell made and gone so no restart reissues it, then
// one recNewCell per attribute cell and one recInsert per name cell.
// It encodes through an encoder of its own: the server's scratch still
// holds the record whose append triggered the compaction. The caller
// holds s.mu.
func (s *Server) liveRecords(emit func(recType uint32, payload []byte)) {
	e := xdr.NewEncoder(fhandle.Size + attr.EncodedSize + 64)
	if s.st.nextID > 0 {
		last := fhandle.Handle{Volume: s.vol, FileID: s.st.nextID - 1, CellKey: s.st.nextID - 1, Site: s.site, Gen: 1}
		rec := encodeCellRecord(e, last, &attr.Attr{}, "")
		emit(recNewCell, rec)
		emit(recCellGone, rec)
	}
	for _, c := range s.st.attrs {
		emit(recNewCell, encodeCellRecord(e, c.fh, &c.at, c.target))
	}
	for _, ents := range s.st.byDir { // name cells in creation order
		for _, c := range ents {
			emit(recInsert, encodeEntryRecord(e, handleFromKey(c.parent), c.name, c.child))
		}
	}
}

// liveSize is the journal length liveRecords emits, in O(1). The caller
// holds s.mu.
func (s *Server) liveSize() int {
	n := s.st.cellBytes
	if s.st.nextID > 0 {
		n += 2 * cellFrameLen("")
	}
	return n
}

// replayLog applies every surviving journal record over the current
// state (empty for a restarted server). Replay is idempotent, so replaying over state that already
// holds some records is safe.
func (s *Server) replayLog(log *wal.Log) error {
	return log.Scan(func(seq uint64, recType uint32, payload []byte) error {
		return s.replay(recType, payload)
	})
}

// replay applies one journal record. Replay is idempotent: records assert
// final states rather than increments where possible, and increments are
// guarded by the presence checks below.
func (s *Server) replay(recType uint32, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch recType {
	case recCreate, recMkdirIn, recNewCell:
		fh, at, target, err := decodeCellRecord(payload)
		if err != nil {
			return err
		}
		s.st.putCell(&attrCell{fh: fh, at: at, target: target})
		if fh.FileID >= s.st.nextID {
			s.st.nextID = fh.FileID + 1
		}
	case recInsert:
		parent, name, child, err := decodeEntryRecord(payload)
		if err != nil {
			return err
		}
		if s.st.findEntry(parent, name) == nil {
			s.st.insertEntry(&nameCell{parent: parent.Ident(), name: name, child: child})
		}
	case recRemove:
		parent, name, _, err := decodeEntryRecord(payload)
		if err != nil {
			return err
		}
		s.st.removeEntry(parent, name)
	case recSetAttr:
		fh, at, _, err := decodeCellRecord(payload)
		if err != nil {
			return err
		}
		if c := s.st.attrs[fh.FileID]; c != nil {
			c.at = at
		}
	case recTouch, recLinkDel:
		fh, at, _, err := decodeCellRecord(payload)
		if err != nil {
			return err
		}
		if c := s.st.attrs[fh.FileID]; c != nil {
			c.at = at // records carry the post-state for idempotent replay
		}
	case recCellGone:
		fh, _, _, err := decodeCellRecord(payload)
		if err != nil {
			return err
		}
		s.st.dropCell(fh.FileID)
	default:
		return fmt.Errorf("dirsrv: unknown log record type %d", recType)
	}
	return nil
}

// now returns the current wire timestamp.
func (s *Server) now() attr.Time { return attr.FromGo(time.Now()) }

// Counters aggregates directory server activity for the experiments.
type Counters struct {
	Ops        uint64 // NFS operations served
	PeerCalls  uint64 // outbound peer-protocol calls
	PeerServed uint64 // inbound peer-protocol calls
	CrossSite  uint64 // NFS operations that required a peer call
}
