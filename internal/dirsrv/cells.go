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
// write-ahead log, and the full cell state can be snapshot to and restored
// from a backing object, enabling failover (§2.3).
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
	// nextID mints fileIDs; the high bits carry the site so IDs are
	// unique across servers.
	nextID uint64
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

// insertEntry adds a name cell; the caller must have checked uniqueness.
func (st *state) insertEntry(c *nameCell) {
	key := fhandle.NameKey(handleFromKey(c.parent), c.name)
	st.chains[key] = append(st.chains[key], c)
	st.byDir[c.parent] = append(st.byDir[c.parent], c)
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

// encodeCellRecord journals a cell's full post-state, including any
// symlink target.
func encodeCellRecord(fh fhandle.Handle, at *attr.Attr) []byte {
	return encodeCellRecordT(fh, at, "")
}

func encodeCellRecordT(fh fhandle.Handle, at *attr.Attr, target string) []byte {
	e := xdr.NewEncoder(fhandle.Size + attr.EncodedSize + xdr.StringSize(target))
	fh.Encode(e)
	at.Encode(e)
	e.PutString(target)
	return e.Bytes()
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

func encodeEntryRecord(parent fhandle.Handle, name string, child fhandle.Handle) []byte {
	e := xdr.NewEncoder(2*fhandle.Size + xdr.StringSize(name))
	parent.Encode(e)
	e.PutString(name)
	child.Encode(e)
	return e.Bytes()
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

// ------------------------------------------------------------- snapshot

// snapshotMagic guards snapshot decoding.
const snapshotMagic = 0x5D1C5A1D

// Snapshot serializes the full cell state for checkpoint to a backing
// object. The WAL may be truncated after a successful snapshot.
func (s *Server) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := xdr.NewEncoder(4096)
	e.PutUint32(snapshotMagic)
	e.PutUint64(s.st.nextID)
	e.PutUint32(uint32(len(s.st.attrs)))
	// Deterministic order for reproducible snapshots.
	keys := make([]uint64, 0, len(s.st.attrs))
	for k := range s.st.attrs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		c := s.st.attrs[k]
		e.PutUint64(k)
		c.fh.Encode(e)
		c.at.Encode(e)
		e.PutString(c.target)
	}
	var cells []*nameCell
	for _, chain := range s.st.chains {
		cells = append(cells, chain...)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].parent != cells[j].parent {
			return cells[i].parent.FileID < cells[j].parent.FileID
		}
		return cells[i].name < cells[j].name
	})
	e.PutUint32(uint32(len(cells)))
	for _, c := range cells {
		handleFromKey(c.parent).Encode(e)
		e.PutString(c.name)
		c.child.Encode(e)
	}
	return e.Bytes()
}

// restoreSnapshot loads cell state from a snapshot.
func (s *Server) restoreSnapshot(p []byte) error {
	d := xdr.NewDecoder(p)
	magic, err := d.Uint32()
	if err != nil || magic != snapshotMagic {
		return fmt.Errorf("dirsrv: bad snapshot (magic %x, err %v)", magic, err)
	}
	st := newState()
	if st.nextID, err = d.Uint64(); err != nil {
		return err
	}
	nAttrs, err := d.Uint32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nAttrs; i++ {
		k, err := d.Uint64()
		if err != nil {
			return err
		}
		fh, err := fhandle.Decode(d)
		if err != nil {
			return err
		}
		var at attr.Attr
		if err := at.Decode(d); err != nil {
			return err
		}
		target, err := d.String()
		if err != nil {
			return err
		}
		st.attrs[k] = &attrCell{fh: fh, at: at, target: target}
	}
	nCells, err := d.Uint32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nCells; i++ {
		parent, err := fhandle.Decode(d)
		if err != nil {
			return err
		}
		name, err := d.String()
		if err != nil {
			return err
		}
		child, err := fhandle.Decode(d)
		if err != nil {
			return err
		}
		st.insertEntry(&nameCell{parent: parent.Ident(), name: name, child: child})
	}
	s.mu.Lock()
	s.st = st
	s.mu.Unlock()
	return nil
}

// replayLog applies every surviving journal record over the current
// state (empty for a restarted server; a checkpoint once one is
// restored). Replay is idempotent, so replaying over state that already
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
		s.st.attrs[fh.FileID] = &attrCell{fh: fh, at: at, target: target}
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
		delete(s.st.attrs, fh.FileID)
	default:
		return fmt.Errorf("dirsrv: unknown log record type %d", recType)
	}
	return nil
}

// now returns the current wire timestamp via the injectable clock.
func (s *Server) now() attr.Time {
	if s.clock != nil {
		return s.clock()
	}
	return attr.FromGo(time.Now())
}

// Counters aggregates directory server activity for the experiments.
type Counters struct {
	Ops        uint64 // NFS operations served
	PeerCalls  uint64 // outbound peer-protocol calls
	PeerServed uint64 // inbound peer-protocol calls
	CrossSite  uint64 // NFS operations that required a peer call
}
