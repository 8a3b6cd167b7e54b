package dirsrv

import (
	"sync"
	"sync/atomic"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/wal"
	"slice/internal/xdr"
)

// MountProgram is the RPC program returning the root file handle of a
// volume — the NFS MOUNT protocol. Constants are aliased from nfsproto,
// where the message definitions live.
const (
	MountProgram = nfsproto.MountProgram
	MountVersion = nfsproto.MountVersion
	MountProcMnt = nfsproto.MountProcMnt
)

// ExportPath is the single dirpath this volume exports. MNT accepts it,
// "/", or an empty/absent argument (the in-fabric client sends none).
const ExportPath = "/export/slice"

// Config configures a directory server.
type Config struct {
	// Site is this server's logical site ID.
	Site uint32
	// Volume is the volume this server participates in.
	Volume uint32
	// Kind selects the name-space policy the ensemble runs; it affects
	// how this server resolves cross-site structures (readdir, rmdir).
	Kind route.NameKind
	// Table maps logical directory sites to physical servers, for peer
	// calls.
	Table *route.Table
	// Log is the server's write-ahead journal.
	Log *wal.Log
	// Net is the fabric, used to bind the peer-client port.
	Net *netsim.Network
	// Host is this server's host address for the peer-client port.
	Host uint32
}

// Server is one Slice directory server site.
type Server struct {
	site  uint32
	vol   uint32
	kind  route.NameKind
	table *route.Table

	mu     sync.Mutex
	st     *state
	log    *wal.Log
	rootFH fhandle.Handle
	// rec is the journal records' scratch, used under mu: a record is
	// encoded into it and appended before the next is encoded.
	rec xdr.Encoder

	ct struct{ ops, peerCalls, peerServed, crossSite atomic.Uint64 }

	// peer is the one client the server calls its peer sites from,
	// bound on first use.
	peer *oncrpc.LazyClient

	srv *oncrpc.Server
}

// New starts a directory server on the given service port.
func New(port *netsim.Port, cfg Config) *Server {
	s := newServer(cfg)
	s.srv = oncrpc.NewServer(port, s)
	return s
}

// Restart builds a directory server recovered from its journal, cfg.Log,
// BEFORE it begins serving on port, so no request can observe
// pre-recovery state. The server keeps journaling to the log it
// replayed, so a later crash recovers from the full record sequence; an
// empty journal makes it a fresh server. This is the uniform manager
// failover path of §2.3: a directory server's state is its write-ahead
// log, rebuilt by replay. The caller installs the volume root with
// SetRoot and publishes the server's address in the routing table.
func Restart(port *netsim.Port, cfg Config) (*Server, error) {
	s := newServer(cfg)
	if err := s.replayLog(cfg.Log); err != nil {
		return nil, err
	}
	s.srv = oncrpc.NewServer(port, s)
	return s, nil
}

func newServer(cfg Config) *Server {
	s := &Server{
		site:  cfg.Site,
		vol:   cfg.Volume,
		kind:  cfg.Kind,
		table: cfg.Table,
		st:    newState(),
		log:   cfg.Log,
		peer:  oncrpc.NewLazyClient(cfg.Net, cfg.Host, oncrpc.ClientConfig{}),
	}
	s.log.SetLive(&s.mu, s.liveRecords, s.liveSize)
	return s
}

// Addr returns the server's service address.
func (s *Server) Addr() netsim.Addr { return s.srv.Addr() }

// SetObs attaches a histogram registry recording per-procedure handler
// latency (nil detaches). A restarted server is re-attached to the same
// registry, so counts accumulate across failovers.
func (s *Server) SetObs(reg *obs.Registry) {
	if reg == nil {
		s.srv.SetObserver(nil)
		return
	}
	s.srv.SetObserver(reg.ObserveRPC)
}

// Log returns the server's journal (for stats and failover tests).
func (s *Server) Log() *wal.Log { return s.log }

// Counters returns a snapshot of the server's activity counters.
func (s *Server) Counters() Counters {
	return Counters{
		Ops:        s.ct.ops.Load(),
		PeerCalls:  s.ct.peerCalls.Load(),
		PeerServed: s.ct.peerServed.Load(),
		CrossSite:  s.ct.crossSite.Load(),
	}
}

// Close shuts the server down.
func (s *Server) Close() {
	s.srv.Close()
	s.peer.Close()
}

// CreateRoot mints the volume root directory. The ensemble calls it once,
// on the site that owns the root.
func (s *Server) CreateRoot() (fhandle.Handle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.rootFH.IsZero() {
		return s.rootFH, nil
	}
	now := s.now()
	fh := s.mintLocked(uint8(attr.TypeDir))
	cell := &attrCell{fh: fh, at: attr.Attr{
		Type: attr.TypeDir, Mode: 0o755, Nlink: 2,
		FileID: fh.FileID, Atime: now, Mtime: now, Ctime: now,
	}}
	s.st.putCell(cell)
	s.rootFH = fh
	if _, err := s.log.AppendSync(recNewCell, s.cellRecord(fh, &cell.at)); err != nil {
		return fhandle.Handle{}, err
	}
	return fh, nil
}

// SetRoot installs an existing root handle (on non-owner sites, so they
// can serve MOUNT too).
func (s *Server) SetRoot(fh fhandle.Handle) {
	s.mu.Lock()
	s.rootFH = fh
	s.mu.Unlock()
}

// mintLocked allocates a fresh file handle owned by this site.
func (s *Server) mintLocked(ftype uint8) fhandle.Handle {
	id := uint64(s.site+1)<<40 | max(s.st.nextID, 1)
	s.st.nextID = id + 1
	return fhandle.Handle{
		Volume:  s.vol,
		FileID:  id,
		Type:    ftype,
		CellKey: id,
		Site:    s.site,
		Gen:     1,
	}
}

// ServeRPC implements oncrpc.Handler: it dispatches a call by program.
// The NFS procedures decode their arguments and encode their results
// straight into the reply; the cold mount and peer programs return
// theirs as encoder functions (oncrpc.HandlerFunc).
func (s *Server) ServeRPC(call oncrpc.Call, from netsim.Addr, e *xdr.Encoder) uint32 {
	switch call.Program {
	case nfsproto.Program:
		return s.serveNFS(call, e)
	case PeerProgram:
		return oncrpc.HandlerFunc(s.servePeer).ServeRPC(call, from, e)
	case MountProgram:
		return oncrpc.HandlerFunc(s.serveMount).ServeRPC(call, from, e)
	default:
		return oncrpc.AcceptProgUnavail
	}
}

func (s *Server) serveMount(call oncrpc.Call, _ netsim.Addr) (func(*xdr.Encoder), uint32) {
	switch call.Proc {
	case nfsproto.MountProcNull:
		return func(*xdr.Encoder) {}, oncrpc.AcceptSuccess

	case nfsproto.MountProcMnt:
		// The dirpath argument is optional for back-compatibility: the
		// in-fabric client has always sent a bare MNT. When present it
		// must name the export (or "/").
		if len(call.Body) > 0 {
			var args nfsproto.MountPathArgs
			if err := args.Decode(xdr.NewDecoder(call.Body)); err != nil {
				return nil, oncrpc.AcceptGarbageArgs
			}
			if args.Path != "" && args.Path != "/" && args.Path != ExportPath {
				res := nfsproto.MountMntRes{Status: nfsproto.ErrNoEnt}
				return res.Encode, oncrpc.AcceptSuccess
			}
		}
		s.mu.Lock()
		fh := s.rootFH
		s.mu.Unlock()
		res := nfsproto.MountMntRes{Status: nfsproto.OK, FH: fh}
		if fh.IsZero() {
			res = nfsproto.MountMntRes{Status: nfsproto.ErrNoEnt}
		}
		return res.Encode, oncrpc.AcceptSuccess

	case nfsproto.MountProcUmnt:
		// Stateless server: nothing to tear down, but the argument must
		// still be well formed.
		if len(call.Body) > 0 {
			var args nfsproto.MountPathArgs
			if err := args.Decode(xdr.NewDecoder(call.Body)); err != nil {
				return nil, oncrpc.AcceptGarbageArgs
			}
		}
		return func(*xdr.Encoder) {}, oncrpc.AcceptSuccess

	case nfsproto.MountProcUmntAll:
		return func(*xdr.Encoder) {}, oncrpc.AcceptSuccess

	case nfsproto.MountProcExport:
		res := nfsproto.ExportRes{Entries: []nfsproto.ExportEntry{{Dir: ExportPath}}}
		return res.Encode, oncrpc.AcceptSuccess

	default:
		return nil, oncrpc.AcceptProcUnavail
	}
}

// serveNFS serves one NFS procedure: its arguments decode into a value on
// this frame and its result, returned by value, encodes into the reply, so
// neither is allocated.
func (s *Server) serveNFS(call oncrpc.Call, e *xdr.Encoder) uint32 {
	s.ct.ops.Add(1)
	d := xdr.NewDecoder(call.Body)
	var err error
	switch nfsproto.Proc(call.Proc) {
	case nfsproto.ProcNull:
	case nfsproto.ProcGetAttr:
		var a nfsproto.GetAttrArgs
		if err = a.Decode(d); err == nil {
			res := s.getattr(&a)
			res.Encode(e)
		}
	case nfsproto.ProcSetAttr:
		var a nfsproto.SetAttrArgs
		if err = a.Decode(d); err == nil {
			res := s.setattr(&a)
			res.Encode(e)
		}
	case nfsproto.ProcLookup:
		// The name is read in place (StringView): lookup keeps nothing of
		// it, and the request datagram lives until the handler returns.
		var a nfsproto.LookupArgs
		if a.Dir, err = fhandle.Decode(d); err == nil {
			if a.Name, err = d.StringView(); err == nil {
				res := s.lookup(&a)
				res.Encode(e)
			}
		}
	case nfsproto.ProcAccess:
		var a nfsproto.AccessArgs
		if err = a.Decode(d); err == nil {
			res := s.access(&a)
			res.Encode(e)
		}
	case nfsproto.ProcCreate:
		var a nfsproto.CreateArgs
		if err = a.Decode(d); err == nil {
			res := s.create(&a)
			res.Encode(e)
		}
	case nfsproto.ProcSymlink:
		var a nfsproto.SymlinkArgs
		if err = a.Decode(d); err == nil {
			res := s.symlink(&a)
			res.Encode(e)
		}
	case nfsproto.ProcReadLink:
		var a nfsproto.ReadLinkArgs
		if err = a.Decode(d); err == nil {
			res := s.readlink(&a)
			res.Encode(e)
		}
	case nfsproto.ProcMkdir:
		var a nfsproto.CreateArgs
		if err = a.Decode(d); err == nil {
			res := s.mkdir(&a)
			res.Encode(e)
		}
	case nfsproto.ProcRemove:
		var a nfsproto.RemoveArgs
		if err = a.Decode(d); err == nil {
			res := s.remove(&a)
			res.Encode(e)
		}
	case nfsproto.ProcRmdir:
		var a nfsproto.RemoveArgs
		if err = a.Decode(d); err == nil {
			res := s.rmdir(&a)
			res.Encode(e)
		}
	case nfsproto.ProcRename:
		var a nfsproto.RenameArgs
		if err = a.Decode(d); err == nil {
			res := s.rename(&a)
			res.Encode(e)
		}
	case nfsproto.ProcLink:
		var a nfsproto.LinkArgs
		if err = a.Decode(d); err == nil {
			res := s.link(&a)
			res.Encode(e)
		}
	case nfsproto.ProcReadDir:
		var a nfsproto.ReadDirArgs
		if err = a.Decode(d); err == nil {
			res := s.readdir(&a)
			res.Encode(e)
		}
	case nfsproto.ProcFsStat:
		var a nfsproto.FsStatArgs
		if err = a.Decode(d); err == nil {
			res := s.fsstat(&a)
			res.Encode(e)
		}
	default:
		return oncrpc.AcceptProcUnavail
	}
	if err != nil {
		return oncrpc.AcceptGarbageArgs
	}
	return oncrpc.AcceptSuccess
}

// dirSites returns the number of logical directory sites.
func (s *Server) dirSites() int {
	n := s.table.NumLogical()
	if n < 1 {
		return 1
	}
	return n
}

// ownsHandle reports whether fh's attribute cell should live here.
func (s *Server) ownsHandle(fh fhandle.Handle) bool {
	return fh.Site%uint32(s.dirSites()) == s.site
}

// --------------------------------------------------------- local helpers
//
// local* methods implement single-site mutations. They take s.mu, journal
// the mutation, and return NFS statuses. They never call peers, so peer
// handlers built on them are leaves of the call graph.

func (s *Server) localGetAttrByKey(key uint64) (nfsproto.Status, attr.Attr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.st.attrs[key]
	if c == nil {
		return nfsproto.ErrStale, attr.Attr{}
	}
	return nfsproto.OK, c.at
}

func (s *Server) localSetAttrByKey(key uint64, sa *attr.SetAttr) (nfsproto.Status, attr.Attr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.st.attrs[key]
	if c == nil {
		return nfsproto.ErrStale, attr.Attr{}
	}
	sa.Apply(&c.at, s.now())
	if _, err := s.log.AppendSync(recSetAttr, s.cellRecord(c.fh, &c.at)); err != nil {
		return nfsproto.ErrIO, attr.Attr{}
	}
	return nfsproto.OK, c.at
}

// localInsertEntry inserts a name entry (and, for directory children,
// bumps the parent link count). touchParent updates the parent cell if it
// is resident.
func (s *Server) localInsertEntry(parent fhandle.Handle, name string, child fhandle.Handle, touchParent bool) nfsproto.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st.findEntry(parent, name) != nil {
		return nfsproto.ErrExist
	}
	if touchParent {
		if pc := s.st.attrs[parent.FileID]; pc != nil {
			now := s.now()
			pc.at.Mtime = now
			pc.at.Ctime = now
			if child.Type == uint8(attr.TypeDir) {
				pc.at.Nlink++
			}
			if _, err := s.log.Append(recTouch, s.cellRecord(pc.fh, &pc.at)); err != nil {
				return nfsproto.ErrIO
			}
		} else if s.ownsHandle(parent) {
			// The parent should be here but its cell is gone: it was
			// removed concurrently.
			return nfsproto.ErrStale
		}
	}
	c := &nameCell{parent: parent.Ident(), name: name, child: child}
	s.st.insertEntry(c)
	if _, err := s.log.AppendSync(recInsert, s.entryRecord(parent, name, child)); err != nil {
		return nfsproto.ErrIO
	}
	return nfsproto.OK
}

// localRemoveEntry removes a name entry and returns the child handle.
func (s *Server) localRemoveEntry(parent fhandle.Handle, name string, touchParent bool) (nfsproto.Status, fhandle.Handle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.st.removeEntry(parent, name)
	if c == nil {
		return nfsproto.ErrNoEnt, fhandle.Handle{}
	}
	if touchParent {
		if pc := s.st.attrs[parent.FileID]; pc != nil {
			now := s.now()
			pc.at.Mtime = now
			pc.at.Ctime = now
			if c.child.Type == uint8(attr.TypeDir) && pc.at.Nlink > 2 {
				pc.at.Nlink--
			}
			if _, err := s.log.Append(recTouch, s.cellRecord(pc.fh, &pc.at)); err != nil {
				return nfsproto.ErrIO, fhandle.Handle{}
			}
		}
	}
	if _, err := s.log.AppendSync(recRemove, s.entryRecord(parent, name, c.child)); err != nil {
		return nfsproto.ErrIO, fhandle.Handle{}
	}
	return nfsproto.OK, c.child
}

// localTouchDir updates a resident directory cell's mtime and link count.
func (s *Server) localTouchDir(key uint64, nlinkDelta int32) nfsproto.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.st.attrs[key]
	if c == nil {
		return nfsproto.ErrStale
	}
	now := s.now()
	c.at.Mtime = now
	c.at.Ctime = now
	newNlink := int64(c.at.Nlink) + int64(nlinkDelta)
	if newNlink < 0 {
		newNlink = 0
	}
	c.at.Nlink = uint32(newNlink)
	if _, err := s.log.AppendSync(recTouch, s.cellRecord(c.fh, &c.at)); err != nil {
		return nfsproto.ErrIO
	}
	return nfsproto.OK
}

// localRemoveDirCell removes a resident directory attribute cell after
// verifying the directory has no local entries. checkEmpty is false when
// the caller has already performed a global emptiness check.
func (s *Server) localRemoveDirCell(child fhandle.Handle, checkEmpty bool) nfsproto.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.st.attrs[child.FileID]
	if c == nil {
		return nfsproto.ErrStale
	}
	if c.at.Type != attr.TypeDir {
		return nfsproto.ErrNotDir
	}
	if checkEmpty && len(s.st.byDir[child.Ident()]) > 0 {
		return nfsproto.ErrNotEmpty
	}
	s.st.dropCell(child.FileID)
	if _, err := s.log.AppendSync(recCellGone, s.cellRecord(child, &c.at)); err != nil {
		return nfsproto.ErrIO
	}
	return nfsproto.OK
}

// localLinkDelta adjusts a file cell's link count, removing the cell when
// it reaches zero. Returns the new link count.
func (s *Server) localLinkDelta(key uint64, delta int32) (nfsproto.Status, uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.st.attrs[key]
	if c == nil {
		return nfsproto.ErrStale, 0
	}
	newNlink := int64(c.at.Nlink) + int64(delta)
	if newNlink < 0 {
		newNlink = 0
	}
	c.at.Nlink = uint32(newNlink)
	c.at.Ctime = s.now()
	if c.at.Nlink == 0 && c.at.Type != attr.TypeDir {
		s.st.dropCell(key)
		if _, err := s.log.AppendSync(recCellGone, s.cellRecord(c.fh, &c.at)); err != nil {
			return nfsproto.ErrIO, 0
		}
		return nfsproto.OK, 0
	}
	if _, err := s.log.AppendSync(recLinkDel, s.cellRecord(c.fh, &c.at)); err != nil {
		return nfsproto.ErrIO, 0
	}
	return nfsproto.OK, c.at.Nlink
}

// localListDir returns the local entries of parent.
func (s *Server) localListDir(parent fhandle.Key) []remoteEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	ents := s.st.entriesOf(parent)
	out := make([]remoteEntry, len(ents))
	for i, c := range ents {
		out[i] = remoteEntry{name: c.name, child: c.child}
	}
	return out
}
