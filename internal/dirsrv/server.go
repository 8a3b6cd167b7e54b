package dirsrv

import (
	"sync/atomic"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/once"
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

	shards [nShards]shard
	// live is the journal length of every shard's live records, as each
	// last counted it (shard.unlock): the image the log checkpoints.
	live atomic.Int64
	// dirs deals new directories to shards round-robin.
	dirs atomic.Uint32
	log  *wal.Log
	root atomic.Pointer[fhandle.Handle]

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
		log:   cfg.Log,
		peer:  oncrpc.NewLazyClient(cfg.Net, cfg.Host, oncrpc.ClientConfig{}),
	}
	shards := make([]wal.Shard, nShards)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.init(i, s.log, &s.live)
		shards[i] = wal.Shard{Mu: &sh.mu, Live: func(emit func(uint32, []byte)) { s.liveRecords(sh, emit) }}
	}
	s.log.SetLive(s.liveSize, shards...)
	return s
}

// shard returns the shard that holds fileID's cell (shardOf).
func (s *Server) shard(fileID uint64) *shard { return &s.shards[shardOf(fileID)] }

// dirShard returns the shard the next directory is minted in: shard 1
// first, so the volume root is minted with the site's first file ID.
func (s *Server) dirShard() *shard { return &s.shards[s.dirs.Add(1)%nShards] }

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
	var outcomes, peak int
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		outcomes, peak = outcomes+sh.done.Len(), peak+sh.done.Peak()
		sh.mu.Unlock()
	}
	return Counters{
		Ops:          s.ct.ops.Load(),
		PeerCalls:    s.ct.peerCalls.Load(),
		PeerServed:   s.ct.peerServed.Load(),
		CrossSite:    s.ct.crossSite.Load(),
		Outcomes:     uint64(outcomes),
		OutcomesPeak: uint64(peak),
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
	if fh := s.root.Load(); fh != nil && !fh.IsZero() {
		return *fh, nil
	}
	sh := s.dirShard()
	sh.mu.Lock()
	defer sh.unlock()
	now := s.now()
	fh := s.mintLocked(sh, uint8(attr.TypeDir))
	cell := &attrCell{fh: fh, at: attr.Attr{
		Type: attr.TypeDir, Mode: 0o755, Nlink: 2,
		FileID: fh.FileID, Atime: now, Mtime: now, Ctime: now,
	}}
	sh.putCell(cell)
	s.root.Store(&fh)
	if err := sh.appendSync(recNewCell, sh.cellRecord(fh, &cell.at)); err != nil {
		return fhandle.Handle{}, err
	}
	return fh, nil
}

// SetRoot installs an existing root handle (on non-owner sites, so they
// can serve MOUNT too).
func (s *Server) SetRoot(fh fhandle.Handle) { s.root.Store(&fh) }

// mintLocked allocates a fresh file handle owned by this site, in shard
// sh, whose lock the caller holds: the next ID past the site's base that
// is sh's (shardOf), never the base itself.
func (s *Server) mintLocked(sh *shard, ftype uint8) fhandle.Handle {
	first := uint64(s.site+1)<<40 | uint64(sh.i)
	if sh.i == 0 {
		first += nShards
	}
	id := max(sh.last+nShards, first)
	sh.last = id
	return s.handleOf(id, ftype)
}

// handleOf returns the handle minted for fileID, whose high bits name the
// site that minted it.
func (s *Server) handleOf(fileID uint64, ftype uint8) fhandle.Handle {
	return fhandle.Handle{
		Volume:  s.vol,
		FileID:  fileID,
		Type:    ftype,
		CellKey: fileID,
		Site:    uint32(fileID>>40) - 1,
		Gen:     1,
	}
}

// ServeRPC implements oncrpc.Handler: it dispatches a call by program,
// and each program decodes its arguments and encodes its result straight
// into the reply.
func (s *Server) ServeRPC(call oncrpc.Call, from netsim.Addr, e *xdr.Encoder) uint32 {
	switch call.Program {
	case nfsproto.Program:
		return s.serveNFS(call, from, e)
	case PeerProgram:
		return s.servePeer(call, e)
	case MountProgram:
		return s.serveMount(call, e)
	default:
		return oncrpc.AcceptProgUnavail
	}
}

func (s *Server) serveMount(call oncrpc.Call, e *xdr.Encoder) uint32 {
	// The path argument of MNT and UMNT is optional for back-compatibility:
	// the in-fabric client has always sent a bare MNT. When present it
	// must be well formed, and MNT's must name the export (or "/").
	var args nfsproto.MountPathArgs
	if (call.Proc == nfsproto.MountProcMnt || call.Proc == nfsproto.MountProcUmnt) && len(call.Body) > 0 {
		if err := args.Decode(xdr.NewDecoder(call.Body)); err != nil {
			return oncrpc.AcceptGarbageArgs
		}
	}
	switch call.Proc {
	case nfsproto.MountProcNull, nfsproto.MountProcUmnt, nfsproto.MountProcUmntAll:
		// A stateless server: nothing to tear down.
	case nfsproto.MountProcMnt:
		res := nfsproto.MountMntRes{Status: nfsproto.ErrNoEnt}
		if fh := s.root.Load(); fh != nil {
			res = nfsproto.MountMntRes{Status: nfsproto.OK, FH: *fh}
		}
		if res.FH.IsZero() || args.Path != "" && args.Path != "/" && args.Path != ExportPath {
			res = nfsproto.MountMntRes{Status: nfsproto.ErrNoEnt}
		}
		res.Encode(e)
	case nfsproto.MountProcExport:
		res := nfsproto.ExportRes{Entries: []nfsproto.ExportEntry{{Dir: ExportPath}}}
		res.Encode(e)
	default:
		return oncrpc.AcceptProcUnavail
	}
	return oncrpc.AcceptSuccess
}

// serveNFS serves one NFS procedure: its arguments decode into a value on
// this frame and its result, returned by value, encodes into the reply, so
// neither is allocated.
// A mutating procedure also takes the call's identity, under which it
// records the outcome, and answers a retransmission from it.
func (s *Server) serveNFS(call oncrpc.Call, from netsim.Addr, e *xdr.Encoder) uint32 {
	d := xdr.NewDecoder(call.Body)
	o := op{id: once.IdentOf(&call, from)}
	defer func() {
		if !o.replayed {
			s.ct.ops.Add(1)
		}
	}()
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
			res := s.setattr(&a, &o)
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
			res := s.create(&a, &o)
			res.Encode(e)
		}
	case nfsproto.ProcSymlink:
		var a nfsproto.SymlinkArgs
		if err = a.Decode(d); err == nil {
			res := s.symlink(&a, &o)
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
			res := s.mkdir(&a, &o)
			res.Encode(e)
		}
	case nfsproto.ProcRemove:
		var a nfsproto.RemoveArgs
		if err = a.Decode(d); err == nil {
			res := s.remove(&a, &o)
			res.Encode(e)
		}
	case nfsproto.ProcRmdir:
		var a nfsproto.RemoveArgs
		if err = a.Decode(d); err == nil {
			res := s.rmdir(&a, &o)
			res.Encode(e)
		}
	case nfsproto.ProcRename:
		var a nfsproto.RenameArgs
		if err = a.Decode(d); err == nil {
			res := s.rename(&a, &o)
			res.Encode(e)
		}
	case nfsproto.ProcLink:
		var a nfsproto.LinkArgs
		if err = a.Decode(d); err == nil {
			res := s.link(&a, &o)
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
// local* methods implement single-site mutations. They take the lock of
// the one shard they touch, journal the mutation, and return NFS
// statuses. They never call peers, so peer handlers built on them are
// leaves of the call graph. Each takes the identity of the call whose
// outcome its record carries: the NFS call it completes, a peer step it
// serves — which it answers from the outcome table when that step was
// served before — or none, when it is a step of an operation whose
// outcome another record carries.

// op is the NFS call a mutation serves: its identity, under which its
// outcome is recorded, and the peer mutations made on its behalf so far,
// each of which carries the identity of its step (step).
type op struct {
	id    once.Ident
	steps uint32
	// replayed is set when the op was answered from its recorded outcome:
	// no operation was executed, and Counters.Ops does not count it.
	replayed bool
}

// step returns the identity of the op's next peer mutation, proc: the
// same one in every execution of the op that reaches the same step.
func (o *op) step(proc uint32) once.Ident {
	o.steps++
	return o.id.Sub(o.steps<<8 | proc)
}

// seen returns the outcome recorded for the op in the shard of key, where
// the record that completes the op is journaled: it was served before,
// and this is a retransmission.
func (s *Server) seen(key uint64, o *op) (nfsproto.Status, uint64, bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.unlock()
	return sh.seenLocked(o)
}

// seenLocked is seen for a caller that holds sh.mu.
func (sh *shard) seenLocked(o *op) (nfsproto.Status, uint64, bool) {
	st, v, ok := sh.recorded(o.id)
	o.replayed = ok
	return st, v, ok
}

func (s *Server) localGetAttrByKey(key uint64) (nfsproto.Status, attr.Attr) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.unlock()
	c := sh.attrs[key]
	if c == nil {
		return nfsproto.ErrStale, attr.Attr{}
	}
	return nfsproto.OK, c.at
}

func (s *Server) localSetAttrByKey(key uint64, sa *attr.SetAttr, id once.Ident) (nfsproto.Status, attr.Attr) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.unlock()
	c := sh.attrs[key]
	if c == nil {
		return nfsproto.ErrStale, attr.Attr{}
	}
	sa.Apply(&c.at, s.now())
	sh.cellRecord(c.fh, &c.at)
	if err := sh.appendSync(recSetAttr, sh.answered(id, nfsproto.OK, 0)); err != nil {
		return nfsproto.ErrIO, attr.Attr{}
	}
	return nfsproto.OK, c.at
}

// localInsertEntry inserts a name entry (and, for directory children,
// bumps the parent link count) and returns the file ID the name is bound
// to. touchParent updates the parent cell if it is resident.
func (s *Server) localInsertEntry(parent fhandle.Handle, name string, child fhandle.Handle, touchParent bool, id once.Ident) (nfsproto.Status, uint64) {
	sh := s.shard(parent.FileID)
	sh.mu.Lock()
	defer sh.unlock()
	if st, bound, ok := sh.recorded(id); ok {
		return st, bound
	}
	if sh.findEntry(parent, name) != nil {
		return nfsproto.ErrExist, 0
	}
	if touchParent {
		if pc := sh.attrs[parent.FileID]; pc != nil {
			now := s.now()
			pc.at.Mtime = now
			pc.at.Ctime = now
			if child.Type == uint8(attr.TypeDir) {
				pc.at.Nlink++
			}
			if err := sh.append(recTouch, sh.cellRecord(pc.fh, &pc.at)); err != nil {
				return nfsproto.ErrIO, 0
			}
		} else if s.ownsHandle(parent) {
			// The parent should be here but its cell is gone: it was
			// removed concurrently.
			return nfsproto.ErrStale, 0
		}
	}
	c := &nameCell{parent: parent.Ident(), name: name, child: child}
	sh.insertEntry(c)
	sh.entryRecord(parent, name, child)
	if err := sh.appendSync(recInsert, sh.answered(id, nfsproto.OK, child.FileID)); err != nil {
		return nfsproto.ErrIO, 0
	}
	return nfsproto.OK, child.FileID
}

// localRemoveEntry removes a name entry and returns the child handle.
func (s *Server) localRemoveEntry(parent fhandle.Handle, name string, touchParent bool, id once.Ident) (nfsproto.Status, fhandle.Handle) {
	sh := s.shard(parent.FileID)
	sh.mu.Lock()
	defer sh.unlock()
	c := sh.removeEntry(parent, name)
	if c == nil {
		return nfsproto.ErrNoEnt, fhandle.Handle{}
	}
	if touchParent {
		if pc := sh.attrs[parent.FileID]; pc != nil {
			now := s.now()
			pc.at.Mtime = now
			pc.at.Ctime = now
			if c.child.Type == uint8(attr.TypeDir) && pc.at.Nlink > 2 {
				pc.at.Nlink--
			}
			if err := sh.append(recTouch, sh.cellRecord(pc.fh, &pc.at)); err != nil {
				return nfsproto.ErrIO, fhandle.Handle{}
			}
		}
	}
	sh.entryRecord(parent, name, c.child)
	if err := sh.appendSync(recRemove, sh.answered(id, nfsproto.OK, 0)); err != nil {
		return nfsproto.ErrIO, fhandle.Handle{}
	}
	return nfsproto.OK, c.child
}

// localTouchDir updates a resident directory cell's mtime and link count.
func (s *Server) localTouchDir(key uint64, nlinkDelta int32, id once.Ident) nfsproto.Status {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.unlock()
	if st, _, ok := sh.recorded(id); ok {
		return st
	}
	c := sh.attrs[key]
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
	sh.cellRecord(c.fh, &c.at)
	if err := sh.appendSync(recTouch, sh.answered(id, nfsproto.OK, 0)); err != nil {
		return nfsproto.ErrIO
	}
	return nfsproto.OK
}

// localRemoveDirCell removes a resident directory attribute cell after
// verifying the directory has no local entries. checkEmpty is false when
// the caller has already performed a global emptiness check.
func (s *Server) localRemoveDirCell(child fhandle.Handle, checkEmpty bool, id once.Ident) nfsproto.Status {
	sh := s.shard(child.FileID)
	sh.mu.Lock()
	defer sh.unlock()
	if st, _, ok := sh.recorded(id); ok {
		return st
	}
	c := sh.attrs[child.FileID]
	if c == nil {
		return nfsproto.ErrStale
	}
	if c.at.Type != attr.TypeDir {
		return nfsproto.ErrNotDir
	}
	if checkEmpty && len(sh.byDir[child.Ident()]) > 0 {
		return nfsproto.ErrNotEmpty
	}
	sh.dropCell(child.FileID)
	sh.cellRecord(child, &c.at)
	if err := sh.appendSync(recCellGone, sh.answered(id, nfsproto.OK, 0)); err != nil {
		return nfsproto.ErrIO
	}
	return nfsproto.OK
}

// localLinkDelta adjusts a file cell's link count, removing the cell when
// it reaches zero. Returns the new link count.
func (s *Server) localLinkDelta(key uint64, delta int32, id once.Ident) (nfsproto.Status, uint32) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.unlock()
	if st, nlink, ok := sh.recorded(id); ok {
		return st, uint32(nlink)
	}
	c := sh.attrs[key]
	if c == nil {
		return nfsproto.ErrStale, 0
	}
	newNlink := int64(c.at.Nlink) + int64(delta)
	if newNlink < 0 {
		newNlink = 0
	}
	c.at.Nlink = uint32(newNlink)
	c.at.Ctime = s.now()
	recType := uint32(recLinkDel)
	if c.at.Nlink == 0 && c.at.Type != attr.TypeDir {
		sh.dropCell(key)
		recType = recCellGone
	}
	sh.cellRecord(c.fh, &c.at)
	if err := sh.appendSync(recType, sh.answered(id, nfsproto.OK, uint64(c.at.Nlink))); err != nil {
		return nfsproto.ErrIO, 0
	}
	return nfsproto.OK, c.at.Nlink
}

// localListDir returns the local entries of parent.
func (s *Server) localListDir(parent fhandle.Key) []remoteEntry {
	sh := s.shard(parent.FileID)
	sh.mu.Lock()
	defer sh.unlock()
	ents := sh.entriesOf(parent)
	out := make([]remoteEntry, len(ents))
	for i, c := range ents {
		out[i] = remoteEntry{name: c.name, child: c.child}
	}
	return out
}
