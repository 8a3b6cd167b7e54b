// Package server implements the monolithic single-node NFS server used as
// the experimental baseline: the analogue of the FreeBSD server exporting
// a memory file system (N-MFS in Figure 3) or a CCD-concatenated disk
// volume (Figure 5). All name space, attribute, and data operations are
// served by one node under one lock — exactly the bottleneck the Slice
// architecture decomposes.
package server

import (
	"sort"
	"sync"
	"time"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/once"
	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

// mount protocol constants (shared with dirsrv).
const (
	mountProgram = 100005
	mountProcMnt = 1
)

// node is one file, directory, or symbolic link.
type node struct {
	at       attr.Attr
	data     []byte
	children map[string]uint64 // name -> fileID (directories)
	target   string            // symlink target
}

// Server is a single-volume in-memory NFS server.
type Server struct {
	mu     sync.Mutex
	nodes  map[uint64]*node
	nextID uint64
	root   fhandle.Handle
	vol    uint32
	clock  func() attr.Time
	ops    uint64
	// done is the outcome of each mutation of the last once.Span, in
	// memory only, so a retransmission is answered from it rather than
	// run again.
	done once.Table

	srv *oncrpc.Server
}

// New starts a baseline server on port, creating an empty volume root.
func New(port *netsim.Port, volume uint32, clock func() attr.Time) *Server {
	s := &Server{
		nodes:  make(map[uint64]*node),
		nextID: 1,
		vol:    volume,
		clock:  clock,
	}
	now := s.now()
	s.root = fhandle.Handle{Volume: volume, FileID: 1, Type: uint8(attr.TypeDir), CellKey: 1, Gen: 1}
	s.nodes[1] = &node{
		at: attr.Attr{Type: attr.TypeDir, Mode: 0o755, Nlink: 2, FileID: 1,
			Atime: now, Mtime: now, Ctime: now},
		children: make(map[string]uint64),
	}
	s.srv = oncrpc.NewServer(port, s)
	return s
}

// Addr returns the server address.
func (s *Server) Addr() netsim.Addr { return s.srv.Addr() }

// SetObs attaches a histogram registry recording per-procedure handler
// latency (nil detaches), so the baseline server exposes the same
// op-class histograms as the decomposed ensemble.
func (s *Server) SetObs(reg *obs.Registry) {
	if reg == nil {
		s.srv.SetObserver(nil)
		return
	}
	s.srv.SetObserver(reg.ObserveRPC)
}

// Root returns the volume root handle.
func (s *Server) Root() fhandle.Handle { return s.root }

// Ops returns the number of NFS operations served.
func (s *Server) Ops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// Close stops the server.
func (s *Server) Close() { s.srv.Close() }

func (s *Server) now() attr.Time {
	if s.clock != nil {
		return s.clock()
	}
	return attr.FromGo(time.Now())
}

func (s *Server) fh(id uint64, t attr.FileType) fhandle.Handle {
	return fhandle.Handle{Volume: s.vol, FileID: id, Type: uint8(t), CellKey: id, Gen: 1}
}

// ServeRPC implements oncrpc.Handler: it decodes a call's arguments,
// serves it, and encodes the result into the reply. A mutating procedure
// takes the call's identity too, under which it records its outcome.
func (s *Server) ServeRPC(call oncrpc.Call, from netsim.Addr, e *xdr.Encoder) uint32 {
	if call.Program == mountProgram {
		if call.Proc != mountProcMnt {
			return oncrpc.AcceptProcUnavail
		}
		e.PutUint32(uint32(nfsproto.OK))
		s.root.Encode(e)
		return oncrpc.AcceptSuccess
	}
	if call.Program != nfsproto.Program {
		return oncrpc.AcceptProgUnavail
	}
	s.mu.Lock()
	s.ops++
	s.mu.Unlock()

	d := xdr.NewDecoder(call.Body)
	id := once.IdentOf(&call, from)
	run := func(args nfsproto.Msg, f func() nfsproto.Msg) uint32 {
		if err := args.Decode(d); err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		f().Encode(e)
		return oncrpc.AcceptSuccess
	}

	switch nfsproto.Proc(call.Proc) {
	case nfsproto.ProcNull:
		return oncrpc.AcceptSuccess
	case nfsproto.ProcGetAttr:
		var a nfsproto.GetAttrArgs
		return run(&a, func() nfsproto.Msg { return s.getattr(&a) })
	case nfsproto.ProcSetAttr:
		var a nfsproto.SetAttrArgs
		return run(&a, func() nfsproto.Msg { return s.setattr(&a, id) })
	case nfsproto.ProcLookup:
		var a nfsproto.LookupArgs
		return run(&a, func() nfsproto.Msg { return s.lookup(&a) })
	case nfsproto.ProcAccess:
		var a nfsproto.AccessArgs
		return run(&a, func() nfsproto.Msg { return s.access(&a) })
	case nfsproto.ProcRead:
		var a nfsproto.ReadArgs
		return run(&a, func() nfsproto.Msg { return s.read(&a) })
	case nfsproto.ProcWrite:
		var a nfsproto.WriteArgs
		return run(&a, func() nfsproto.Msg { return s.write(&a, id) })
	case nfsproto.ProcCreate:
		var a nfsproto.CreateArgs
		return run(&a, func() nfsproto.Msg { return s.create(&a, attr.TypeReg, id) })
	case nfsproto.ProcSymlink:
		var a nfsproto.SymlinkArgs
		return run(&a, func() nfsproto.Msg { return s.symlink(&a, id) })
	case nfsproto.ProcReadLink:
		var a nfsproto.ReadLinkArgs
		return run(&a, func() nfsproto.Msg { return s.readlink(&a) })
	case nfsproto.ProcMkdir:
		var a nfsproto.CreateArgs
		return run(&a, func() nfsproto.Msg { return s.create(&a, attr.TypeDir, id) })
	case nfsproto.ProcRemove:
		var a nfsproto.RemoveArgs
		return run(&a, func() nfsproto.Msg { return s.remove(&a, false, id) })
	case nfsproto.ProcRmdir:
		var a nfsproto.RemoveArgs
		return run(&a, func() nfsproto.Msg { return s.remove(&a, true, id) })
	case nfsproto.ProcRename:
		var a nfsproto.RenameArgs
		return run(&a, func() nfsproto.Msg { return s.rename(&a, id) })
	case nfsproto.ProcLink:
		var a nfsproto.LinkArgs
		return run(&a, func() nfsproto.Msg { return s.link(&a, id) })
	case nfsproto.ProcReadDir:
		var a nfsproto.ReadDirArgs
		return run(&a, func() nfsproto.Msg { return s.readdir(&a) })
	case nfsproto.ProcFsStat:
		var a nfsproto.FsStatArgs
		return run(&a, func() nfsproto.Msg { return s.fsstat(&a) })
	case nfsproto.ProcCommit:
		var a nfsproto.CommitArgs
		return run(&a, func() nfsproto.Msg {
			// All writes are memory-resident; commit is a no-op.
			return &nfsproto.CommitRes{Status: nfsproto.OK, Verf: 1}
		})
	default:
		return oncrpc.AcceptProcUnavail
	}
}

// seen returns the outcome recorded for the call id: the call is a
// retransmission of one served before. The caller holds s.mu.
func (s *Server) seen(id once.Ident) (nfsproto.Status, uint64, bool) {
	o, ok := s.done.Find(id)
	return nfsproto.Status(o.Status), o.Value, ok
}

// served records that the call id mutated, to value v. The caller holds
// s.mu.
func (s *Server) served(id once.Ident, v uint64) {
	s.done.Record(id, once.Outcome{Status: uint32(nfsproto.OK), Value: v})
}

// attrOf returns the attributes of file id, if it exists. The caller holds
// s.mu.
func (s *Server) attrOf(id uint64) nfsproto.OptAttr {
	if n := s.nodes[id]; n != nil {
		return nfsproto.Some(n.at)
	}
	return nfsproto.OptAttr{}
}

func (s *Server) getattr(a *nfsproto.GetAttrArgs) *nfsproto.GetAttrRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[a.FH.FileID]
	if n == nil {
		return &nfsproto.GetAttrRes{Status: nfsproto.ErrStale}
	}
	return &nfsproto.GetAttrRes{Status: nfsproto.OK, Attr: n.at}
}

func (s *Server) setattr(a *nfsproto.SetAttrArgs, id once.Ident) *nfsproto.SetAttrRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, _, dup := s.seen(id); dup {
		return &nfsproto.SetAttrRes{Status: st, Attr: s.attrOf(a.FH.FileID)}
	}
	n := s.nodes[a.FH.FileID]
	if n == nil {
		return &nfsproto.SetAttrRes{Status: nfsproto.ErrStale}
	}
	a.Sattr.Apply(&n.at, s.now())
	if a.Sattr.SetSize {
		size := int(a.Sattr.Size)
		if size <= len(n.data) {
			n.data = n.data[:size]
		} else {
			n.data = append(n.data, make([]byte, size-len(n.data))...)
		}
	}
	s.served(id, 0)
	return &nfsproto.SetAttrRes{Status: nfsproto.OK, Attr: nfsproto.Some(n.at)}
}

func (s *Server) lookup(a *nfsproto.LookupArgs) *nfsproto.LookupRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.nodes[a.Dir.FileID]
	if dir == nil || dir.children == nil {
		return &nfsproto.LookupRes{Status: nfsproto.ErrNotDir}
	}
	id, ok := dir.children[a.Name]
	if !ok {
		return &nfsproto.LookupRes{Status: nfsproto.ErrNoEnt, DirAttr: nfsproto.Some(dir.at)}
	}
	child := s.nodes[id]
	return &nfsproto.LookupRes{
		Status:  nfsproto.OK,
		FH:      s.fh(id, child.at.Type),
		Attr:    nfsproto.Some(child.at),
		DirAttr: nfsproto.Some(dir.at),
	}
}

func (s *Server) access(a *nfsproto.AccessArgs) *nfsproto.AccessRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[a.FH.FileID]
	if n == nil {
		return &nfsproto.AccessRes{Status: nfsproto.ErrStale}
	}
	return &nfsproto.AccessRes{Status: nfsproto.OK, Attr: nfsproto.Some(n.at), Access: a.Access}
}

func (s *Server) read(a *nfsproto.ReadArgs) *nfsproto.ReadRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[a.FH.FileID]
	if n == nil {
		return &nfsproto.ReadRes{Status: nfsproto.ErrStale}
	}
	now := s.now()
	n.at.Atime = now
	off := int(a.Offset)
	if off >= len(n.data) {
		return &nfsproto.ReadRes{Status: nfsproto.OK, Attr: nfsproto.Some(n.at), EOF: true}
	}
	end := off + int(a.Count)
	if end > len(n.data) {
		end = len(n.data)
	}
	data := make([]byte, end-off)
	copy(data, n.data[off:end])
	return &nfsproto.ReadRes{
		Status: nfsproto.OK, Attr: nfsproto.Some(n.at),
		Count: uint32(len(data)), EOF: end == len(n.data), Data: data,
	}
}

func (s *Server) write(a *nfsproto.WriteArgs, id once.Ident) *nfsproto.WriteRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[a.FH.FileID]
	if n == nil {
		return &nfsproto.WriteRes{Status: nfsproto.ErrStale}
	}
	cnt := min(int(a.Count), len(a.Data))
	if _, _, dup := s.seen(id); dup {
		return &nfsproto.WriteRes{
			Status: nfsproto.OK, Attr: nfsproto.Some(n.at),
			Count: uint32(cnt), Committed: nfsproto.FileSync, Verf: 1,
		}
	}
	end := int(a.Offset) + cnt
	if end > len(n.data) {
		n.data = append(n.data, make([]byte, end-len(n.data))...)
	}
	copy(n.data[a.Offset:end], a.Data[:cnt])
	now := s.now()
	n.at.Mtime = now
	n.at.Ctime = now
	n.at.Size = uint64(len(n.data))
	n.at.Used = n.at.Size
	s.served(id, 0)
	return &nfsproto.WriteRes{
		Status: nfsproto.OK, Attr: nfsproto.Some(n.at),
		Count: uint32(cnt), Committed: nfsproto.FileSync, Verf: 1,
	}
}

func (s *Server) create(a *nfsproto.CreateArgs, t attr.FileType, call once.Ident) *nfsproto.CreateRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.nodes[a.Dir.FileID]
	if dir == nil || dir.children == nil {
		return &nfsproto.CreateRes{Status: nfsproto.ErrNotDir}
	}
	if _, id, dup := s.seen(call); dup {
		return s.madeAgain(dir, id, t)
	}
	if id, ok := dir.children[a.Name]; ok {
		if a.Exclusive || t == attr.TypeDir {
			return &nfsproto.CreateRes{Status: nfsproto.ErrExist, DirAttr: nfsproto.Some(dir.at)}
		}
		ex := s.nodes[id]
		return &nfsproto.CreateRes{
			Status: nfsproto.OK, FH: s.fh(id, ex.at.Type),
			Attr: nfsproto.Some(ex.at), DirAttr: nfsproto.Some(dir.at),
		}
	}
	s.nextID++
	id := s.nextID
	now := s.now()
	mode := uint32(0o644)
	nlink := uint32(1)
	var children map[string]uint64
	if t == attr.TypeDir {
		mode = 0o755
		nlink = 2
		children = make(map[string]uint64)
		dir.at.Nlink++
	}
	if a.Sattr.SetMode {
		mode = a.Sattr.Mode
	}
	n := &node{
		at: attr.Attr{Type: t, Mode: mode, Nlink: nlink, FileID: id,
			UID: a.Sattr.UID, GID: a.Sattr.GID,
			Atime: now, Mtime: now, Ctime: now},
		children: children,
	}
	s.nodes[id] = n
	dir.children[a.Name] = id
	dir.at.Mtime = now
	dir.at.Ctime = now
	s.served(call, id)
	return &nfsproto.CreateRes{
		Status: nfsproto.OK, FH: s.fh(id, t),
		Attr: nfsproto.Some(n.at), DirAttr: nfsproto.Some(dir.at),
	}
}

// madeAgain answers a retransmitted CREATE, MKDIR or SYMLINK in dir from
// the file ID it minted. The caller holds s.mu.
func (s *Server) madeAgain(dir *node, id uint64, t attr.FileType) *nfsproto.CreateRes {
	return &nfsproto.CreateRes{
		Status: nfsproto.OK, FH: s.fh(id, t),
		Attr: s.attrOf(id), DirAttr: nfsproto.Some(dir.at),
	}
}

func (s *Server) symlink(a *nfsproto.SymlinkArgs, call once.Ident) *nfsproto.CreateRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.nodes[a.Dir.FileID]
	if dir == nil || dir.children == nil {
		return &nfsproto.CreateRes{Status: nfsproto.ErrNotDir}
	}
	if _, id, dup := s.seen(call); dup {
		return s.madeAgain(dir, id, attr.TypeLink)
	}
	if _, exists := dir.children[a.Name]; exists {
		return &nfsproto.CreateRes{Status: nfsproto.ErrExist, DirAttr: nfsproto.Some(dir.at)}
	}
	s.nextID++
	id := s.nextID
	now := s.now()
	n := &node{
		at: attr.Attr{Type: attr.TypeLink, Mode: 0o777, Nlink: 1, FileID: id,
			Size: uint64(len(a.Target)), Used: uint64(len(a.Target)),
			Atime: now, Mtime: now, Ctime: now},
		target: a.Target,
	}
	s.nodes[id] = n
	dir.children[a.Name] = id
	dir.at.Mtime = now
	dir.at.Ctime = now
	s.served(call, id)
	return &nfsproto.CreateRes{
		Status: nfsproto.OK, FH: s.fh(id, attr.TypeLink),
		Attr: nfsproto.Some(n.at), DirAttr: nfsproto.Some(dir.at),
	}
}

func (s *Server) readlink(a *nfsproto.ReadLinkArgs) *nfsproto.ReadLinkRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[a.FH.FileID]
	if n == nil {
		return &nfsproto.ReadLinkRes{Status: nfsproto.ErrStale}
	}
	if n.at.Type != attr.TypeLink {
		return &nfsproto.ReadLinkRes{Status: nfsproto.ErrInval, Attr: nfsproto.Some(n.at)}
	}
	n.at.Atime = s.now()
	return &nfsproto.ReadLinkRes{Status: nfsproto.OK, Attr: nfsproto.Some(n.at), Target: n.target}
}

func (s *Server) remove(a *nfsproto.RemoveArgs, wantDir bool, call once.Ident) *nfsproto.RemoveRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.nodes[a.Dir.FileID]
	if dir == nil || dir.children == nil {
		return &nfsproto.RemoveRes{Status: nfsproto.ErrNotDir}
	}
	if st, _, dup := s.seen(call); dup {
		return &nfsproto.RemoveRes{Status: st, DirAttr: nfsproto.Some(dir.at)}
	}
	id, ok := dir.children[a.Name]
	if !ok {
		return &nfsproto.RemoveRes{Status: nfsproto.ErrNoEnt, DirAttr: nfsproto.Some(dir.at)}
	}
	child := s.nodes[id]
	isDir := child.at.Type == attr.TypeDir
	if wantDir && !isDir {
		return &nfsproto.RemoveRes{Status: nfsproto.ErrNotDir, DirAttr: nfsproto.Some(dir.at)}
	}
	if !wantDir && isDir {
		return &nfsproto.RemoveRes{Status: nfsproto.ErrIsDir, DirAttr: nfsproto.Some(dir.at)}
	}
	if wantDir && len(child.children) > 0 {
		return &nfsproto.RemoveRes{Status: nfsproto.ErrNotEmpty, DirAttr: nfsproto.Some(dir.at)}
	}
	delete(dir.children, a.Name)
	now := s.now()
	dir.at.Mtime = now
	dir.at.Ctime = now
	if isDir {
		if dir.at.Nlink > 2 {
			dir.at.Nlink--
		}
		delete(s.nodes, id)
	} else {
		child.at.Nlink--
		if child.at.Nlink == 0 {
			delete(s.nodes, id)
		}
	}
	s.served(call, 0)
	return &nfsproto.RemoveRes{Status: nfsproto.OK, DirAttr: nfsproto.Some(dir.at)}
}

func (s *Server) rename(a *nfsproto.RenameArgs, call once.Ident) *nfsproto.RenameRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	from := s.nodes[a.FromDir.FileID]
	to := s.nodes[a.ToDir.FileID]
	if from == nil || from.children == nil || to == nil || to.children == nil {
		return &nfsproto.RenameRes{Status: nfsproto.ErrNotDir}
	}
	if st, _, dup := s.seen(call); dup {
		return &nfsproto.RenameRes{Status: st, FromDirAttr: nfsproto.Some(from.at), ToDirAttr: nfsproto.Some(to.at)}
	}
	id, ok := from.children[a.FromName]
	if !ok {
		return &nfsproto.RenameRes{Status: nfsproto.ErrNoEnt, FromDirAttr: nfsproto.Some(from.at)}
	}
	if _, exists := to.children[a.ToName]; exists {
		return &nfsproto.RenameRes{Status: nfsproto.ErrExist,
			FromDirAttr: nfsproto.Some(from.at), ToDirAttr: nfsproto.Some(to.at)}
	}
	delete(from.children, a.FromName)
	to.children[a.ToName] = id
	now := s.now()
	from.at.Mtime = now
	to.at.Mtime = now
	if s.nodes[id].at.Type == attr.TypeDir && a.FromDir.FileID != a.ToDir.FileID {
		if from.at.Nlink > 2 {
			from.at.Nlink--
		}
		to.at.Nlink++
	}
	s.served(call, 0)
	return &nfsproto.RenameRes{Status: nfsproto.OK,
		FromDirAttr: nfsproto.Some(from.at), ToDirAttr: nfsproto.Some(to.at)}
}

func (s *Server) link(a *nfsproto.LinkArgs, call once.Ident) *nfsproto.LinkRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[a.FH.FileID]
	dir := s.nodes[a.Dir.FileID]
	if n == nil {
		return &nfsproto.LinkRes{Status: nfsproto.ErrStale}
	}
	if st, _, dup := s.seen(call); dup && dir != nil {
		return &nfsproto.LinkRes{Status: st, Attr: nfsproto.Some(n.at), DirAttr: nfsproto.Some(dir.at)}
	}
	if n.at.Type == attr.TypeDir {
		return &nfsproto.LinkRes{Status: nfsproto.ErrIsDir}
	}
	if dir == nil || dir.children == nil {
		return &nfsproto.LinkRes{Status: nfsproto.ErrNotDir}
	}
	if _, exists := dir.children[a.Name]; exists {
		return &nfsproto.LinkRes{Status: nfsproto.ErrExist, DirAttr: nfsproto.Some(dir.at)}
	}
	dir.children[a.Name] = a.FH.FileID
	n.at.Nlink++
	now := s.now()
	n.at.Ctime = now
	dir.at.Mtime = now
	dir.at.Ctime = now
	s.served(call, 0)
	return &nfsproto.LinkRes{Status: nfsproto.OK,
		Attr: nfsproto.Some(n.at), DirAttr: nfsproto.Some(dir.at)}
}

func (s *Server) readdir(a *nfsproto.ReadDirArgs) *nfsproto.ReadDirRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.nodes[a.Dir.FileID]
	if dir == nil || dir.children == nil {
		return &nfsproto.ReadDirRes{Status: nfsproto.ErrNotDir}
	}
	names := make([]string, 0, len(dir.children))
	for name := range dir.children {
		names = append(names, name)
	}
	sort.Strings(names)
	start := int(a.Cookie)
	if start > len(names) {
		return &nfsproto.ReadDirRes{Status: nfsproto.ErrBadCookie}
	}
	res := &nfsproto.ReadDirRes{Status: nfsproto.OK, DirAttr: nfsproto.Some(dir.at)}
	bytes := uint32(0)
	for i := start; i < len(names); i++ {
		sz := uint32(24 + len(names[i]))
		if bytes+sz > a.Count && len(res.Entries) > 0 {
			return res
		}
		res.Entries = append(res.Entries, nfsproto.DirEntry{
			FileID: dir.children[names[i]], Name: names[i], Cookie: uint64(i + 1),
		})
		bytes += sz
	}
	res.EOF = true
	return res
}

func (s *Server) fsstat(a *nfsproto.FsStatArgs) *nfsproto.FsStatRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := &nfsproto.FsStatRes{
		Status: nfsproto.OK, TotalBytes: 1 << 40, FreeBytes: 1 << 40,
		TotalFiles: 1 << 24, FreeFiles: 1<<24 - uint64(len(s.nodes)),
	}
	if n := s.nodes[a.FH.FileID]; n != nil {
		res.Attr = nfsproto.Some(n.at)
	}
	return res
}
