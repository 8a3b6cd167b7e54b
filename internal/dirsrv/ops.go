package dirsrv

import (
	"sort"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/nfsproto"
	"slice/internal/once"
	"slice/internal/route"
	"slice/internal/xdr"
)

// xdrEncoder shortens peer-call argument closures.
type xdrEncoder = xdr.Encoder

// This file implements the NFS-facing operations of a directory server.
// The general shape of each multi-site operation is: perform the local
// mutation under s.mu (via a local* helper), release the lock, then issue
// any peer call. Peer handlers are leaves — they never call out — so the
// peer protocol cannot deadlock across sites.

// optLocalAttr returns the attribute cell for fh if resident.
func (s *Server) optLocalAttr(fh fhandle.Handle) nfsproto.OptAttr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.st.attrs[fh.FileID]; c != nil {
		return nfsproto.Some(c.at)
	}
	return nfsproto.OptAttr{}
}

// childAttr resolves the attributes of child, following a cross-site
// reference if the cell lives elsewhere (lookup crossing a site boundary,
// §4.3).
func (s *Server) childAttr(child fhandle.Handle) nfsproto.OptAttr {
	if at := s.optLocalAttr(child); at.Present {
		return at
	}
	site := child.Site % uint32(s.dirSites())
	if site == s.site {
		return nfsproto.OptAttr{} // should be here but is not: stale
	}
	s.ct.crossSite.Add(1)
	st, at := s.peerGetAttrByKey(site, child.FileID)
	if st != nfsproto.OK {
		return nfsproto.OptAttr{}
	}
	return nfsproto.Some(at)
}

func (s *Server) getattr(a *nfsproto.GetAttrArgs) nfsproto.GetAttrRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.st.attrs[a.FH.FileID]
	if c == nil || c.fh.Gen != a.FH.Gen {
		return nfsproto.GetAttrRes{Status: nfsproto.ErrStale}
	}
	return nfsproto.GetAttrRes{Status: nfsproto.OK, Attr: c.at}
}

func (s *Server) setattr(a *nfsproto.SetAttrArgs, o *op) nfsproto.SetAttrRes {
	if st, _, dup := s.seen(o); dup {
		return nfsproto.SetAttrRes{Status: st, Attr: s.optLocalAttr(a.FH)}
	}
	st, at := s.localSetAttrByKey(a.FH.FileID, &a.Sattr, o.id)
	res := nfsproto.SetAttrRes{Status: st}
	if st == nfsproto.OK {
		res.Attr = nfsproto.Some(at)
	}
	return res
}

func (s *Server) access(a *nfsproto.AccessArgs) nfsproto.AccessRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.st.attrs[a.FH.FileID]
	if c == nil {
		return nfsproto.AccessRes{Status: nfsproto.ErrStale}
	}
	// The prototype grants all requested permissions; Slice defers real
	// access control to the handle-capability model of §2.2.
	return nfsproto.AccessRes{
		Status: nfsproto.OK,
		Attr:   nfsproto.Some(c.at),
		Access: a.Access,
	}
}

func (s *Server) lookup(a *nfsproto.LookupArgs) nfsproto.LookupRes {
	s.mu.Lock()
	entry := s.st.findEntry(a.Dir, a.Name)
	s.mu.Unlock()
	if entry == nil {
		return nfsproto.LookupRes{
			Status:  nfsproto.ErrNoEnt,
			DirAttr: s.optLocalAttr(a.Dir),
		}
	}
	child := entry.child
	return nfsproto.LookupRes{
		Status:  nfsproto.OK,
		FH:      child,
		Attr:    s.childAttr(child),
		DirAttr: s.optLocalAttr(a.Dir),
	}
}

// touchParentMaybeRemote updates the parent directory's mtime/nlink, via a
// peer call when the parent's cell lives on another site (name hashing).
func (s *Server) touchParentMaybeRemote(o *op, parent fhandle.Handle, nlinkDelta int32) nfsproto.Status {
	site := parent.Site % uint32(s.dirSites())
	if site == s.site {
		return s.localTouchDir(parent.FileID, nlinkDelta, once.Ident{})
	}
	s.ct.crossSite.Add(1)
	id := o.step(peerTouchDir)
	st, err := s.peerCall(site, peerTouchDir, func(e *xdrEncoder) {
		id.Encode(e)
		e.PutUint64(parent.FileID)
		e.PutInt32(nlinkDelta)
	}, nil)
	if err != nil {
		return nfsproto.ErrServerFault
	}
	return st
}

func (s *Server) create(a *nfsproto.CreateArgs, o *op) nfsproto.CreateRes {
	if s.kind == route.MkdirSwitching && !s.ownsHandle(a.Dir) {
		return nfsproto.CreateRes{Status: nfsproto.ErrMisrouted}
	}
	// Mint the child and its attribute cell here (fixed placement: the
	// create site owns the file's attributes).
	s.mu.Lock()
	if st, fileID, dup := s.seenLocked(o); dup {
		s.mu.Unlock()
		return s.madeAgain(a.Dir, st, fileID, attr.TypeReg)
	}
	if existing := s.st.findEntry(a.Dir, a.Name); existing != nil {
		child := existing.child
		s.mu.Unlock()
		if a.Exclusive {
			return nfsproto.CreateRes{Status: nfsproto.ErrExist, DirAttr: s.optLocalAttr(a.Dir)}
		}
		return nfsproto.CreateRes{
			Status: nfsproto.OK, FH: child,
			Attr: s.childAttr(child), DirAttr: s.optLocalAttr(a.Dir),
		}
	}
	now := s.now()
	fh := s.mintLocked(uint8(attr.TypeReg))
	mode := uint32(0o644)
	if a.Sattr.SetMode {
		mode = a.Sattr.Mode
	}
	cell := &attrCell{fh: fh, at: attr.Attr{
		Type: attr.TypeReg, Mode: mode, Nlink: 1, FileID: fh.FileID,
		UID: a.Sattr.UID, GID: a.Sattr.GID,
		Atime: now, Mtime: now, Ctime: now,
	}}
	s.st.putCell(cell)
	s.st.insertEntry(&nameCell{parent: a.Dir.Ident(), name: a.Name, child: fh})
	if _, err := s.log.Append(recCreate, s.cellRecord(fh, &cell.at)); err != nil {
		s.mu.Unlock()
		return nfsproto.CreateRes{Status: nfsproto.ErrIO}
	}
	s.entryRecord(a.Dir, a.Name, fh)
	if _, err := s.log.AppendSync(recInsert, s.answered(o.id, nfsproto.OK, fh.FileID)); err != nil {
		s.mu.Unlock()
		return nfsproto.CreateRes{Status: nfsproto.ErrIO}
	}
	at := cell.at
	s.mu.Unlock()

	if st := s.touchParentMaybeRemote(o, a.Dir, 0); st == nfsproto.ErrStale {
		// Parent vanished concurrently: undo.
		s.localRemoveEntry(a.Dir, a.Name, false, once.Ident{})
		s.discardCell(fh, &at, o.id, nfsproto.ErrStale)
		return nfsproto.CreateRes{Status: nfsproto.ErrStale}
	}
	return nfsproto.CreateRes{
		Status: nfsproto.OK, FH: fh,
		Attr: nfsproto.Some(at), DirAttr: s.optLocalAttr(a.Dir),
	}
}

func (s *Server) mkdir(a *nfsproto.CreateArgs, o *op) nfsproto.CreateRes {
	// Under mkdir switching, arriving at a site other than the parent's
	// means the µproxy redirected this mkdir here: the new directory (and
	// its descendants) will live on this site, orphaned from its parent
	// (§3.2). The name entry is installed at the parent's site by a peer
	// call, making this the paper's two-site operation.
	redirected := s.kind == route.MkdirSwitching && !s.ownsHandle(a.Dir)

	s.mu.Lock()
	if st, fileID, dup := s.seenLocked(o); dup {
		s.mu.Unlock()
		return s.madeAgain(a.Dir, st, fileID, attr.TypeDir)
	}
	if !redirected {
		if existing := s.st.findEntry(a.Dir, a.Name); existing != nil {
			s.mu.Unlock()
			return nfsproto.CreateRes{Status: nfsproto.ErrExist, DirAttr: s.optLocalAttr(a.Dir)}
		}
	}
	now := s.now()
	fh := s.mintLocked(uint8(attr.TypeDir))
	mode := uint32(0o755)
	if a.Sattr.SetMode {
		mode = a.Sattr.Mode
	}
	cell := &attrCell{fh: fh, at: attr.Attr{
		Type: attr.TypeDir, Mode: mode, Nlink: 2, FileID: fh.FileID,
		UID: a.Sattr.UID, GID: a.Sattr.GID,
		Atime: now, Mtime: now, Ctime: now,
	}}
	s.st.putCell(cell)
	recType := uint32(recNewCell)
	if redirected {
		recType = recMkdirIn
	}
	if _, err := s.log.AppendSync(recType, s.cellRecord(fh, &cell.at)); err != nil {
		s.mu.Unlock()
		return nfsproto.CreateRes{Status: nfsproto.ErrIO}
	}
	at := cell.at
	s.mu.Unlock()

	var st nfsproto.Status
	if redirected {
		s.ct.crossSite.Add(1)
		parentSite := a.Dir.Site % uint32(s.dirSites())
		var bound uint64
		st, bound = s.peerInsert(o, parentSite, a.Dir, a.Name, fh)
		if st == nfsproto.OK {
			res := nfsproto.CreateRes{Status: nfsproto.OK, FH: fh, Attr: nfsproto.Some(at)}
			if bound != fh.FileID {
				// The parent's site answered an insert it served
				// before: this is a retransmission of a MKDIR whose
				// outcome this site lost in a restart, and the
				// directory minted then is the one the name is bound
				// to. The one minted now goes.
				s.discardCell(fh, &at, once.Ident{}, 0)
				res.FH = s.handleOf(bound, uint8(attr.TypeDir))
				res.Attr = s.childAttr(res.FH)
			}
			// No record of this site's carries the outcome: the insert
			// was the parent's. A record of its own does, for a
			// retransmission that comes back here.
			s.mu.Lock()
			s.rec.Reset()
			_, _ = s.log.Append(recOutcome, s.answered(o.id, st, res.FH.FileID))
			s.mu.Unlock()
			res.DirAttr = s.optLocalAttr(a.Dir)
			return res
		}
	} else {
		st, _ = s.localInsertEntry(a.Dir, a.Name, fh, true, o.id)
		if st == nfsproto.OK && !s.ownsHandle(a.Dir) {
			// Name hashing: the entry hashed here, but the parent's
			// attribute cell lives at its own site; its link count and
			// mtime must be updated there.
			if pst := s.touchParentMaybeRemote(o, a.Dir, 1); pst == nfsproto.ErrStale {
				st = nfsproto.ErrStale
				s.localRemoveEntry(a.Dir, a.Name, false, once.Ident{})
			}
		}
	}
	if st != nfsproto.OK {
		s.discardCell(fh, &at, o.id, st)
		return nfsproto.CreateRes{Status: st, DirAttr: s.optLocalAttr(a.Dir)}
	}
	return nfsproto.CreateRes{
		Status: nfsproto.OK, FH: fh,
		Attr: nfsproto.Some(at), DirAttr: s.optLocalAttr(a.Dir),
	}
}

// discardCell undoes the cell a create, symlink or mkdir minted before it
// found it could not link it in: the cell goes from memory and, by a
// recCellGone record, from the journal, so a restart replays no orphan.
// The record carries the call's outcome, st, the failure the undo answers.
func (s *Server) discardCell(fh fhandle.Handle, at *attr.Attr, id once.Ident, st nfsproto.Status) {
	s.mu.Lock()
	s.st.dropCell(fh.FileID)
	s.cellRecord(fh, at)
	_, _ = s.log.AppendSync(recCellGone, s.answered(id, st, 0))
	s.mu.Unlock()
}

// madeAgain answers a retransmitted CREATE, MKDIR or SYMLINK from its
// outcome: the handle it minted, with the file's current attributes.
func (s *Server) madeAgain(dir fhandle.Handle, st nfsproto.Status, fileID uint64, t attr.FileType) nfsproto.CreateRes {
	res := nfsproto.CreateRes{Status: st, DirAttr: s.optLocalAttr(dir)}
	if st == nfsproto.OK {
		res.FH = s.handleOf(fileID, uint8(t))
		res.Attr = s.childAttr(res.FH)
	}
	return res
}

// peerInsert installs a name entry at a remote site, a step of o, and
// returns the file ID the name is bound to there.
func (s *Server) peerInsert(o *op, site uint32, parent fhandle.Handle, name string, child fhandle.Handle) (nfsproto.Status, uint64) {
	id := o.step(peerInsertEntry)
	var bound uint64
	st, err := s.peerCall(site, peerInsertEntry, func(e *xdrEncoder) {
		id.Encode(e)
		parent.Encode(e)
		e.PutString(name)
		child.Encode(e)
	}, func(d *xdr.Decoder) (err error) {
		bound, err = d.Uint64()
		return err
	})
	if err != nil {
		return nfsproto.ErrServerFault, 0
	}
	return st, bound
}

func (s *Server) remove(a *nfsproto.RemoveArgs, o *op) nfsproto.RemoveRes {
	if st, _, dup := s.seen(o); dup {
		return nfsproto.RemoveRes{Status: st, DirAttr: s.optLocalAttr(a.Dir)}
	}
	s.mu.Lock()
	entry := s.st.findEntry(a.Dir, a.Name)
	if entry == nil {
		s.mu.Unlock()
		return nfsproto.RemoveRes{Status: nfsproto.ErrNoEnt, DirAttr: s.optLocalAttr(a.Dir)}
	}
	if entry.child.Type == uint8(attr.TypeDir) {
		s.mu.Unlock()
		return nfsproto.RemoveRes{Status: nfsproto.ErrIsDir, DirAttr: s.optLocalAttr(a.Dir)}
	}
	child := entry.child
	s.mu.Unlock()

	st, _ := s.localRemoveEntry(a.Dir, a.Name, true, o.id)
	if st != nfsproto.OK {
		return nfsproto.RemoveRes{Status: st, DirAttr: s.optLocalAttr(a.Dir)}
	}
	// Drop the child's link count, following the cross-site reference if
	// its attribute cell lives elsewhere (hard links under name hashing).
	s.linkDelta(o, child, -1)
	if !s.ownsHandle(a.Dir) {
		s.touchParentMaybeRemote(o, a.Dir, 0)
	}
	return nfsproto.RemoveRes{Status: nfsproto.OK, DirAttr: s.optLocalAttr(a.Dir)}
}

// linkDelta adjusts child's link count where its attribute cell lives, by
// a peer call, a step of o, when that is another site.
func (s *Server) linkDelta(o *op, child fhandle.Handle, delta int32) {
	childSite := child.Site % uint32(s.dirSites())
	if childSite == s.site {
		s.localLinkDelta(child.FileID, delta, once.Ident{})
		return
	}
	s.ct.crossSite.Add(1)
	id := o.step(peerLinkDelta)
	_, _ = s.peerCall(childSite, peerLinkDelta, func(e *xdrEncoder) {
		id.Encode(e)
		e.PutUint64(child.FileID)
		e.PutInt32(delta)
	}, nil)
}

// dirEmpty checks whether a directory has no entries anywhere. Under mkdir
// switching all entries of a directory live at its own site; under name
// hashing they may be scattered, so every site is consulted (§3.2 notes
// this multi-site cost structure).
func (s *Server) dirEmpty(child fhandle.Handle) (bool, nfsproto.Status) {
	if s.kind == route.MkdirSwitching {
		s.mu.Lock()
		n := len(s.st.byDir[child.Ident()])
		s.mu.Unlock()
		return n == 0, nfsproto.OK
	}
	for site := 0; site < s.dirSites(); site++ {
		var n int
		if uint32(site) == s.site {
			n = len(s.localListDir(child.Ident()))
		} else {
			var err error
			n, err = s.peerCountEntries(uint32(site), child)
			if err != nil {
				return false, nfsproto.ErrServerFault
			}
		}
		if n > 0 {
			return false, nfsproto.OK
		}
	}
	return true, nfsproto.OK
}

func (s *Server) rmdir(a *nfsproto.RemoveArgs, o *op) nfsproto.RemoveRes {
	if st, _, dup := s.seen(o); dup {
		return nfsproto.RemoveRes{Status: st, DirAttr: s.optLocalAttr(a.Dir)}
	}
	s.mu.Lock()
	entry := s.st.findEntry(a.Dir, a.Name)
	if entry == nil {
		s.mu.Unlock()
		return nfsproto.RemoveRes{Status: nfsproto.ErrNoEnt, DirAttr: s.optLocalAttr(a.Dir)}
	}
	if entry.child.Type != uint8(attr.TypeDir) {
		s.mu.Unlock()
		return nfsproto.RemoveRes{Status: nfsproto.ErrNotDir, DirAttr: s.optLocalAttr(a.Dir)}
	}
	child := entry.child
	s.mu.Unlock()

	childSite := child.Site % uint32(s.dirSites())
	if childSite == s.site {
		empty, st := s.dirEmpty(child)
		if st != nfsproto.OK {
			return nfsproto.RemoveRes{Status: st}
		}
		if !empty {
			return nfsproto.RemoveRes{Status: nfsproto.ErrNotEmpty, DirAttr: s.optLocalAttr(a.Dir)}
		}
		if st := s.localRemoveDirCell(child, true, once.Ident{}); st != nfsproto.OK && st != nfsproto.ErrStale {
			return nfsproto.RemoveRes{Status: st, DirAttr: s.optLocalAttr(a.Dir)}
		}
	} else {
		// Orphan directory (mkdir switching): its cell and entries live
		// at the child's site; ask that site to verify emptiness and
		// remove the cell.
		s.ct.crossSite.Add(1)
		id := o.step(peerRemoveDirCell)
		st, err := s.peerCall(childSite, peerRemoveDirCell, func(e *xdrEncoder) {
			id.Encode(e)
			child.Encode(e)
		}, nil)
		if err != nil {
			return nfsproto.RemoveRes{Status: nfsproto.ErrServerFault}
		}
		if st != nfsproto.OK && st != nfsproto.ErrStale {
			return nfsproto.RemoveRes{Status: st, DirAttr: s.optLocalAttr(a.Dir)}
		}
	}
	st, _ := s.localRemoveEntry(a.Dir, a.Name, true, o.id)
	if st != nfsproto.OK {
		return nfsproto.RemoveRes{Status: st, DirAttr: s.optLocalAttr(a.Dir)}
	}
	if !s.ownsHandle(a.Dir) {
		s.touchParentMaybeRemote(o, a.Dir, -1)
	}
	return nfsproto.RemoveRes{Status: nfsproto.OK, DirAttr: s.optLocalAttr(a.Dir)}
}

func (s *Server) rename(a *nfsproto.RenameArgs, o *op) nfsproto.RenameRes {
	if st, _, dup := s.seen(o); dup {
		return nfsproto.RenameRes{
			Status:      st,
			FromDirAttr: s.optLocalAttr(a.FromDir),
			ToDirAttr:   s.optLocalAttr(a.ToDir),
		}
	}
	s.mu.Lock()
	entry := s.st.findEntry(a.FromDir, a.FromName)
	s.mu.Unlock()
	if entry == nil {
		return nfsproto.RenameRes{
			Status:      nfsproto.ErrNoEnt,
			FromDirAttr: s.optLocalAttr(a.FromDir),
			ToDirAttr:   s.optLocalAttr(a.ToDir),
		}
	}
	child := entry.child
	isDir := child.Type == uint8(attr.TypeDir)
	sameDir := a.FromDir.Ident() == a.ToDir.Ident()

	// Rename is link-then-remove (§4.3). Insert the new entry first.
	var targetSite uint32
	if s.kind == route.NameHashing {
		targetSite = s.table.Site(fhandle.NameKey(handleFromKey(a.ToDir.Ident()), a.ToName))
	} else {
		targetSite = a.ToDir.Site % uint32(s.dirSites())
	}
	var nlinkBump int32
	if isDir && !sameDir {
		nlinkBump = 1
	}
	var st nfsproto.Status
	if targetSite == s.site {
		st, _ = s.localInsertEntry(a.ToDir, a.ToName, child, true, once.Ident{})
	} else {
		s.ct.crossSite.Add(1)
		st, _ = s.peerInsert(o, targetSite, a.ToDir, a.ToName, child)
	}
	// The insert updates the destination directory's cell only when that
	// cell is resident at the entry's site; under name hashing the cell
	// lives at the directory's own site and needs an explicit touch.
	if st == nfsproto.OK && a.ToDir.Site%uint32(s.dirSites()) != targetSite {
		s.touchParentMaybeRemote(o, a.ToDir, nlinkBump)
	}
	if st != nfsproto.OK {
		return nfsproto.RenameRes{
			Status:      st,
			FromDirAttr: s.optLocalAttr(a.FromDir),
			ToDirAttr:   s.optLocalAttr(a.ToDir),
		}
	}
	// Remove the old entry. localRemoveEntry adjusts the from-parent's
	// nlink when a directory moves out.
	st, _ = s.localRemoveEntry(a.FromDir, a.FromName, true, o.id)
	if st != nfsproto.OK {
		return nfsproto.RenameRes{Status: st}
	}
	if !s.ownsHandle(a.FromDir) {
		var delta int32
		if isDir && !sameDir {
			delta = -1
		}
		s.touchParentMaybeRemote(o, a.FromDir, delta)
	}
	return nfsproto.RenameRes{
		Status:      nfsproto.OK,
		FromDirAttr: s.optLocalAttr(a.FromDir),
		ToDirAttr:   s.optLocalAttr(a.ToDir),
	}
}

func (s *Server) link(a *nfsproto.LinkArgs, o *op) nfsproto.LinkRes {
	if a.FH.Type == uint8(attr.TypeDir) {
		return nfsproto.LinkRes{Status: nfsproto.ErrIsDir}
	}
	st, dup := nfsproto.OK, false
	if st, _, dup = s.seen(o); !dup {
		st, _ = s.localInsertEntry(a.Dir, a.Name, a.FH, true, o.id)
	}
	if st != nfsproto.OK {
		return nfsproto.LinkRes{Status: st, DirAttr: s.optLocalAttr(a.Dir)}
	}
	if !dup {
		s.linkDelta(o, a.FH, 1)
		if !s.ownsHandle(a.Dir) {
			s.touchParentMaybeRemote(o, a.Dir, 0)
		}
	}
	return nfsproto.LinkRes{
		Status:  nfsproto.OK,
		Attr:    s.childAttr(a.FH),
		DirAttr: s.optLocalAttr(a.Dir),
	}
}

func (s *Server) readdir(a *nfsproto.ReadDirArgs) nfsproto.ReadDirRes {
	var all []remoteEntry
	if s.kind == route.MkdirSwitching {
		all = s.localListDir(a.Dir.Ident())
	} else {
		// Name hashing: a directory's entries span all sites; this is
		// the right behaviour for large directories but raises readdir
		// cost for small ones (§3.2).
		all = append(all, s.localListDir(a.Dir.Ident())...)
		for site := 0; site < s.dirSites(); site++ {
			if uint32(site) == s.site {
				continue
			}
			ents, err := s.peerFetchEntries(uint32(site), a.Dir)
			if err != nil {
				return nfsproto.ReadDirRes{Status: nfsproto.ErrServerFault}
			}
			all = append(all, ents...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	}
	start := int(a.Cookie)
	if start > len(all) {
		return nfsproto.ReadDirRes{Status: nfsproto.ErrBadCookie}
	}
	res := nfsproto.ReadDirRes{Status: nfsproto.OK, DirAttr: s.optLocalAttr(a.Dir)}
	bytes := uint32(0)
	for i := start; i < len(all); i++ {
		ent := all[i]
		sz := uint32(16 + len(ent.name) + 8)
		if bytes+sz > a.Count && len(res.Entries) > 0 {
			return res // EOF false: more to come
		}
		res.Entries = append(res.Entries, nfsproto.DirEntry{
			FileID: ent.child.FileID,
			Name:   ent.name,
			Cookie: uint64(i + 1),
		})
		bytes += sz
		if len(res.Entries) >= nfsproto.MaxDirEntries {
			return res
		}
	}
	res.EOF = true
	return res
}

func (s *Server) fsstat(a *nfsproto.FsStatArgs) nfsproto.FsStatRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	nFiles := uint64(len(s.st.attrs))
	res := nfsproto.FsStatRes{
		Status:     nfsproto.OK,
		TotalBytes: 1 << 40,
		FreeBytes:  1 << 40,
		TotalFiles: 1 << 24,
		FreeFiles:  1<<24 - nFiles,
	}
	if c := s.st.attrs[a.FH.FileID]; c != nil {
		res.Attr = nfsproto.Some(c.at)
	}
	return res
}

// symlink creates a symbolic link cell: a name entry plus an attribute
// cell carrying the target path. It follows the same placement rules as
// create — the link lives at the site that owns the (parent, name) entry.
func (s *Server) symlink(a *nfsproto.SymlinkArgs, o *op) nfsproto.CreateRes {
	if s.kind == route.MkdirSwitching && !s.ownsHandle(a.Dir) {
		return nfsproto.CreateRes{Status: nfsproto.ErrMisrouted}
	}
	if st, fileID, dup := s.seen(o); dup {
		return s.madeAgain(a.Dir, st, fileID, attr.TypeLink)
	}
	if len(a.Target) > 4096 {
		return nfsproto.CreateRes{Status: nfsproto.ErrNameTooLong}
	}
	s.mu.Lock()
	if s.st.findEntry(a.Dir, a.Name) != nil {
		s.mu.Unlock()
		return nfsproto.CreateRes{Status: nfsproto.ErrExist, DirAttr: s.optLocalAttr(a.Dir)}
	}
	now := s.now()
	fh := s.mintLocked(uint8(attr.TypeLink))
	cell := &attrCell{fh: fh, at: attr.Attr{
		Type: attr.TypeLink, Mode: 0o777, Nlink: 1, FileID: fh.FileID,
		Size: uint64(len(a.Target)), Used: uint64(len(a.Target)),
		UID: a.Sattr.UID, GID: a.Sattr.GID,
		Atime: now, Mtime: now, Ctime: now,
	}, target: a.Target}
	s.st.putCell(cell)
	s.st.insertEntry(&nameCell{parent: a.Dir.Ident(), name: a.Name, child: fh})
	if _, err := s.log.Append(recCreate, encodeCellRecord(&s.rec, fh, &cell.at, a.Target)); err != nil {
		s.mu.Unlock()
		return nfsproto.CreateRes{Status: nfsproto.ErrIO}
	}
	s.entryRecord(a.Dir, a.Name, fh)
	if _, err := s.log.AppendSync(recInsert, s.answered(o.id, nfsproto.OK, fh.FileID)); err != nil {
		s.mu.Unlock()
		return nfsproto.CreateRes{Status: nfsproto.ErrIO}
	}
	at := cell.at
	s.mu.Unlock()

	if st := s.touchParentMaybeRemote(o, a.Dir, 0); st == nfsproto.ErrStale {
		s.localRemoveEntry(a.Dir, a.Name, false, once.Ident{})
		s.discardCell(fh, &at, o.id, nfsproto.ErrStale)
		return nfsproto.CreateRes{Status: nfsproto.ErrStale}
	}
	return nfsproto.CreateRes{
		Status: nfsproto.OK, FH: fh,
		Attr: nfsproto.Some(at), DirAttr: s.optLocalAttr(a.Dir),
	}
}

// readlink returns a symbolic link's target path.
func (s *Server) readlink(a *nfsproto.ReadLinkArgs) nfsproto.ReadLinkRes {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.st.attrs[a.FH.FileID]
	if c == nil || c.fh.Gen != a.FH.Gen {
		return nfsproto.ReadLinkRes{Status: nfsproto.ErrStale}
	}
	if c.at.Type != attr.TypeLink {
		return nfsproto.ReadLinkRes{Status: nfsproto.ErrInval, Attr: nfsproto.Some(c.at)}
	}
	c.at.Atime = s.now()
	return nfsproto.ReadLinkRes{
		Status: nfsproto.OK,
		Attr:   nfsproto.Some(c.at),
		Target: c.target,
	}
}
