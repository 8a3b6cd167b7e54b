package dirsrv

import (
	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/nfsproto"
	"slice/internal/once"
	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

// PeerProgram is the RPC program number of the directory server peer-peer
// protocol (§4.3): link-count updates for cross-site create/link/remove and
// mkdir/rmdir, and cross-site traversal for lookup, getattr/setattr and
// readdir.
const (
	PeerProgram = 200201
	PeerVersion = 1
)

// Peer procedures. 2 and 4, a remote SETATTR and a remote entry removal,
// are retired: nothing called them.
const (
	peerGetAttr       = 1
	peerInsertEntry   = 3
	peerTouchDir      = 5
	peerRemoveDirCell = 6
	peerListDir       = 7
	peerCountDir      = 8
	peerLinkDelta     = 9
)

// peerCall issues a peer procedure to the given logical site and decodes
// the leading status word of the reply; decodeRest (optional) consumes the
// remainder. The server must hold no shard lock across this call.
func (s *Server) peerCall(site uint32, proc uint32, args func(*xdr.Encoder),
	decodeRest func(*xdr.Decoder) error) (nfsproto.Status, error) {

	a, err := s.table.Lookup(site)
	if err != nil {
		return nfsproto.ErrServerFault, err
	}
	c, err := s.peer.Get()
	if err != nil {
		return nfsproto.ErrServerFault, err
	}
	s.ct.peerCalls.Add(1)
	rep, err := c.CallTo(a, PeerProgram, PeerVersion, proc, args)
	if err != nil {
		return nfsproto.ErrServerFault, err
	}
	d := xdr.NewDecoder(rep.Body)
	st, err := d.Uint32()
	if err != nil {
		return nfsproto.ErrServerFault, err
	}
	status := nfsproto.Status(st)
	if status == nfsproto.OK && decodeRest != nil {
		if err := decodeRest(d); err != nil {
			return nfsproto.ErrServerFault, err
		}
	}
	return status, nil
}

// servePeer handles inbound peer-protocol calls, encoding each result
// straight into the reply. Peer handlers perform purely local mutations
// (they never call out to other sites), which keeps the peer protocol
// acyclic and deadlock-free. A mutation's arguments begin with the
// identity of the step of the client operation it serves (op.step), under
// which it records its outcome, so a retransmission — of the peer call,
// or of a step the operation takes again when its client retries it —
// gets the first execution's answer.
func (s *Server) servePeer(call oncrpc.Call, e *xdr.Encoder) uint32 {
	s.ct.peerServed.Add(1)
	d := xdr.NewDecoder(call.Body)
	var id once.Ident
	switch call.Proc {
	case peerInsertEntry, peerTouchDir, peerRemoveDirCell, peerLinkDelta:
		var err error
		if id, err = once.DecodeIdent(d); err != nil {
			return oncrpc.AcceptGarbageArgs
		}
	}
	switch call.Proc {
	case peerGetAttr:
		key, err := d.Uint64()
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		st, at := s.localGetAttrByKey(key)
		e.PutUint32(uint32(st))
		if st == nfsproto.OK {
			at.Encode(e)
		}

	case peerInsertEntry:
		parent, name, child, err := decodeEntryRecord(d)
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		st, bound := s.localInsertEntry(parent, name, child, true, id)
		e.PutUint32(uint32(st))
		if st == nfsproto.OK {
			e.PutUint64(bound)
		}

	case peerTouchDir:
		key, err := d.Uint64()
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		delta, err := d.Int32()
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		e.PutUint32(uint32(s.localTouchDir(key, delta, id)))

	case peerRemoveDirCell:
		child, err := fhandle.Decode(d)
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		e.PutUint32(uint32(s.localRemoveDirCell(child, true, id)))

	case peerListDir:
		parent, err := fhandle.Decode(d)
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		ents := s.localListDir(parent.Ident())
		e.PutUint32(uint32(nfsproto.OK))
		e.PutUint32(uint32(len(ents)))
		for _, ent := range ents {
			e.PutUint64(ent.child.FileID)
			e.PutString(ent.name)
			ent.child.Encode(e)
		}

	case peerCountDir:
		parent, err := fhandle.Decode(d)
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		e.PutUint32(uint32(nfsproto.OK))
		e.PutUint32(uint32(len(s.localListDir(parent.Ident()))))

	case peerLinkDelta:
		key, err := d.Uint64()
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		delta, err := d.Int32()
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		st, nlink := s.localLinkDelta(key, delta, id)
		e.PutUint32(uint32(st))
		if st == nfsproto.OK {
			e.PutUint32(nlink)
		}

	default:
		return oncrpc.AcceptProcUnavail
	}
	return oncrpc.AcceptSuccess
}

// remoteEntry is a directory entry fetched from a peer via ListDir.
type remoteEntry struct {
	name  string
	child fhandle.Handle
}

// peerFetchEntries retrieves all entries of parent resident at site.
func (s *Server) peerFetchEntries(site uint32, parent fhandle.Handle) ([]remoteEntry, error) {
	var out []remoteEntry
	st, err := s.peerCall(site, peerListDir,
		func(e *xdr.Encoder) { parent.Encode(e) },
		func(d *xdr.Decoder) error {
			n, err := d.Uint32()
			if err != nil {
				return err
			}
			if err := xdr.CheckLen(n, 1<<20); err != nil {
				return err
			}
			out = make([]remoteEntry, 0, n)
			for i := uint32(0); i < n; i++ {
				if _, err := d.Uint64(); err != nil { // fileID (redundant)
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
				out = append(out, remoteEntry{name: name, child: child})
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if st != nfsproto.OK {
		return nil, st.Error()
	}
	return out, nil
}

// peerCountEntries returns how many entries of parent reside at site.
func (s *Server) peerCountEntries(site uint32, parent fhandle.Handle) (int, error) {
	var count uint32
	st, err := s.peerCall(site, peerCountDir,
		func(e *xdr.Encoder) { parent.Encode(e) },
		func(d *xdr.Decoder) error {
			var err error
			count, err = d.Uint32()
			return err
		})
	if err != nil {
		return 0, err
	}
	if st != nfsproto.OK {
		return 0, st.Error()
	}
	return int(count), nil
}

// peerGetAttrByKey fetches the attribute cell for key from site.
func (s *Server) peerGetAttrByKey(site uint32, key uint64) (nfsproto.Status, attr.Attr) {
	var at attr.Attr
	st, err := s.peerCall(site, peerGetAttr,
		func(e *xdr.Encoder) { e.PutUint64(key) },
		func(d *xdr.Decoder) error { return at.Decode(d) })
	if err != nil {
		return nfsproto.ErrServerFault, at
	}
	return st, at
}
