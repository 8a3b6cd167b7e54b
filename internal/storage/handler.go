package storage

import (
	"errors"
	"sync"
	"time"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/once"
	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

// ObjProgram is the RPC program number of the raw-object extension service
// (remove and truncate by handle) that the µproxy and the coordinator use
// to carry those operations to every data site of a file.
const (
	ObjProgram = 200101
	ObjVersion = 1
)

// Raw-object procedures.
const (
	ObjProcRemove   = 1
	ObjProcTruncate = 2
)

// Backend is a store of file data that a Handler serves. K is the name
// the store gives a file — the handle itself, or the object ObjectOf
// hashes it to — and Key derives it once per call, so a READ, which asks
// both Size and Read, hashes a handle once.
//
// An error a backend returns names the NFS status the server answers
// with (nfsproto.StatusOf): a small-file WRITE past the threshold region
// answers EFBIG. A file the backend holds no data for is not an error: it
// has no Size, and it reads as a hole, empty and at end of file.
type Backend[K any] interface {
	Key(fh fhandle.Handle) K
	Size(k K) (int64, bool)
	Read(k K, off int64, p []byte) (n int, eof bool, err error)
	Write(k K, off int64, p []byte, stable bool) error
	Commit(k K) uint64
	Remove(k K)
	Truncate(k K, size int64) error
	Verifier() uint64
}

// Handler is the one data server: it answers the NFS I/O subset {NULL,
// READ, WRITE, COMMIT} and the raw-object program {REMOVE, TRUNCATE} from
// a Backend. Storage nodes and small-file servers both run it, so the
// µproxy and coord.Apply address either kind of data site alike (§3.1,
// §4.4).
//
// READ encodes the data straight into the reply, behind a present
// attribute block holding the backend's local view of the file: its Size,
// and Used rounded up to whole blocks. That view is a placeholder — data
// servers do not hold file attributes (§4.1) — whose place in the reply
// lets the µproxy patch the authoritative attributes in without
// re-encoding the data; it never reaches a client. Read's error shows only
// once that header is encoded, so it rewinds the reply to the bare status
// the error names.
//
// A WRITE, TRUNCATE or REMOVE repeats to the same result, so a
// retransmission of one need not be told from its first transmission to
// be answered right. What it must not do is run again after a newer write
// to the same bytes was acknowledged, and undo it: the handler keeps each
// one's outcome for once.Span, in memory, and answers a retransmission
// it finds there from its arguments and the outcome without touching the
// backend. A restart forgets the table, as it forgets the replies in
// flight.
type Handler[K any] struct {
	b Backend[K]
	// authorize, when set, vets every handle a call names; a refused one
	// answers EACCES.
	authorize func(fhandle.Handle) bool

	mu   sync.Mutex
	done once.Table
}

// NewHandler returns a handler serving b. authorize may be nil: every
// handle is then served.
func NewHandler[K any](b Backend[K], authorize func(fhandle.Handle) bool) *Handler[K] {
	return &Handler[K]{b: b, authorize: authorize}
}

// ServeRPC implements oncrpc.Handler. Each procedure decodes its
// arguments into a value on this frame and encodes its result straight
// into the reply, so a READ or WRITE allocates nothing here.
func (h *Handler[K]) ServeRPC(call oncrpc.Call, from netsim.Addr, e *xdr.Encoder) uint32 {
	switch call.Program {
	case nfsproto.Program:
		return h.serveNFS(call, from, e)
	case ObjProgram:
		return h.serveObj(call, from, e)
	default:
		return oncrpc.AcceptProgUnavail
	}
}

func (h *Handler[K]) refused(fh fhandle.Handle) bool {
	return h.authorize != nil && !h.authorize(fh)
}

// once runs the mutation do for the call id unless the call ran within
// the last once.Span, and returns the status it came to. The call's one
// clock reading, taken as it arrives, is both the time it is looked up
// at and the time its outcome is recorded at. Every NFS status fits the
// table's field, so Record refuses none of them.
func (h *Handler[K]) once(id once.Ident, do func() uint32) uint32 {
	now := time.Now().UnixNano()
	h.mu.Lock()
	o, ok := h.done.Find(id, now)
	h.mu.Unlock()
	if ok {
		return o.Status
	}
	st := do()
	h.mu.Lock()
	_, _ = h.done.Record(id, once.Outcome{Status: st}, now)
	h.mu.Unlock()
	return st
}

func (h *Handler[K]) serveNFS(call oncrpc.Call, from netsim.Addr, e *xdr.Encoder) uint32 {
	d := xdr.NewDecoder(call.Body)
	var err error
	switch nfsproto.Proc(call.Proc) {
	case nfsproto.ProcNull:
	case nfsproto.ProcRead:
		var args nfsproto.ReadArgs
		if err = args.Decode(d); err == nil {
			h.read(&args, e)
		}
	case nfsproto.ProcWrite:
		var args nfsproto.WriteArgs
		if err = args.Decode(d); err == nil {
			res := h.write(&args, once.IdentOf(&call, from))
			res.Encode(e)
		}
	case nfsproto.ProcCommit:
		var args nfsproto.CommitArgs
		if err = args.Decode(d); err == nil {
			res := h.commit(&args)
			res.Encode(e)
		}
	default:
		// Data servers serve only the I/O subset; anything else was
		// misrouted.
		return oncrpc.AcceptProcUnavail
	}
	if err != nil {
		return oncrpc.AcceptGarbageArgs
	}
	return oncrpc.AcceptSuccess
}

// read encodes a READ's result into e, its data read straight into the
// reply.
func (h *Handler[K]) read(args *nfsproto.ReadArgs, e *xdr.Encoder) {
	start := e.Len()
	st := nfsproto.ErrAccess
	if !h.refused(args.FH) {
		k, off := h.b.Key(args.FH), int64(args.Offset)
		size, _ := h.b.Size(k)
		at := attr.Attr{Type: attr.TypeReg, Nlink: 1, FileID: args.FH.FileID,
			Size: uint64(size), Used: uint64(size+BlockSize-1) / BlockSize * BlockSize}
		var err error
		nfsproto.EncodeRead(e, at, args.Count, func(p []byte) (n int, eof bool) {
			n, eof, err = h.b.Read(k, off, p)
			return n, eof
		})
		if err == nil {
			return
		}
		st = nfsproto.StatusOf(err)
	}
	e.Truncate(start)
	res := nfsproto.ReadRes{Status: st}
	res.Encode(e)
}

func (h *Handler[K]) write(args *nfsproto.WriteArgs, id once.Ident) nfsproto.WriteRes {
	if h.refused(args.FH) {
		return nfsproto.WriteRes{Status: nfsproto.ErrAccess}
	}
	cnt := min(args.Count, uint32(len(args.Data)))
	stable := args.Stable != nfsproto.Unstable
	st := nfsproto.Status(h.once(id, func() uint32 {
		return uint32(nfsproto.StatusOf(h.b.Write(h.b.Key(args.FH), int64(args.Offset), args.Data[:cnt], stable)))
	}))
	if st != nfsproto.OK {
		return nfsproto.WriteRes{Status: st}
	}
	committed := uint32(nfsproto.Unstable)
	if stable {
		committed = nfsproto.FileSync
	}
	return nfsproto.WriteRes{Status: nfsproto.OK, Count: cnt, Committed: committed, Verf: h.b.Verifier()}
}

func (h *Handler[K]) commit(args *nfsproto.CommitArgs) nfsproto.CommitRes {
	if h.refused(args.FH) {
		return nfsproto.CommitRes{Status: nfsproto.ErrAccess}
	}
	return nfsproto.CommitRes{Status: nfsproto.OK, Verf: h.b.Commit(h.b.Key(args.FH))}
}

// serveObj answers the raw-object program; its result is the bare status.
func (h *Handler[K]) serveObj(call oncrpc.Call, from netsim.Addr, e *xdr.Encoder) uint32 {
	d := xdr.NewDecoder(call.Body)
	fh, err := fhandle.Decode(d)
	if err != nil {
		return oncrpc.AcceptGarbageArgs
	}
	if h.refused(fh) {
		e.PutUint32(uint32(nfsproto.ErrAccess))
		return oncrpc.AcceptSuccess
	}
	id := once.IdentOf(&call, from)
	switch call.Proc {
	case ObjProcRemove:
		e.PutUint32(h.once(id, func() uint32 {
			h.b.Remove(h.b.Key(fh))
			return uint32(nfsproto.OK)
		}))
	case ObjProcTruncate:
		size, err := d.Uint64()
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		e.PutUint32(h.once(id, func() uint32 {
			return uint32(nfsproto.StatusOf(h.b.Truncate(h.b.Key(fh), int64(size))))
		}))
	default:
		return oncrpc.AcceptProcUnavail
	}
	return oncrpc.AcceptSuccess
}

// objects is an ObjectStore as a Node's Backend: a handle names the object
// ObjectOf hashes it to.
type objects struct{ *ObjectStore }

func (objects) Key(fh fhandle.Handle) ObjectID { return ObjectOf(fh) }

// Read reads a missing object — one never written, or removed since the
// handler asked its Size — as a hole: a storage node cannot know the
// file's size, so it reports end of file at its local object, and the
// client's view of the size comes from the attributes the µproxy keeps.
func (o objects) Read(id ObjectID, off int64, p []byte) (int, bool, error) {
	n, eof, err := o.ReadAt(id, off, p)
	if errors.Is(err, ErrNoObject) {
		return 0, true, nil
	}
	return n, eof, err
}

func (o objects) Write(id ObjectID, off int64, p []byte, stable bool) error {
	return o.WriteAt(id, off, p, stable)
}
