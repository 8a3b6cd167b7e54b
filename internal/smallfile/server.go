package smallfile

import (
	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/storage"
	"slice/internal/wal"
	"slice/internal/xdr"
)

// Server exports a small-file Store over RPC. It serves the NFS I/O subset
// {NULL, READ, WRITE, COMMIT} — the µproxy directs all I/O below the
// threshold offset here — plus the raw-object extension program for
// remove/truncate/stat, sharing procedure numbers with the storage nodes
// so the coordinator can treat both uniformly.
type Server struct {
	store *Store
	srv   *oncrpc.Server
}

// NewServer starts a small-file server on port.
func NewServer(port *netsim.Port, store *Store) *Server {
	s := &Server{store: store}
	s.srv = oncrpc.NewServer(port, oncrpc.HandlerFunc(s.serve))
	return s
}

// Restart builds a small-file server whose store is recovered from its
// journal against the backing object BEFORE the server starts accepting
// calls on port — the §2.3 dataless-manager failover path. The restarted
// store keeps journaling to the log it replayed.
func Restart(port *netsim.Port, backing *storage.ObjectStore, backID storage.ObjectID, log *wal.Log) (*Server, error) {
	store := NewStore(backing, backID, log)
	if err := store.replayLog(); err != nil {
		return nil, err
	}
	return NewServer(port, store), nil
}

// Store returns the underlying store (for stats and failover tests).
func (s *Server) Store() *Store { return s.store }

// Addr returns the server's address.
func (s *Server) Addr() netsim.Addr { return s.srv.Addr() }

// SetObs attaches a histogram registry recording per-procedure handler
// latency (nil detaches).
func (s *Server) SetObs(reg *obs.Registry) {
	if reg == nil {
		s.srv.SetObserver(nil)
		return
	}
	s.srv.SetObserver(reg.ObserveRPC)
}

// Close shuts the server down.
func (s *Server) Close() { s.srv.Close() }

func (s *Server) serve(call oncrpc.Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
	switch call.Program {
	case nfsproto.Program:
		return s.serveNFS(call)
	case storage.ObjProgram:
		return s.serveObj(call)
	default:
		return nil, oncrpc.AcceptProgUnavail
	}
}

func (s *Server) serveNFS(call oncrpc.Call) (func(*xdr.Encoder), uint32) {
	d := xdr.NewDecoder(call.Body)
	switch nfsproto.Proc(call.Proc) {
	case nfsproto.ProcNull:
		return func(e *xdr.Encoder) {}, oncrpc.AcceptSuccess

	case nfsproto.ProcRead:
		var args nfsproto.ReadArgs
		if err := args.Decode(d); err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		return s.read(&args), oncrpc.AcceptSuccess

	case nfsproto.ProcWrite:
		var args nfsproto.WriteArgs
		if err := args.Decode(d); err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		cnt := args.Count
		if int(cnt) > len(args.Data) {
			cnt = uint32(len(args.Data))
		}
		stable := args.Stable != nfsproto.Unstable
		res := &nfsproto.WriteRes{Status: nfsproto.OK, Count: cnt, Verf: s.store.backing.Verifier()}
		if stable {
			res.Committed = nfsproto.FileSync
		}
		if err := s.store.Write(args.FH, int64(args.Offset), args.Data[:cnt], stable); err != nil {
			res = &nfsproto.WriteRes{Status: nfsproto.ErrFBig}
		}
		return res.Encode, oncrpc.AcceptSuccess

	case nfsproto.ProcCommit:
		var args nfsproto.CommitArgs
		if err := args.Decode(d); err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		verf := s.store.Commit(args.FH)
		res := &nfsproto.CommitRes{Status: nfsproto.OK, Verf: verf}
		return res.Encode, oncrpc.AcceptSuccess

	default:
		return nil, oncrpc.AcceptProcUnavail
	}
}

// read serves READ the way a storage node does: the data is read
// straight into the reply encoder behind a placeholder attribute block
// (the server's local view of the file) that the µproxy overwrites in
// place. A backing-store failure shows only once the header is encoded,
// so it rewinds the reply to a bare error status.
func (s *Server) read(args *nfsproto.ReadArgs) func(*xdr.Encoder) {
	fh, off, count := args.FH, int64(args.Offset), args.Count
	size, _ := s.store.Size(fh)
	at := attr.Attr{Type: attr.TypeReg, Nlink: 1, FileID: fh.FileID, Size: uint64(size)}
	return func(e *xdr.Encoder) {
		start := e.Len()
		var rerr error
		nfsproto.EncodeRead(e, at, count, func(p []byte) (n int, eof bool) {
			n, eof, rerr = s.store.Read(fh, off, p)
			return n, eof
		})
		if rerr != nil {
			e.Truncate(start)
			(&nfsproto.ReadRes{Status: nfsproto.ErrIO}).Encode(e)
		}
	}
}

func (s *Server) serveObj(call oncrpc.Call) (func(*xdr.Encoder), uint32) {
	d := xdr.NewDecoder(call.Body)
	fh, err := fhandle.Decode(d)
	if err != nil {
		return nil, oncrpc.AcceptGarbageArgs
	}
	switch call.Proc {
	case storage.ObjProcRemove:
		s.store.Remove(fh)
		return func(e *xdr.Encoder) { e.PutUint32(uint32(nfsproto.OK)) }, oncrpc.AcceptSuccess

	case storage.ObjProcTruncate:
		size, err := d.Uint64()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		st := nfsproto.OK
		if err := s.store.Truncate(fh, int64(size)); err != nil {
			st = nfsproto.ErrInval
		}
		return func(e *xdr.Encoder) { e.PutUint32(uint32(st)) }, oncrpc.AcceptSuccess

	case storage.ObjProcStat:
		size, ok := s.store.Size(fh)
		res := storage.ObjStatRes{Status: nfsproto.OK, Size: uint64(size), Used: uint64(s.store.Used(fh))}
		if !ok {
			res.Status = nfsproto.ErrNoEnt
		}
		return res.Encode, oncrpc.AcceptSuccess

	default:
		return nil, oncrpc.AcceptProcUnavail
	}
}
