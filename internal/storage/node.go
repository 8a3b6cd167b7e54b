package storage

import (
	"sync"
	"time"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/replica"
	"slice/internal/xdr"
)

// ObjProgram is the RPC program number of the raw-object extension service
// (remove/truncate/stat by handle), used by coordinators and file managers.
const (
	ObjProgram = 200101
	ObjVersion = 1
)

// Raw-object procedures.
const (
	ObjProcRemove   = 1
	ObjProcTruncate = 2
	ObjProcStat     = 3
)

// ObjectOf maps a file handle to the backing object identifier, the
// "external hash" of §4.2.
func ObjectOf(fh fhandle.Handle) ObjectID {
	return ObjectID(fhandle.HandleKey(fh))
}

// Node is a network storage node: an ObjectStore exported over RPC. It
// serves the NFS subset {NULL, READ, WRITE, COMMIT} addressed by file
// handle, plus the raw-object program.
//
// With a capability key configured, the node refuses requests whose
// handle does not carry a valid keyed fingerprint — the OBSD/NASD secure
// object model of §2.2, which lets the µproxy live outside the service
// trust boundary: clients cannot address storage directly, because only
// key holders (the µproxy, the coordinator) can mint capabilities.
type Node struct {
	store  *ObjectStore
	srv    *oncrpc.Server
	mu     sync.Mutex
	capKey []byte
	denied uint64

	// serviceTime paces the node: each request holds paceMu for this
	// long before being served, modelling a disk-arm/NIC capacity of
	// 1/serviceTime per node so scaling benchmarks measure fan-out, not
	// the simulator's infinite parallelism. Zero (the default) disables.
	serviceTime time.Duration
	paceMu      sync.Mutex
}

// NewNode starts a storage node on port, serving store.
func NewNode(port *netsim.Port, store *ObjectStore) *Node {
	n := &Node{store: store}
	n.srv = oncrpc.NewServer(port, oncrpc.HandlerFunc(n.serve))
	return n
}

// RequireCapability makes the node verify handle capabilities against
// key. A nil key disables verification (trusted-network mode).
func (n *Node) RequireCapability(key []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.capKey = append([]byte(nil), key...)
}

// DeniedRequests counts requests rejected for missing/bad capabilities.
func (n *Node) DeniedRequests() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.denied
}

// authorize verifies fh's capability under the configured key.
func (n *Node) authorize(fh fhandle.Handle) bool {
	n.mu.Lock()
	key := n.capKey
	n.mu.Unlock()
	if len(key) == 0 {
		return true
	}
	if fhandle.VerifyCapability(key, fh) {
		return true
	}
	n.mu.Lock()
	n.denied++
	n.mu.Unlock()
	return false
}

// SetServiceTime paces the node at one request per d (0 disables).
func (n *Node) SetServiceTime(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.serviceTime = d
}

// pace serializes admission when a service time is configured.
func (n *Node) pace() {
	n.mu.Lock()
	d := n.serviceTime
	n.mu.Unlock()
	if d <= 0 {
		return
	}
	n.paceMu.Lock()
	time.Sleep(d)
	n.paceMu.Unlock()
}

// Store returns the node's object store (used by tests and by managers
// whose backing objects live on this node).
func (n *Node) Store() *ObjectStore { return n.store }

// Addr returns the node's network address.
func (n *Node) Addr() netsim.Addr { return n.srv.Addr() }

// SetObs attaches a histogram registry recording per-procedure handler
// latency (nil detaches).
func (n *Node) SetObs(reg *obs.Registry) {
	if reg == nil {
		n.srv.SetObserver(nil)
		return
	}
	n.srv.SetObserver(reg.ObserveRPC)
}

// Close shuts the node down.
func (n *Node) Close() { n.srv.Close() }

func (n *Node) serve(call oncrpc.Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
	switch call.Program {
	case nfsproto.Program:
		n.pace()
		return n.serveNFS(call)
	case ObjProgram:
		return n.serveObj(call)
	case replica.PeerProgram:
		return n.servePeer(call)
	default:
		return nil, oncrpc.AcceptProgUnavail
	}
}

func (n *Node) serveNFS(call oncrpc.Call) (func(*xdr.Encoder), uint32) {
	d := xdr.NewDecoder(call.Body)
	switch nfsproto.Proc(call.Proc) {
	case nfsproto.ProcNull:
		return func(e *xdr.Encoder) {}, oncrpc.AcceptSuccess

	case nfsproto.ProcRead:
		var args nfsproto.ReadArgs
		if err := args.Decode(d); err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		if !n.authorize(args.FH) {
			return (&nfsproto.ReadRes{Status: nfsproto.ErrAccess}).Encode, oncrpc.AcceptSuccess
		}
		return n.read(&args), oncrpc.AcceptSuccess

	case nfsproto.ProcWrite:
		var args nfsproto.WriteArgs
		if err := args.Decode(d); err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		if !n.authorize(args.FH) {
			return (&nfsproto.WriteRes{Status: nfsproto.ErrAccess}).Encode, oncrpc.AcceptSuccess
		}
		res := n.write(&args)
		return res.Encode, oncrpc.AcceptSuccess

	case nfsproto.ProcCommit:
		var args nfsproto.CommitArgs
		if err := args.Decode(d); err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		if !n.authorize(args.FH) {
			return (&nfsproto.CommitRes{Status: nfsproto.ErrAccess}).Encode, oncrpc.AcceptSuccess
		}
		res := n.commit(&args)
		return res.Encode, oncrpc.AcceptSuccess

	default:
		// Storage nodes serve only the bulk I/O subset; anything else
		// was misrouted.
		return nil, oncrpc.AcceptProcUnavail
	}
}

// read serves READ. The data is read straight into the reply encoder,
// behind a present attribute block holding the node's local view of the
// object. That view is a placeholder — storage nodes do not hold file
// attributes (§4.1) — whose place in the reply lets the µproxy patch the
// authoritative attributes in without re-encoding the data; it never
// reaches a client.
func (n *Node) read(args *nfsproto.ReadArgs) func(*xdr.Encoder) {
	id := ObjectOf(args.FH)
	size, used, ok := n.store.Stat(id)
	at := attr.Attr{Type: attr.TypeReg, Nlink: 1, FileID: args.FH.FileID,
		Size: uint64(size), Used: uint64(used)}
	if !ok {
		// Reading an object that has never been written is a read of a
		// hole in a sparse file. The storage node cannot know the file
		// size, so it reports EOF at its local object; the client's view
		// of size comes from the attributes the µproxy maintains.
		return (&nfsproto.ReadRes{Status: nfsproto.OK, Attr: nfsproto.Some(at), EOF: true}).Encode
	}
	off, count := int64(args.Offset), args.Count
	return func(e *xdr.Encoder) {
		nfsproto.EncodeRead(e, at, count, func(p []byte) (int, bool) {
			cnt, eof, err := n.store.ReadAt(id, off, p)
			if err != nil {
				return 0, true // removed since Stat: a hole, as above
			}
			return cnt, eof
		})
	}
}

func (n *Node) write(args *nfsproto.WriteArgs) *nfsproto.WriteRes {
	cnt := args.Count
	if int(cnt) > len(args.Data) {
		cnt = uint32(len(args.Data))
	}
	stable := args.Stable != nfsproto.Unstable
	if err := n.store.WriteAt(ObjectOf(args.FH), int64(args.Offset), args.Data[:cnt], stable); err != nil {
		return &nfsproto.WriteRes{Status: nfsproto.ErrIO}
	}
	committed := uint32(nfsproto.Unstable)
	if stable {
		committed = nfsproto.FileSync
	}
	return &nfsproto.WriteRes{
		Status:    nfsproto.OK,
		Count:     cnt,
		Committed: committed,
		Verf:      n.store.Verifier(),
	}
}

func (n *Node) commit(args *nfsproto.CommitArgs) *nfsproto.CommitRes {
	verf := n.store.Commit(ObjectOf(args.FH))
	return &nfsproto.CommitRes{Status: nfsproto.OK, Verf: verf}
}

// --------------------------------------------------- raw-object program

// ObjStatRes is the result of ObjProcStat.
type ObjStatRes struct {
	Status nfsproto.Status
	Size   uint64
	Used   uint64
}

// Encode appends the result to e.
func (r *ObjStatRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(r.Status))
	if r.Status == nfsproto.OK {
		e.PutUint64(r.Size)
		e.PutUint64(r.Used)
	}
}

// Decode reads the result from d.
func (r *ObjStatRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = nfsproto.Status(s)
	if r.Status != nfsproto.OK {
		return nil
	}
	if r.Size, err = d.Uint64(); err != nil {
		return err
	}
	r.Used, err = d.Uint64()
	return err
}

func (n *Node) serveObj(call oncrpc.Call) (func(*xdr.Encoder), uint32) {
	d := xdr.NewDecoder(call.Body)
	fh, err := fhandle.Decode(d)
	if err != nil {
		return nil, oncrpc.AcceptGarbageArgs
	}
	if !n.authorize(fh) {
		return func(e *xdr.Encoder) { e.PutUint32(uint32(nfsproto.ErrAccess)) }, oncrpc.AcceptSuccess
	}
	id := ObjectOf(fh)
	switch call.Proc {
	case ObjProcRemove:
		n.store.Remove(id)
		return func(e *xdr.Encoder) { e.PutUint32(uint32(nfsproto.OK)) }, oncrpc.AcceptSuccess

	case ObjProcTruncate:
		size, err := d.Uint64()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		st := nfsproto.OK
		if err := n.store.Truncate(id, int64(size)); err != nil {
			st = nfsproto.ErrInval
		}
		return func(e *xdr.Encoder) { e.PutUint32(uint32(st)) }, oncrpc.AcceptSuccess

	case ObjProcStat:
		size, used, ok := n.store.Stat(id)
		res := ObjStatRes{Status: nfsproto.OK, Size: uint64(size), Used: uint64(used)}
		if !ok {
			res.Status = nfsproto.ErrNoEnt
		}
		return res.Encode, oncrpc.AcceptSuccess

	default:
		return nil, oncrpc.AcceptProcUnavail
	}
}

// -------------------------------------------------- replica peer program
//
// The rebalance driver (a peer inside the trust boundary, holding the
// bearer token) lists and reads objects on the nodes a topology
// transition copies from, and writes, truncates and removes them on the
// nodes it copies to — a grown group, or a reborn replica — scrubbing
// ghosts it finds during verification.

// peerAuthorized checks the peer-program bearer token. The token is
// derived from the capability key, which never leaves the trust
// boundary, so only the service's own elements can enumerate or bulk-
// read raw objects.
func (n *Node) peerAuthorized(token uint64) bool {
	n.mu.Lock()
	key := n.capKey
	n.mu.Unlock()
	if len(key) == 0 || token == replica.PeerToken(key) {
		return true
	}
	n.mu.Lock()
	n.denied++
	n.mu.Unlock()
	return false
}

// servePeer answers the replica peer program (replica.PeerProgram):
// bulk list/read on a transition's source, durable write, truncate and
// remove on its destination.
func (n *Node) servePeer(call oncrpc.Call) (func(*xdr.Encoder), uint32) {
	d := xdr.NewDecoder(call.Body)
	token, err := d.Uint64()
	if err != nil {
		return nil, oncrpc.AcceptGarbageArgs
	}
	if !n.peerAuthorized(token) {
		return func(e *xdr.Encoder) { e.PutUint32(replica.PeerDenied) }, oncrpc.AcceptSuccess
	}
	switch call.Proc {
	case replica.PeerProcList:
		after, err := d.Uint64()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		max, err := d.Uint32()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		if max > replica.PeerListMax {
			max = replica.PeerListMax
		}
		ents := n.store.ListAfter(ObjectID(after), int(max))
		return func(e *xdr.Encoder) {
			e.PutUint32(replica.PeerOK)
			e.PutUint32(uint32(len(ents)))
			for _, ent := range ents {
				e.PutUint64(uint64(ent.ID))
				e.PutUint64(uint64(ent.Size))
			}
		}, oncrpc.AcceptSuccess

	case replica.PeerProcRead:
		id, err := d.Uint64()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		off, err := d.Uint64()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		count, err := d.Uint32()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		if count > replica.PeerChunk {
			count = replica.PeerChunk
		}
		buf := make([]byte, count)
		cnt, _, rerr := n.store.ReadAt(ObjectID(id), int64(off), buf)
		if rerr != nil {
			return func(e *xdr.Encoder) { e.PutUint32(replica.PeerNoObj) }, oncrpc.AcceptSuccess
		}
		return func(e *xdr.Encoder) {
			e.PutUint32(replica.PeerOK)
			e.PutOpaque(buf[:cnt])
		}, oncrpc.AcceptSuccess

	case replica.PeerProcWrite:
		id, err := d.Uint64()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		off, err := d.Uint64()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		data, err := d.Opaque()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		if werr := n.store.WriteAt(ObjectID(id), int64(off), data, true); werr != nil {
			return func(e *xdr.Encoder) { e.PutUint32(replica.PeerNoObj) }, oncrpc.AcceptSuccess
		}
		return func(e *xdr.Encoder) { e.PutUint32(replica.PeerOK) }, oncrpc.AcceptSuccess

	case replica.PeerProcRemove:
		id, err := d.Uint64()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		n.store.Remove(ObjectID(id))
		return func(e *xdr.Encoder) { e.PutUint32(replica.PeerOK) }, oncrpc.AcceptSuccess

	case replica.PeerProcTruncate:
		id, err := d.Uint64()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		size, err := d.Uint64()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		if terr := n.store.Truncate(ObjectID(id), int64(size)); terr != nil {
			return func(e *xdr.Encoder) { e.PutUint32(replica.PeerNoObj) }, oncrpc.AcceptSuccess
		}
		return func(e *xdr.Encoder) { e.PutUint32(replica.PeerOK) }, oncrpc.AcceptSuccess

	default:
		return nil, oncrpc.AcceptProcUnavail
	}
}
