package storage

import (
	"sync"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/replica"
	"slice/internal/xdr"
)

// ObjectOf maps a file handle to the backing object identifier, the
// "external hash" of §4.2.
func ObjectOf(fh fhandle.Handle) ObjectID {
	return ObjectID(fhandle.HandleKey(fh))
}

// Node is a network storage node: an ObjectStore exported over RPC. The
// shared data-server Handler answers the NFS I/O subset and the raw-object
// program; what the node adds is its own: the capability check and the
// replica peer program.
//
// With a capability key configured, the node refuses requests whose
// handle does not carry a valid keyed fingerprint — the OBSD/NASD secure
// object model of §2.2, which lets the µproxy live outside the service
// trust boundary: clients cannot address storage directly, because only
// key holders (the µproxy, the coordinator) can mint capabilities.
type Node struct {
	store  *ObjectStore
	io     *Handler[ObjectID]
	srv    *oncrpc.Server
	mu     sync.Mutex
	capKey []byte
	denied uint64
}

// NewNode starts a storage node on port, serving store.
func NewNode(port *netsim.Port, store *ObjectStore) *Node {
	n := &Node{store: store}
	n.io = NewHandler(objects{store}, n.authorize)
	n.srv = oncrpc.NewServer(port, n)
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

// Store returns the node's object store, which holds only striped file
// objects (for stats and tests).
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

// ServeRPC implements oncrpc.Handler: the data-server Handler serves the
// node's I/O, and the cold replica peer program returns its results as
// encoder functions (oncrpc.HandlerFunc).
func (n *Node) ServeRPC(call oncrpc.Call, from netsim.Addr, e *xdr.Encoder) uint32 {
	if call.Program == replica.PeerProgram {
		return oncrpc.HandlerFunc(n.servePeer).ServeRPC(call, from, e)
	}
	return n.io.ServeRPC(call, from, e)
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
func (n *Node) servePeer(call oncrpc.Call, _ netsim.Addr) (func(*xdr.Encoder), uint32) {
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
