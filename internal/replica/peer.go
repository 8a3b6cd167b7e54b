package replica

import (
	"crypto/md5"
	"encoding/binary"
)

// The replica-peer RPC program: storage nodes serve it to the elements
// inside the trust boundary — the rebalance driver — so a topology
// transition can list, read, write, truncate and remove raw objects
// node to node. Every data move rides it: grow, shrink, and the rebirth
// of a replica that lost its disk (a transition onto the empty member).
const (
	PeerProgram = 200102
	PeerVersion = 1

	PeerProcList     = 1 // token u64, after u64, max u32 -> status, n, n×(id u64, size u64)
	PeerProcRead     = 2 // token u64, id u64, off u64, count u32 -> status, opaque data
	PeerProcWrite    = 3 // token u64, id u64, off u64, opaque data -> status (durable write)
	PeerProcRemove   = 4 // token u64, id u64 -> status
	PeerProcTruncate = 5 // token u64, id u64, size u64 -> status (creates if absent)
)

// Peer-program status codes (the program is internal; NFS statuses
// would only obscure it).
const (
	PeerOK     = 0
	PeerDenied = 1
	PeerNoObj  = 2
)

// PeerListMax bounds one PeerProcList page.
const PeerListMax = 512

// PeerChunk is the PeerProcRead transfer unit.
const PeerChunk = 32 * 1024

// PeerToken derives the peer-program bearer token from the array's
// capability key. Nodes outside the trust boundary never see the key,
// so they cannot list or read raw objects; a nil key (trusted-network
// mode) makes the token zero and nodes accept any.
func PeerToken(key []byte) uint64 {
	if len(key) == 0 {
		return 0
	}
	sum := md5.Sum(append(append([]byte(nil), key...), "replica-peer"...))
	return binary.BigEndian.Uint64(sum[:8])
}
