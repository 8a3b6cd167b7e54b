package obs

import "fmt"

// Wire program numbers, duplicated here as literals so obs stays a leaf
// package: the components that own the canonical constants (nfsproto,
// dirsrv, storage, replica, coord) all import obs.
const (
	progPortmap     = 100000
	progNFS         = 100003
	progMount       = 100005
	progObj         = 200101
	progReplicaPeer = 200102
	progDirPeer     = 200201
	progCoord       = 200301
)

// Histogram names for the real-socket gateway: record sizes in each
// direction, per-peer totals and lifetime at close, and the count-only
// drop and idle-eviction events.
const (
	HistWireRxRecord   = "wire.rx_record"
	HistWireTxRecord   = "wire.tx_record"
	HistWireConnRx     = "wire.conn_rx_bytes"
	HistWireConnTx     = "wire.conn_tx_bytes"
	HistWireConnNS     = "wire.conn_ns"
	HistWireDropNoPeer = "wire.drop_nopeer"
	HistWireDropInject = "wire.drop_inject"
	HistWireDropWrite  = "wire.drop_write"
	HistWireEvicted    = "wire.peer_evicted"
)

// Histogram names for the client bulk-I/O engine. bulk.window samples
// window occupancy (slots, not nanoseconds) at each slot acquisition;
// the chunk histograms record per-chunk RPC latency including retries.
const (
	HistBulkWindow     = "bulk.window"
	HistBulkReadChunk  = "bulk.read_chunk"
	HistBulkWriteChunk = "bulk.write_chunk"
)

// dirPeerProcNames names the directory-server peer protocol (§4.3).
var dirPeerProcNames = [...]string{
	1: "peer.getattr",
	2: "peer.setattr",
	3: "peer.insert",
	4: "peer.remove",
	5: "peer.touchdir",
	6: "peer.rmdircell",
	7: "peer.listdir",
	8: "peer.countdir",
	9: "peer.linkdelta",
}

// nfsProcNames names the NFS procedure subset the ensemble serves.
var nfsProcNames = [...]string{
	0:  "nfs.null",
	1:  "nfs.getattr",
	2:  "nfs.setattr",
	3:  "nfs.lookup",
	4:  "nfs.access",
	5:  "nfs.readlink",
	6:  "nfs.read",
	7:  "nfs.write",
	8:  "nfs.create",
	9:  "nfs.mkdir",
	10: "nfs.symlink",
	12: "nfs.remove",
	13: "nfs.rmdir",
	14: "nfs.rename",
	15: "nfs.link",
	16: "nfs.readdir",
	18: "nfs.fsstat",
	21: "nfs.commit",
}

// OpName maps an RPC (program, procedure) pair to the histogram name of
// its op class. Unknown pairs get a numeric fallback rather than an
// error: the exposition layer never rejects traffic it merely observes.
func OpName(prog, proc uint32) string {
	switch prog {
	case progNFS:
		if proc < uint32(len(nfsProcNames)) && nfsProcNames[proc] != "" {
			return nfsProcNames[proc]
		}
	case progMount:
		switch proc {
		case 0:
			return "mount.null"
		case 1:
			return "mount.mnt"
		case 2:
			return "mount.dump"
		case 3:
			return "mount.umnt"
		case 4:
			return "mount.umntall"
		case 5:
			return "mount.export"
		}
	case progPortmap:
		switch proc {
		case 0:
			return "portmap.null"
		case 3:
			return "portmap.getport"
		case 4:
			return "portmap.dump"
		}
	case progObj:
		switch proc {
		case 1:
			return "obj.remove"
		case 2:
			return "obj.truncate"
		}
	case progReplicaPeer:
		switch proc {
		case 1:
			return "replica.peer.list"
		case 2:
			return "replica.peer.read"
		case 3:
			return "replica.peer.write"
		case 4:
			return "replica.peer.remove"
		case 5:
			return "replica.peer.truncate"
		}
	case progDirPeer:
		if proc < uint32(len(dirPeerProcNames)) && dirPeerProcNames[proc] != "" {
			return dirPeerProcNames[proc]
		}
	case progCoord:
		switch proc {
		case 1:
			return "coord.intend"
		case 2:
			return "coord.complete"
		}
	case Program:
		switch proc {
		case ProcSnapshot:
			return "obs.snapshot"
		case ProcTraces:
			return "obs.traces"
		case ProcRebalanceStatus:
			return "obs.rebalance-status"
		case ProcGrow:
			return "obs.grow"
		case ProcShrink:
			return "obs.shrink"
		}
	}
	return fmt.Sprintf("prog%d.proc%d", prog, proc)
}

// ObserveRPC records one served call into the registry, named by op
// class. Its signature matches oncrpc.ServerObserver, so components
// install it directly: srv.SetObserver(reg.ObserveRPC).
func (r *Registry) ObserveRPC(prog, vers, proc uint32, handlerNS uint64) {
	r.Hist(OpName(prog, proc)).Record(handlerNS)
}
