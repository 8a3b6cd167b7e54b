package obs

import (
	"fmt"
	"maps"
)

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

// opNames names the op class of each (program, procedure) the ensemble
// serves: the NFS subset, MOUNT, the portmapper, the storage objects', the
// replica peers', the directory peers' (§4.3), the coordinator's and the
// stats program's own.
var opNames = map[[2]uint32]string{
	{progNFS, 0}: "nfs.null", {progNFS, 1}: "nfs.getattr", {progNFS, 2}: "nfs.setattr",
	{progNFS, 3}: "nfs.lookup", {progNFS, 4}: "nfs.access", {progNFS, 5}: "nfs.readlink",
	{progNFS, 6}: "nfs.read", {progNFS, 7}: "nfs.write", {progNFS, 8}: "nfs.create",
	{progNFS, 9}: "nfs.mkdir", {progNFS, 10}: "nfs.symlink", {progNFS, 12}: "nfs.remove",
	{progNFS, 13}: "nfs.rmdir", {progNFS, 14}: "nfs.rename", {progNFS, 15}: "nfs.link",
	{progNFS, 16}: "nfs.readdir", {progNFS, 18}: "nfs.fsstat", {progNFS, 21}: "nfs.commit",
	{progMount, 0}: "mount.null", {progMount, 1}: "mount.mnt", {progMount, 2}: "mount.dump",
	{progMount, 3}: "mount.umnt", {progMount, 4}: "mount.umntall", {progMount, 5}: "mount.export",
	{progPortmap, 0}: "portmap.null", {progPortmap, 3}: "portmap.getport", {progPortmap, 4}: "portmap.dump",
	{progObj, 1}: "obj.remove", {progObj, 2}: "obj.truncate",
	{progReplicaPeer, 1}: "replica.peer.list", {progReplicaPeer, 2}: "replica.peer.read",
	{progReplicaPeer, 3}: "replica.peer.write", {progReplicaPeer, 4}: "replica.peer.remove",
	{progReplicaPeer, 5}: "replica.peer.truncate",
	{progDirPeer, 1}:     "peer.getattr", {progDirPeer, 2}: "peer.setattr", {progDirPeer, 3}: "peer.insert",
	{progDirPeer, 4}: "peer.remove", {progDirPeer, 5}: "peer.touchdir", {progDirPeer, 6}: "peer.rmdircell",
	{progDirPeer, 7}: "peer.listdir", {progDirPeer, 8}: "peer.countdir", {progDirPeer, 9}: "peer.linkdelta",
	{progCoord, 1}: "coord.intend", {progCoord, 2}: "coord.complete",
	{Program, ProcSnapshot}: "obs.snapshot", {Program, ProcTraces}: "obs.traces",
	{Program, ProcRebalanceStatus}: "obs.rebalance-status", {Program, ProcGrow}: "obs.grow",
	{Program, ProcShrink}: "obs.shrink",
}

// OpName maps an RPC (program, procedure) pair to the histogram name of
// its op class. Unknown pairs get a numeric fallback rather than an
// error: the exposition layer never rejects traffic it merely observes.
func OpName(prog, proc uint32) string {
	if name, ok := opNames[[2]uint32{prog, proc}]; ok {
		return name
	}
	return fmt.Sprintf("prog%d.proc%d", prog, proc)
}

// ObserveRPC records one served call, from the server's readings of Now
// around its handler: its time into the registry's histogram of its op
// class, and, when the call is in the sample, its handler's begin and
// end into the ring. Its signature matches oncrpc.ServerObserver, so
// components install it directly: srv.SetObserver(reg.ObserveRPC). After
// an op class's first call it takes no lock and allocates nothing.
func (r *Registry) ObserveRPC(id CallID, prog, proc uint32, t0, t1 int64) {
	r.rpcHist(prog, proc).Record(uint64(t1 - t0))
	if Sampled(id.Xid) {
		r.events.Record(id, KindBegin, uint8(proc), t0, uint64(prog))
		r.events.Record(id, KindDone, uint8(proc), t1, uint64(t1-t0))
	}
}

// rpcHist returns the histogram of the calls to proc of prog, found in a
// table read without the registry's lock; the first call of an op class
// registers its histogram and copies the table with it added.
func (r *Registry) rpcHist(prog, proc uint32) *Histogram {
	key := uint64(prog)<<32 | uint64(proc)
	if t := r.rpc.Load(); t != nil {
		if h, ok := (*t)[key]; ok {
			return h
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := map[uint64]*Histogram{}
	if old := r.rpc.Load(); old != nil {
		if h, ok := (*old)[key]; ok {
			return h
		}
		t = maps.Clone(*old)
	}
	h := r.hist(OpName(prog, proc))
	t[key] = h
	r.rpc.Store(&t)
	return h
}
