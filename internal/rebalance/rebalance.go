// Package rebalance drives background block migration for a topology
// transition — a grow, a shrink, or the rebirth of a replica that lost
// its disk (paper §3.3.1's reconfiguration step made online). The
// driver owns one transition end to end:
//
//  1. Begin the transition on the storage table. From this instant every
//     foreground write fans out to BOTH bindings (route.IOPolicy
//     double-writes while Table.Transitioning()), so the copier only has
//     to move bytes written before Begin — it never chases the workload.
//  2. Log a migrate intention with the coordinator and keep it fresh by
//     chaining Complete(old)+Intend(new) every heartbeat. If the driver
//     dies, the intention goes stale, the coordinator's probe fires
//     finish(OpMigrate), and the epoch-guarded Table.Abort rolls the
//     transition back — the old binding saw every double-written byte,
//     so a crash mid-migration loses nothing and fsck stays clean.
//  3. Copy-and-verify rounds: each round re-enumerates the source nodes
//     and, for every stripe whose placement moves, compares the source
//     chunk against every destination replica, repairing mismatches
//     with the source bytes. The first round does the bulk copy (empty
//     destinations mismatch everywhere); later rounds catch chunks a
//     foreground write raced. Two consecutive clean rounds prove
//     convergence: a clean round writes nothing, so any divergence left
//     over from earlier rounds would still be visible to the next full
//     scan — only in-flight double-writes (which land on both sides)
//     can escape it.
//  4. preCommit hook (the ensemble swaps the replica map here), then the
//     epoch-guarded Commit flips reads and new writes to the wider
//     binding in one table generation.
//
// Old copies of moved stripes stay behind on their former owners:
// placement never resolves to them again and the namespace fsck does
// not see storage objects, so they are garbage, not corruption;
// reclaiming them needs sub-object hole punching the object store does
// not expose yet (DESIGN.md §13).
package rebalance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"slice/internal/coord"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/replica"
	"slice/internal/route"
	"slice/internal/xdr"
)

// Config wires a Driver into the ensemble.
type Config struct {
	// Net and Host bind the driver's client port.
	Net  *netsim.Network
	Host uint32
	// IO carries the storage table being transitioned, the stripe unit,
	// and the current replica map.
	IO *route.IOPolicy
	// Coord resolves the coordinator's address before every
	// transmission, so the intention chain follows a restarted
	// coordinator; nil runs without an intention log (tests only — a
	// crash then leaves the transition open until something aborts it).
	Coord oncrpc.Resolver
	// CapKey derives the peer-program bearer token.
	CapKey []byte
	// Heartbeat is the intention refresh period; it must stay below the
	// coordinator's ProbeAfter or the probe will abort a live
	// migration. Default 500ms.
	Heartbeat time.Duration
	// Settle is the pause before the confirming verify round, letting
	// in-flight datagrams land. Default 20ms.
	Settle time.Duration
	// RetryBudget bounds how long one peer operation is retried before
	// the migration gives up (rides out storage-node restarts).
	// Default 10s.
	RetryBudget time.Duration
	// Obs records copy/verify chunk latency histograms (nil: none).
	Obs *obs.Registry
}

// maxRounds caps copy-and-verify rounds per transition.
const maxRounds = 64

// Status is a snapshot of migration progress, JSON-encodable for the
// stats plane (slicectl rebalance-status).
type Status struct {
	State          string `json:"state"` // idle|running|done|failed
	Epoch          uint64 `json:"epoch"`
	Round          int    `json:"round"`
	Objects        int    `json:"objects"`
	ChunksChecked  uint64 `json:"chunks_checked"`
	ChunksRepaired uint64 `json:"chunks_repaired"`
	BytesMoved     uint64 `json:"bytes_moved"`
	Ghosts         uint64 `json:"ghosts_removed"`
	StartedNS      int64  `json:"started_ns"`
	DoneNS         int64  `json:"done_ns"`
	Err            string `json:"err,omitempty"`
}

// Driver migrates blocks for one transition at a time.
type Driver struct {
	cfg   Config
	token uint64

	// rpc is the one client the driver calls every storage node from,
	// bound on first use; its zero site is the coordinator (cfg.Coord).
	rpc *oncrpc.LazyClient

	mu     sync.Mutex
	status Status

	copyHist   *obs.Histogram
	verifyHist *obs.Histogram
}

// New builds a driver. The zero-duration config fields get defaults.
func New(cfg Config) *Driver {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 20 * time.Millisecond
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 10 * time.Second
	}
	d := &Driver{
		cfg:   cfg,
		token: replica.PeerToken(cfg.CapKey),
		rpc:   oncrpc.NewLazyClient(cfg.Net, cfg.Host, oncrpc.ClientConfig{Resolve: cfg.Coord}),
	}
	d.status.State = "idle"
	if cfg.Obs != nil {
		d.copyHist = cfg.Obs.Hist("rebalance.copy_chunk")
		d.verifyHist = cfg.Obs.Hist("rebalance.verify_chunk")
	}
	return d
}

// Status returns a progress snapshot.
func (d *Driver) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.status
}

// StatusJSON renders the snapshot for the stats plane.
func (d *Driver) StatusJSON() []byte {
	b, _ := json.Marshal(d.Status())
	return b
}

// Close releases the driver's RPC client.
func (d *Driver) Close() {
	d.rpc.Close()
}

func (d *Driver) setStatus(f func(*Status)) {
	d.mu.Lock()
	f(&d.status)
	d.mu.Unlock()
}

// Run drives one transition: Begin(next, nextReps) on the storage
// table, migrate, call preCommit (may be nil) with the copy complete
// and the transition still open, then Commit. On any failure the
// transition is aborted and the old binding stays authoritative.
func (d *Driver) Run(next []netsim.Addr, nextReps *replica.Map, preCommit func() error) error {
	table := d.cfg.IO.Storage
	epoch, err := table.Begin(next, nextReps)
	if err != nil {
		return err
	}
	d.setStatus(func(s *Status) {
		*s = Status{State: "running", Epoch: epoch, StartedNS: time.Now().UnixNano()}
	})
	stopHB := d.startHeartbeat(epoch)
	fail := func(err error) error {
		table.Abort(epoch)
		stopHB()
		d.setStatus(func(s *Status) {
			s.State = "failed"
			s.Err = err.Error()
			s.DoneNS = time.Now().UnixNano()
		})
		return err
	}

	clean := 0
	for round := 1; ; round++ {
		if round > maxRounds {
			return fail(fmt.Errorf("rebalance: no convergence after %d rounds", maxRounds))
		}
		d.setStatus(func(s *Status) { s.Round = round })
		if !table.Transitioning() || table.PendingEpoch() != epoch {
			return fail(fmt.Errorf("rebalance: transition %d aborted externally", epoch))
		}
		changed, err := d.round(round > 1)
		if err != nil {
			return fail(err)
		}
		if changed == 0 {
			clean++
			if clean >= 2 {
				break
			}
			time.Sleep(d.cfg.Settle) // let in-flight datagrams land, then confirm
		} else {
			clean = 0
		}
	}

	if preCommit != nil {
		if err := preCommit(); err != nil {
			return fail(fmt.Errorf("rebalance: preCommit: %w", err))
		}
	}
	if !table.Commit(epoch) {
		return fail(fmt.Errorf("rebalance: transition %d lost before commit (probe abort or failover swap)", epoch))
	}
	stopHB()
	d.setStatus(func(s *Status) {
		s.State = "done"
		s.DoneNS = time.Now().UnixNano()
	})
	return nil
}

// chunkMove is one stripe-sized copy obligation: src holds the bytes
// under the current binding, dsts must hold them under the pending one.
type chunkMove struct {
	id   uint64
	off  uint64
	n    uint32
	src  netsim.Addr
	dsts []netsim.Addr
}

// round re-enumerates the current binding's nodes and repairs every
// moving chunk whose destination bytes differ from the source. It
// returns how many repairs (writes, truncates, removes) it made —
// zero means the bindings agree everywhere the placement moves.
func (d *Driver) round(verifyOnly bool) (int, error) {
	su := d.cfg.IO.StripeUnit
	if su == 0 {
		su = route.DefaultStripeUnit
	}

	cur, next := d.cfg.IO.Bindings()
	if next.NumLogical() == 0 {
		return 0, fmt.Errorf("rebalance: transition closed under the round")
	}
	// Sources are read from the current binding's primaries, so list
	// those alone: the table's binding under no replica map.
	prims, _ := d.cfg.IO.Storage.Bindings(nil)
	sizes := make(map[uint64]uint64)                    // object -> max size across src nodes
	srcSizes := make(map[netsim.Addr]map[uint64]uint64) // src node -> its listing
	for _, a := range prims.AppendAll(nil) {
		objs, err := d.listObjects(a)
		if err != nil {
			return 0, err
		}
		srcSizes[a] = objs
		for id, size := range objs {
			if have, ok := sizes[id]; !ok || have < size {
				sizes[id] = size
			}
		}
	}
	d.setStatus(func(s *Status) { s.Objects = len(sizes) })

	// Destination listings, for size sync and ghost scrubbing. Every
	// node the transition brings in is listed — it may hold stale bytes
	// (earlier aborted migration) even when no move of this round
	// targets it. A node that already holds data under the current
	// binding is not: it takes every foreground write, truncate and
	// remove of its objects itself, and the listings are snapshots — an
	// object a writer created or extended after the source listing would
	// look like a ghost or an oversized copy, and removing or truncating
	// it there destroys stripes no move covers, so nothing repairs them.
	// On such a node the driver writes its moving chunks and nothing
	// else; on an incoming node every byte belongs to a moving stripe,
	// so whatever a round gets wrong there the next one repairs.
	//
	// An incoming node is size-synced to the largest size among the
	// sources whose stripes move onto it — the size the same writes give
	// those sources — so a reborn replica ends the size of its sibling,
	// not of the largest copy anywhere in the array.
	holding := cur.AppendAll(nil)
	dstSizes := make(map[netsim.Addr]map[uint64]uint64) // incoming nodes only
	want := make(map[netsim.Addr]map[uint64]uint64)     // size-sync targets
	moves := make(map[netsim.Addr][]chunkMove)          // keyed by src node
	for _, a := range next.AppendAll(nil) {
		if slices.Contains(holding, a) {
			continue
		}
		objs, err := d.listObjects(a)
		if err != nil {
			return 0, err
		}
		dstSizes[a] = objs
	}
	var holders, pending []netsim.Addr // one stripe's nodes under each binding
	for id, size := range sizes {
		for stripe := uint64(0); stripe == 0 || stripe*su < size; stripe++ {
			key := route.PlacementKey(id, stripe)
			holders = cur.AppendNodes(holders[:0], key)
			if len(holders) == 0 {
				return 0, route.ErrEmptyTable
			}
			src := holders[0] // the primary
			pending = next.AppendNodes(pending[:0], key)
			var dsts []netsim.Addr
			for _, a := range pending {
				if !slices.Contains(holders, a) {
					dsts = append(dsts, a)
				}
			}
			if len(dsts) == 0 {
				continue
			}
			if srcSize, ok := srcSizes[src][id]; ok {
				for _, a := range dsts {
					if want[a] == nil {
						want[a] = make(map[uint64]uint64)
					}
					want[a][id] = max(want[a][id], srcSize)
				}
			}
			// PeerProcRead caps one transfer at PeerChunk bytes, so a
			// stripe wider than that becomes several moves.
			start := stripe * su
			end := start + su
			if end > size {
				end = size
			}
			if start >= end {
				// Size-sync only (zero-length object or hole at the tail).
				moves[src] = append(moves[src], chunkMove{id: id, off: start, src: src, dsts: dsts})
				continue
			}
			for off := start; off < end; off += replica.PeerChunk {
				n := uint32(replica.PeerChunk)
				if end-off < uint64(n) {
					n = uint32(end - off)
				}
				moves[src] = append(moves[src], chunkMove{id: id, off: off, n: n, src: src, dsts: dsts})
			}
		}
	}

	// Drain each source node concurrently; chunks of one node go in
	// order through one client.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		changed  int
		firstErr error
	)
	truncated := make(map[netsim.Addr]map[uint64]bool) // size-synced this round
	for src, list := range moves {
		wg.Add(1)
		go func(src netsim.Addr, list []chunkMove) {
			defer wg.Done()
			for _, m := range list {
				c, err := d.repairChunk(m, want, dstSizes, truncated, &mu, verifyOnly)
				mu.Lock()
				changed += c
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(src, list)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}

	// Ghost scrub: an incoming node's object whose source vanished (the
	// file was removed mid-copy and the remove raced our writes).
	for dst, objs := range dstSizes {
		for id := range objs {
			if _, live := sizes[id]; live {
				continue
			}
			if !everMovesTo(next, id, dst) {
				continue // not ours: the node owned it before the transition
			}
			if err := d.peerRemove(dst, id); err != nil {
				return 0, err
			}
			changed++
			d.setStatus(func(s *Status) { s.Ghosts++ })
		}
	}
	return changed, nil
}

// everMovesTo reports whether object id has any stripe the pending
// binding places on dst. Sizes no longer list the object (it was
// removed), so scan a bounded stripe range — ghosts are creatures of the
// copy window, which only ever touched stripes below the listed size.
func everMovesTo(next route.Binding, id uint64, dst netsim.Addr) bool {
	const scanStripes = 1024
	var nodes []netsim.Addr
	for stripe := uint64(0); stripe < scanStripes; stripe++ {
		nodes = next.AppendNodes(nodes[:0], route.PlacementKey(id, stripe))
		if slices.Contains(nodes, dst) {
			return true
		}
	}
	return false
}

// repairChunk size-syncs the destinations of one chunk to their want
// sizes and rewrites any destination whose bytes differ from the
// source. Returns how many repairs it made.
func (d *Driver) repairChunk(m chunkMove, want, dstSizes map[netsim.Addr]map[uint64]uint64,
	truncated map[netsim.Addr]map[uint64]bool, mu *sync.Mutex, verify bool) (int, error) {
	changed := 0
	var srcData []byte
	var srcOK bool
	if m.n > 0 {
		data, ok, err := d.peerRead(m.src, m.id, m.off, m.n)
		if err != nil {
			return changed, err
		}
		srcData, srcOK = data, ok
		if !ok {
			// Object vanished from the source: the remove fans out to the
			// destinations too (IOPolicy.DataSites includes pending
			// nodes); the ghost scrub catches stragglers.
			return changed, nil
		}
	}
	hist := d.copyHist
	if verify {
		hist = d.verifyHist
	}
	for _, dst := range m.dsts {
		// Size-sync once per (object, incoming destination) per round.
		mu.Lock()
		listed, incoming := dstSizes[dst]
		dsz, present := listed[m.id]
		size, sourced := want[dst][m.id]
		needTrunc := incoming && sourced && !truncated[dst][m.id] && (!present || dsz != size)
		if needTrunc {
			if truncated[dst] == nil {
				truncated[dst] = make(map[uint64]bool)
			}
			truncated[dst][m.id] = true
		}
		mu.Unlock()
		if needTrunc {
			if err := d.peerTruncate(dst, m.id, size); err != nil {
				return changed, err
			}
			changed++
		}
		if m.n == 0 || !srcOK {
			continue
		}
		t0 := time.Now()
		dstData, ok, err := d.peerRead(dst, m.id, m.off, m.n)
		if err != nil {
			return changed, err
		}
		if ok && bytes.Equal(srcData, dstData) {
			d.setStatus(func(s *Status) { s.ChunksChecked++ })
			if hist != nil {
				hist.RecordSince(t0)
			}
			continue
		}
		if err := d.peerWrite(dst, m.id, m.off, srcData); err != nil {
			return changed, err
		}
		changed++
		d.setStatus(func(s *Status) {
			s.ChunksChecked++
			s.ChunksRepaired++
			s.BytesMoved += uint64(len(srcData))
		})
		if hist != nil {
			hist.RecordSince(t0)
		}
	}
	return changed, nil
}

// ------------------------------------------------------- peer operations

// call is the driver's coord.Caller: its one client, aimed per call.
func (d *Driver) call(site netsim.Addr, prog, vers, proc uint32, args func(*xdr.Encoder)) ([]byte, error) {
	c, err := d.rpc.Get()
	if err != nil {
		return nil, err
	}
	rep, err := c.CallTo(site, prog, vers, proc, args)
	return rep.Body, err
}

// retry runs op until it succeeds or the retry budget is spent — a
// destination node restarting mid-migration (chaos does exactly this)
// must not kill the whole transition.
func (d *Driver) retry(op func() error) error {
	deadline := time.Now().Add(d.cfg.RetryBudget)
	for {
		err := op()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// peerCall makes one retried peer-program call and returns its status
// and the remaining decoder.
func (d *Driver) peerCall(a netsim.Addr, proc uint32, args func(*xdr.Encoder)) (uint32, *xdr.Decoder, error) {
	var status uint32
	var dec *xdr.Decoder
	err := d.retry(func() error {
		body, err := d.call(a, replica.PeerProgram, replica.PeerVersion, proc, func(e *xdr.Encoder) {
			e.PutUint64(d.token)
			args(e)
		})
		if err != nil {
			return err
		}
		dec = xdr.NewDecoder(body)
		status, err = dec.Uint32()
		return err
	})
	if err != nil {
		return 0, nil, fmt.Errorf("rebalance: peer %v proc %d: %w", a, proc, err)
	}
	if status == replica.PeerDenied {
		return status, nil, fmt.Errorf("rebalance: peer %v denied the bearer token", a)
	}
	return status, dec, nil
}

// listObjects pages a node's object directory.
func (d *Driver) listObjects(a netsim.Addr) (map[uint64]uint64, error) {
	out := make(map[uint64]uint64)
	after := uint64(0)
	for {
		n := uint32(0)
		status, dec, err := d.peerCall(a, replica.PeerProcList, func(e *xdr.Encoder) {
			e.PutUint64(after)
			e.PutUint32(replica.PeerListMax)
		})
		if err != nil {
			return nil, err
		}
		if status != replica.PeerOK {
			return nil, fmt.Errorf("rebalance: list %v: peer status %d", a, status)
		}
		if n, err = dec.Uint32(); err != nil {
			return nil, err
		}
		for i := uint32(0); i < n; i++ {
			id, err := dec.Uint64()
			if err != nil {
				return nil, err
			}
			size, err := dec.Uint64()
			if err != nil {
				return nil, err
			}
			out[id] = size
			after = id
		}
		if n < replica.PeerListMax {
			return out, nil
		}
	}
}

// peerRead fetches one chunk; ok is false when the object is gone.
func (d *Driver) peerRead(a netsim.Addr, id, off uint64, n uint32) ([]byte, bool, error) {
	status, dec, err := d.peerCall(a, replica.PeerProcRead, func(e *xdr.Encoder) {
		e.PutUint64(id)
		e.PutUint64(off)
		e.PutUint32(n)
	})
	if err != nil {
		return nil, false, err
	}
	if status == replica.PeerNoObj {
		return nil, false, nil
	}
	if status != replica.PeerOK {
		return nil, false, fmt.Errorf("rebalance: read %v obj %d: peer status %d", a, id, status)
	}
	data, err := dec.Opaque()
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

func (d *Driver) peerWrite(a netsim.Addr, id, off uint64, data []byte) error {
	status, _, err := d.peerCall(a, replica.PeerProcWrite, func(e *xdr.Encoder) {
		e.PutUint64(id)
		e.PutUint64(off)
		e.PutOpaque(data)
	})
	if err != nil {
		return err
	}
	if status != replica.PeerOK {
		return fmt.Errorf("rebalance: write %v obj %d: peer status %d", a, id, status)
	}
	return nil
}

func (d *Driver) peerTruncate(a netsim.Addr, id, size uint64) error {
	status, _, err := d.peerCall(a, replica.PeerProcTruncate, func(e *xdr.Encoder) {
		e.PutUint64(id)
		e.PutUint64(size)
	})
	if err != nil {
		return err
	}
	if status != replica.PeerOK {
		return fmt.Errorf("rebalance: truncate %v obj %d: peer status %d", a, id, status)
	}
	return nil
}

func (d *Driver) peerRemove(a netsim.Addr, id uint64) error {
	status, _, err := d.peerCall(a, replica.PeerProcRemove, func(e *xdr.Encoder) {
		e.PutUint64(id)
	})
	if err != nil {
		return err
	}
	if status != replica.PeerOK {
		return fmt.Errorf("rebalance: remove %v obj %d: peer status %d", a, id, status)
	}
	return nil
}

// ------------------------------------------------------ intention chain

// startHeartbeat logs the migrate intention and keeps it fresh by
// chaining a new Intend before completing the old one, so the
// transition is covered by an unexpired intention at every instant the
// driver is alive. The returned stop function completes the last
// intention.
func (d *Driver) startHeartbeat(epoch uint64) (stop func()) {
	if d.cfg.Coord == nil {
		return func() {}
	}
	id := d.intend(epoch)
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(d.cfg.Heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-stopCh:
				d.complete(id)
				return
			case <-tick.C:
				if next := d.intend(epoch); next != 0 {
					d.complete(id)
					id = next
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopCh)
			wg.Wait()
		})
	}
}

// intend logs one migrate intention carrying the epoch; 0 on failure
// (the previous intention stays pending and keeps covering us).
func (d *Driver) intend(epoch uint64) uint64 {
	return coord.CallIntend(d.call, coord.OpMigrate, fhandle.Handle{}, epoch)
}

func (d *Driver) complete(id uint64) { coord.CallComplete(d.call, id) }
