// Package coord implements the Slice block-service coordinator (§2.2,
// §3.3.2, §4.2).
//
// A coordinator preserves the atomicity of operations that span multiple
// storage sites — remove/truncate, NFS V3 write commitment and topology
// migrations — with an intention-logging protocol: the µproxy declares an intention before the operation, the
// coordinator logs it to stable storage, and the µproxy clears it with a
// completion message afterwards. If the completion never arrives, the
// coordinator finishes the operation itself: the finishing actions
// (remove/truncate/commit on every possible site) are idempotent, so
// re-execution after a coordinator crash is safe. A recovering coordinator
// scans its intentions log and completes or discards operations that were
// in flight at the time of the failure.
package coord

import (
	"sync"
	"time"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/once"
	"slice/internal/oncrpc"
	"slice/internal/replica"
	"slice/internal/route"
	"slice/internal/storage"
	"slice/internal/wal"
	"slice/internal/xdr"
)

// Program identifies the coordinator RPC service.
const (
	Program = 200301
	Version = 1
)

// Coordinator procedures.
const (
	ProcIntend   = 1 // declare an intention; returns its id
	ProcComplete = 2 // clear an intention
)

// Intention operation types.
const (
	OpRemove   = 1 // remove file data from all sites
	OpTruncate = 2 // truncate file data on all sites
	OpCommit   = 3 // commit (make durable) a multi-site write set
	OpMigrate  = 5 // topology transition in progress; Size carries the epoch
	// 4 is retired: it marked per-file mirrored writes, which nothing sent.
)

// intent is one logged intention.
type intent struct {
	ID     uint64
	Op     uint32
	FH     fhandle.Handle
	Size   uint64 // truncate target size; commit byte count; migrate epoch
	Logged time.Time
}

// WAL record types. Type 3 was the retired block-map allocation record;
// replay skips it like any type it does not know. A recIntent logged for
// a ProcIntend call ends in the call's once.Done, so a retransmitted
// Intend — across a restart too — gets the id it was first given;
// compaction carries the outcomes of the last once.Span as recOutcome.
const (
	recIntent   = 1
	recComplete = 2
	recOutcome  = 4
)

// Stats counts coordinator activity.
type Stats struct {
	Intentions  uint64
	Completions uint64
	Finished    uint64 // operations the coordinator finished itself
}

// Config configures a coordinator.
type Config struct {
	// Log is the intentions journal, the coordinator's durable value. It
	// stays off the storage nodes: the coordinator must not depend on
	// the nodes it recovers.
	Log *wal.Log
	// Storage maps logical storage sites to storage nodes (replica-group
	// primaries when the array is replicated).
	Storage *route.Table
	// Replicas is the replica map the µproxies hold over Storage (nil:
	// unreplicated): finishing an intention must reach every member.
	Replicas *replica.Map
	// SmallFile maps logical small-file sites to small-file servers; may
	// be nil when no small-file servers are configured.
	SmallFile *route.Table
	// Net and Host bind the client port the coordinator calls the data
	// sites from.
	Net  *netsim.Network
	Host uint32
	// ProbeAfter is how long an intention may sit unacknowledged before
	// the coordinator finishes the operation itself (default 2s).
	ProbeAfter time.Duration
	// CapKey is the storage capability key (§2.2); the coordinator is
	// inside the trust boundary and stamps capabilities into the handles
	// of its recovery-time storage operations.
	CapKey []byte
}

// Coordinator is one block-service coordinator site.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*intent
	stats   Stats
	done    once.Table // each ProcIntend's id, by the call's identity

	// sites lists a file's data sites (route.IOPolicy.DataSites over the
	// configured tables); rpc is the one client that calls them, bound
	// on first use.
	sites *route.IOPolicy
	rpc   *oncrpc.LazyClient

	srv       *oncrpc.Server
	stopCh    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New starts a coordinator serving on port.
func New(port *netsim.Port, cfg Config) *Coordinator {
	c := newCoordinator(cfg)
	c.start(port)
	return c
}

// Restart builds a coordinator from its intentions log, cfg.Log: state
// is rebuilt and in-flight operations of the failed incarnation are
// finished BEFORE the server begins accepting calls on port, so no new
// intention can race recovery or collide with a recovered id. An empty
// log makes it a fresh coordinator. This is the uniform crash-restart
// path (§4.2: a restarted coordinator scans its log and completes
// interrupted operations).
func Restart(port *netsim.Port, cfg Config) (*Coordinator, error) {
	c := newCoordinator(cfg)
	if err := c.recoverState(cfg.Log); err != nil {
		return nil, err
	}
	c.finishRecovered()
	c.start(port)
	return c, nil
}

func newCoordinator(cfg Config) *Coordinator {
	if cfg.ProbeAfter <= 0 {
		cfg.ProbeAfter = 2 * time.Second
	}
	c := &Coordinator{
		cfg:     cfg,
		nextID:  1,
		pending: make(map[uint64]*intent),
		sites:   &route.IOPolicy{SmallFile: cfg.SmallFile, Storage: cfg.Storage, Replicas: cfg.Replicas},
		rpc:     oncrpc.NewLazyClient(cfg.Net, cfg.Host, oncrpc.ClientConfig{}),
		stopCh:  make(chan struct{}),
	}
	cfg.Log.SetLive(c.liveSize, wal.Shard{Mu: &c.mu, Live: c.liveRecords})
	return c
}

func (c *Coordinator) start(port *netsim.Port) {
	c.srv = oncrpc.NewServer(port, c)
	c.wg.Add(1)
	go c.probeLoop()
}

// Addr returns the coordinator's address.
func (c *Coordinator) Addr() netsim.Addr { return c.srv.Addr() }

// SetObs attaches a histogram registry recording per-procedure handler
// latency (nil detaches).
func (c *Coordinator) SetObs(reg *obs.Registry) {
	if reg == nil {
		c.srv.SetObserver(nil)
		return
	}
	c.srv.SetObserver(reg.ObserveRPC)
}

// Stats returns a snapshot of the coordinator counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// PendingIntentions returns the number of unacknowledged intentions.
func (c *Coordinator) PendingIntentions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Close stops the coordinator. Idempotent. The client closes before the
// probe loop is waited for, so a probe retrying against a dead site ends
// at its next transmission instead of running out its retry ladder; an
// intention it could not confirm stays pending for the next incarnation.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.stopCh)
		c.srv.Close()
		c.rpc.Close()
		c.wg.Wait()
	})
}

func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.ProbeAfter / 2)
	defer tick.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-tick.C:
			// A probe against a dead site takes a retry ladder, after
			// which the next tick is already due: Close must win over it,
			// which a select choosing at random between the two does not
			// guarantee.
			select {
			case <-c.stopCh:
				return
			default:
			}
			c.CheckIntentions(time.Now())
		}
	}
}

// CheckIntentions finishes every intention older than ProbeAfter,
// returning how many it completed. An intention whose operation could
// not be confirmed on every site stays pending — completing it anyway
// would silently orphan the unreachable site's blocks — and the next
// probe retries it. It is exported so tests can drive the probe
// deterministically.
func (c *Coordinator) CheckIntentions(now time.Time) int {
	c.mu.Lock()
	var stale []*intent
	for _, in := range c.pending {
		if now.Sub(in.Logged) >= c.cfg.ProbeAfter {
			stale = append(stale, in)
		}
	}
	c.mu.Unlock()
	done := 0
	for _, in := range stale {
		if c.finish(in) {
			done++
		}
	}
	return done
}

// clearIntent removes an intention and journals the completion. The
// completion record is appended under c.mu (so the journal order matches
// the state-change order) but synced after the lock is dropped: a slow
// log device must not stall every other coordinator RPC. Group commit in
// wal.Log.Sync coalesces the device syncs of concurrent completions.
func (c *Coordinator) clearIntent(id uint64, finished bool) {
	c.mu.Lock()
	if _, ok := c.pending[id]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.pending, id)
	if finished {
		c.stats.Finished++
	} else {
		c.stats.Completions++
	}
	log := c.cfg.Log
	_, _ = log.Append(recComplete, encodeID(id))
	c.mu.Unlock()
	_ = log.Sync()
}

// intentLen is a recIntent payload's length.
const intentLen = 8 + 4 + fhandle.Size + 8

// encode appends in's recIntent payload to e and returns e's bytes.
func (in *intent) encode(e *xdr.Encoder) []byte {
	e.PutUint64(in.ID)
	e.PutUint32(in.Op)
	in.FH.Encode(e)
	e.PutUint64(in.Size)
	return e.Bytes()
}

// encodeID is a recComplete payload.
func encodeID(id uint64) []byte {
	e := xdr.NewEncoder(8)
	e.PutUint64(id)
	return e.Bytes()
}

// liveRecords emits the coordinator's state for wal.Log to compact to:
// the last ID issued, intended and completed so no restart reissues it,
// then one recIntent per pending intention and one recOutcome per
// ProcIntend answered in the last once.Span. The caller holds c.mu.
func (c *Coordinator) liveRecords(emit func(recType uint32, payload []byte)) {
	if last := c.nextID - 1; last > 0 {
		emit(recIntent, (&intent{ID: last}).encode(xdr.NewEncoder(intentLen)))
		emit(recComplete, encodeID(last))
	}
	for _, in := range c.pending {
		emit(recIntent, in.encode(xdr.NewEncoder(intentLen)))
	}
	// Every outcome is emitted with its value, so liveSize counts them
	// without reading one.
	e := xdr.NewEncoder(once.DoneSize + once.ValueSize)
	c.done.Each(func(d *once.Done) {
		e.Reset()
		_ = d.EncodeValued(e) // the table holds only outcomes that fit
		emit(recOutcome, e.Bytes())
	})
}

// liveSize is the journal length liveRecords emits. The caller holds c.mu.
func (c *Coordinator) liveSize() int {
	n := len(c.pending)*wal.FrameLen(intentLen) + c.done.Len()*wal.FrameLen(once.DoneSize+once.ValueSize)
	if c.nextID > 1 {
		n += wal.FrameLen(intentLen) + wal.FrameLen(8)
	}
	return n
}

// finish performs the idempotent completing actions for an intention whose
// initiator may have failed — the same Apply the µproxy ran, at every site
// that could hold the file's data — and clears the intention once they are
// confirmed everywhere, reporting whether it did.
func (c *Coordinator) finish(in *intent) bool {
	if in.Op == OpMigrate {
		// A migration intention gone stale means its rebalance driver
		// died mid-copy: roll the topology transition back so the old
		// binding (which saw every double-written byte) stays
		// authoritative. The epoch guard makes this a no-op against a
		// newer — or already closed — transition, and a live driver
		// keeps its intention fresh by chaining Complete+Intend, so a
		// probe never reaches a healthy migration.
		if c.cfg.Storage != nil {
			c.cfg.Storage.Abort(in.Size)
		}
		c.clearIntent(in.ID, true)
		return true
	}
	// A commit's Offset and Count stay zero: the whole file. Committing
	// clean data is a no-op, so over-commit is safe.
	_, ok := Apply(c.callSite, c.cfg.CapKey, Action{Op: in.Op, FH: in.FH, Size: in.Size},
		c.sites.DataSites(in.FH, false), func() { c.clearIntent(in.ID, true) })
	return ok
}

// callSite is the coordinator's Caller: its one client, aimed per call.
func (c *Coordinator) callSite(site netsim.Addr, prog, vers, proc uint32, args func(*xdr.Encoder)) ([]byte, error) {
	cl, err := c.rpc.Get()
	if err != nil {
		return nil, err
	}
	rep, err := cl.CallTo(site, prog, vers, proc, args)
	return rep.Body, err
}

// ----------------------------------------------------- multi-site operations

// Caller issues one RPC to site: the coordinator's own client, or a
// µproxy's, which also attributes the call to the request's trace span.
// The zero site is the coordinator, which the µproxies' and the rebalance
// driver's clients resolve per transmission (oncrpc.Client.CallTo).
type Caller func(site netsim.Addr, prog, vers, proc uint32, args func(*xdr.Encoder)) ([]byte, error)

// Action is one operation Apply carries to every data site of a file.
type Action struct {
	Op     uint32 // OpRemove, OpTruncate or OpCommit
	FH     fhandle.Handle
	Size   uint64 // OpTruncate: the new length
	Offset uint64 // OpCommit: the range to commit (0 and 0: the whole file)
	Count  uint32
}

// Apply performs a at every site in sites through call, and only when
// every site confirmed does it call complete and report ok. A site that
// did not confirm may still hold the file's data or its unstable writes,
// so the intention covering a must stay pending for the coordinator's
// probe to finish the idempotent operation there (§4.2) — completing
// anyway would orphan the site's blocks. capKey, when set, stamps the
// storage capability into the handle (small-file servers ignore it).
// verf is the XOR of the sites' commit verifiers.
func Apply(call Caller, capKey []byte, a Action, sites []netsim.Addr, complete func()) (verf uint64, ok bool) {
	fh := a.FH
	if len(capKey) > 0 {
		fh = fhandle.WithCapability(capKey, fh)
	}
	ok = true
	for _, site := range sites {
		var err error
		switch a.Op {
		case OpRemove:
			_, err = call(site, storage.ObjProgram, storage.ObjVersion, storage.ObjProcRemove, fh.Encode)
		case OpTruncate:
			_, err = call(site, storage.ObjProgram, storage.ObjVersion, storage.ObjProcTruncate, func(e *xdr.Encoder) {
				fh.Encode(e)
				e.PutUint64(a.Size)
			})
		case OpCommit:
			args := nfsproto.CommitArgs{FH: fh, Offset: a.Offset, Count: a.Count}
			var body []byte
			if body, err = call(site, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcCommit), args.Encode); err == nil {
				var res nfsproto.CommitRes
				if err = res.Decode(xdr.NewDecoder(body)); err == nil {
					err = res.Status.Error()
				}
				if err == nil {
					verf ^= res.Verf
				}
			}
		}
		if err != nil {
			ok = false
		}
	}
	if ok {
		complete()
	}
	return verf, ok
}

// CallIntend logs an intention with the coordinator through call and
// returns its id, or 0 when it was not logged.
func CallIntend(call Caller, op uint32, fh fhandle.Handle, size uint64) uint64 {
	body, err := call(netsim.Addr{}, Program, Version, ProcIntend, func(e *xdr.Encoder) {
		e.PutUint32(op)
		fh.Encode(e)
		e.PutUint64(size)
	})
	if err != nil {
		return 0
	}
	d := xdr.NewDecoder(body)
	if st, err := d.Uint32(); err != nil || nfsproto.Status(st) != nfsproto.OK {
		return 0
	}
	id, err := d.Uint64()
	if err != nil {
		return 0
	}
	return id
}

// CallComplete clears intention id (0: none) through call.
func CallComplete(call Caller, id uint64) {
	if id != 0 {
		_, _ = call(netsim.Addr{}, Program, Version, ProcComplete, func(e *xdr.Encoder) { e.PutUint64(id) })
	}
}

// ---------------------------------------------------------------- serving

// ServeRPC implements oncrpc.Handler, encoding each result straight into
// the reply.
func (c *Coordinator) ServeRPC(call oncrpc.Call, from netsim.Addr, e *xdr.Encoder) uint32 {
	if call.Program != Program {
		return oncrpc.AcceptProgUnavail
	}
	d := xdr.NewDecoder(call.Body)
	switch call.Proc {
	case ProcIntend:
		op, err := d.Uint32()
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		fh, err := fhandle.Decode(d)
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		size, err := d.Uint64()
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		id, err := c.intend(once.IdentOf(&call, from), op, fh, size)
		st := nfsproto.OK
		if err != nil {
			st = nfsproto.ErrIO
		}
		e.PutUint32(uint32(st))
		e.PutUint64(id)

	case ProcComplete:
		// Clearing an intention twice clears nothing the second time: a
		// retransmission simply runs again.
		id, err := d.Uint64()
		if err != nil {
			return oncrpc.AcceptGarbageArgs
		}
		c.Complete(id)
		e.PutUint32(uint32(nfsproto.OK))

	default:
		return oncrpc.AcceptProcUnavail
	}
	return oncrpc.AcceptSuccess
}

// Intend logs a new intention and returns its id. The record is appended
// to the journal under c.mu — keeping journal order identical to id
// order — but the durability sync runs outside the critical section, so
// one slow log sync cannot block every other coordinator RPC. The
// "logged before acknowledged" invariant holds: Intend does not return
// (and the RPC reply is not sent) until Sync says the record is durable,
// and concurrent intentions' syncs coalesce via group commit.
func (c *Coordinator) Intend(op uint32, fh fhandle.Handle, size uint64) (uint64, error) {
	return c.intend(once.Ident{}, op, fh, size)
}

// intend is Intend for the ProcIntend call call (zero: none): a call it
// logged an intention for before gets that intention's id again, and no
// second intention. The call's outcome rides in the intention's record
// and enters the table once the record is durable.
func (c *Coordinator) intend(call once.Ident, op uint32, fh fhandle.Handle, size uint64) (uint64, error) {
	now := time.Now()
	c.mu.Lock()
	if o, ok := c.done.Find(call, now.UnixNano()); ok {
		c.mu.Unlock()
		return o.Value, nil
	}
	id := c.nextID
	in := &intent{ID: id, Op: op, FH: fh, Size: size, Logged: now}
	rec := xdr.NewEncoder(intentLen + once.DoneSize + once.ValueSize)
	in.encode(rec)
	var done *once.Done
	if !call.IsZero() {
		done = &once.Done{Ident: call, Outcome: once.Outcome{Status: uint32(nfsproto.OK), Value: id}, At: now.UnixNano()}
		if err := done.Encode(rec); err != nil {
			c.mu.Unlock()
			return 0, err
		}
	}
	c.nextID++
	c.pending[id] = in
	c.stats.Intentions++
	log := c.cfg.Log
	_, err := log.Append(recIntent, rec.Bytes())
	c.mu.Unlock()
	if err == nil {
		err = log.Sync()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		// Not durable: withdraw the intention rather than acknowledge an
		// operation recovery would never see.
		delete(c.pending, id)
		return 0, err
	}
	if done != nil {
		c.done.Put(*done, now.UnixNano())
	}
	return id, nil
}

// Complete clears an intention after the initiator finished the operation.
func (c *Coordinator) Complete(id uint64) {
	c.clearIntent(id, false)
}

// recoverState replays the log and installs the rebuilt state; it does
// not finish pending operations.
func (c *Coordinator) recoverState(log *wal.Log) error {
	pending := make(map[uint64]*intent)
	var maxID uint64
	now := time.Now()
	err := log.Scan(func(seq uint64, recType uint32, payload []byte) error {
		d := xdr.NewDecoder(payload)
		switch recType {
		case recIntent:
			id, err := d.Uint64()
			if err != nil {
				return err
			}
			op, err := d.Uint32()
			if err != nil {
				return err
			}
			fh, err := fhandle.Decode(d)
			if err != nil {
				return err
			}
			size, err := d.Uint64()
			if err != nil {
				return err
			}
			pending[id] = &intent{ID: id, Op: op, FH: fh, Size: size, Logged: now}
			if id > maxID {
				maxID = id
			}
			if d.Remaining() > 0 {
				return c.replayDone(d, now.UnixNano())
			}
		case recOutcome:
			return c.replayDone(d, now.UnixNano())
		case recComplete:
			id, err := d.Uint64()
			if err != nil {
				return err
			}
			delete(pending, id)
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.cfg.Log = log
	c.pending = pending
	c.nextID = maxID + 1
	c.mu.Unlock()
	return nil
}

// replayDone puts the call outcome a record ends in back in the table,
// unless it has expired by now, when replay began. It runs before the
// coordinator serves.
func (c *Coordinator) replayDone(d *xdr.Decoder, now int64) error {
	done, err := once.DecodeDone(d, Program, Version)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.done.Put(done, now)
	c.mu.Unlock()
	return nil
}

// finishRecovered completes or aborts the operations that were in flight
// when the previous incarnation failed. The finishing actions are
// idempotent, so re-finishing after a second crash is safe. An operation
// whose sites cannot all be reached stays pending — the probe loop keeps
// retrying it once the coordinator is serving.
func (c *Coordinator) finishRecovered() {
	c.mu.Lock()
	pending := make([]*intent, 0, len(c.pending))
	for _, in := range c.pending {
		pending = append(pending, in)
	}
	c.mu.Unlock()
	for _, in := range pending {
		c.finish(in)
	}
}
