// Bulk-I/O engine: a bounded sliding window of chunk RPCs with
// sequential readahead and write-behind.
//
// The serial loops in client.go issue one chunk round trip at a time, so
// aggregate bandwidth is latency-bound and flat no matter how wide the
// storage array is. The windowed engine keeps up to Config.Window chunk
// RPCs in flight at once; because the µproxy stripes consecutive stripe
// units across storage nodes, a full window spreads load over the whole
// array and bandwidth scales with its width (PAPER.md Figures 4–5).
//
// Ordering rules that keep the pipelined path byte-exact with the serial
// one:
//
//   - Unstable writes are write-behind: every chunk a strictly sequential
//     write completes is assembled once, in the buffer it is sent from,
//     and dispatched asynchronously; the sub-chunk remainder waits in a
//     per-client tail buffer (never a full chunk) and is flushed when the
//     stream breaks or a barrier arrives. A write that would overlap a
//     chunk already in flight drains the file first, so two writes to the
//     same range can never race.
//   - Reads, GetAttr, SetAttr, Commit, and stable writes drain the
//     target file's write-behind traffic before issuing; Remove and
//     Rename (which identify files by name, not handle) drain everything.
//   - A failed asynchronous chunk is reported at the next Write, Commit,
//     or drain on the same file (the NFSv3 deferred-error model); the
//     error is sticky until surfaced exactly once.
//   - Readahead caches whole prefetched chunks keyed by offset for a
//     single sequential stream, each still in the reply datagram it
//     arrived in; any write, SetAttr, Remove, or Rename invalidates it,
//     and a read that breaks the sequential pattern resets it.
//
// Buffer ownership across the async boundary: every write-behind chunk —
// the caller's bytes alone, the tail topped up with them, or the flushed
// tail as it stands — is a chunkPool buffer; the worker it is handed to
// owns that buffer exclusively until its WRITE — including any retry,
// which re-encodes the payload — completes, and only then returns it to
// the pool. Callers may therefore reuse their own buffers the moment
// Write returns.
//
// Chunk RPCs run on resident workers (startChunk): a goroutine's stack
// grows inside the µproxy's tap on its first send, and a worker that parks
// between chunks keeps it.
package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"slice/internal/fhandle"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
)

// windowed reports whether the pipelined bulk path is enabled.
func (c *Client) windowed() bool { return c.win != nil }

// acquire takes a window slot, blocking until one is free, and samples
// occupancy.
func (c *Client) acquire() {
	c.win <- struct{}{}
	n := c.occ.Add(1)
	if c.winHist != nil {
		c.winHist.Record(uint64(n))
	}
}

// tryAcquire takes a window slot only if one is free right now. Used by
// readahead so prefetch never delays demand traffic.
func (c *Client) tryAcquire() bool {
	select {
	case c.win <- struct{}{}:
		n := c.occ.Add(1)
		if c.winHist != nil {
			c.winHist.Record(uint64(n))
		}
		return true
	default:
		return false
	}
}

func (c *Client) release() {
	c.occ.Add(-1)
	<-c.win
}

// chunkSpan is one serial-equivalent I/O chunk: [off, end) never crosses
// a stripe-unit or threshold boundary (chunkEnd).
type chunkSpan struct{ off, end uint64 }

// chunkSpans splits [off, off+n) exactly as the serial loops would.
func (c *Client) chunkSpans(off uint64, n int) []chunkSpan {
	end := off + uint64(n)
	var out []chunkSpan
	for cur := off; cur < end; {
		ce := c.chunkEnd(cur)
		if ce > end {
			ce = end
		}
		out = append(out, chunkSpan{cur, ce})
		cur = ce
	}
	return out
}

// chunkRead reads one chunk, continuing on short replies and re-issuing
// once (fresh xid) on timeout — reads are idempotent, so the re-issue
// preserves at-most-once effects while riding out a node restart
// mid-transfer. Returns bytes read and whether the server reported EOF.
func (c *Client) chunkRead(flow uint64, fh fhandle.Handle, off uint64, p []byte) (int, bool, error) {
	got := 0
	for got < len(p) {
		cur := off + uint64(got)
		n, eof, err := c.readInto(flow, fh, cur, p[got:])
		if errors.Is(err, oncrpc.ErrTimedOut) {
			n, eof, err = c.readInto(flow, fh, cur, p[got:])
		}
		if err != nil {
			return got, false, err
		}
		got += n
		if eof || n == 0 {
			return got, true, nil
		}
	}
	return got, false, nil
}

// chunkWrite writes one chunk, continuing on short writes and re-issuing
// once on timeout (WRITE of fixed bytes at a fixed offset is idempotent;
// a data server answers a retransmission of the same xid from its outcome
// table without writing again, so a late one cannot overwrite a newer
// write).
func (c *Client) chunkWrite(flow uint64, fh fhandle.Handle, off uint64, data []byte, stability uint32) error {
	written := 0
	for written < len(data) {
		cur := off + uint64(written)
		args := nfsproto.WriteArgs{
			FH: fh, Offset: cur, Count: uint32(len(data) - written),
			Stable: stability, Data: data[written:],
		}
		res, err := c.writeChunk(flow, &args)
		if errors.Is(err, oncrpc.ErrTimedOut) {
			res, err = c.writeChunk(flow, &args)
		}
		if err != nil {
			return err
		}
		if res.Status != nfsproto.OK {
			return res.Status.Error()
		}
		if res.Count == 0 {
			return fmt.Errorf("client: zero-length write progress at offset %d", cur)
		}
		written += int(res.Count)
	}
	return nil
}

// ---------------------------------------------------------------------
// Windowed read path
// ---------------------------------------------------------------------

// windowedRead serves a read from the readahead cache where possible and
// fans the remainder out across the window, folding chunk results in
// offset order so EOF and short-read handling stay byte-exact with
// serialRead — including the server-reported EOF on a full-buffer read
// that ends exactly at end of file.
func (c *Client) windowedRead(fh fhandle.Handle, off uint64, p []byte) (int, bool, error) {
	id := fh.Ident()
	if c.fileDirty(id) {
		// Reads must observe every write already accepted by Write.
		if err := c.drainFile(fh); err != nil {
			return 0, false, err
		}
	}
	if len(p) == 0 {
		return 0, false, nil
	}
	seq, flow := c.raAdvance(fh, id, off)
	read := 0
	eof := false
	for read < len(p) {
		e := c.raTake(id, off+uint64(read), len(p)-read)
		if e == nil {
			break
		}
		<-e.ready
		if e.err != nil || (len(e.data) < e.want && !e.eof) {
			// Unusable entry (failed, or short without EOF): drop it and
			// fetch those bytes on the demand path below.
			e.rep.Free()
			break
		}
		// The entry's data is copied from the reply datagram it arrived
		// in straight into the caller's buffer.
		n := copy(p[read:], e.data)
		e.rep.Free()
		read += n
		if e.eof || n == 0 {
			eof = true
			break
		}
	}
	if !eof && read < len(p) {
		n, e2, err := c.fanoutRead(flow, fh, off+uint64(read), p[read:])
		read += n
		if err != nil {
			c.raFinish(id, off+uint64(read), false, false)
			return read, false, err
		}
		eof = e2
	}
	c.raFinish(id, off+uint64(read), eof, seq && !eof)
	return read, eof, nil
}

// fanoutRead issues the chunks of [off, off+len(p)) concurrently under
// the window and folds results in chunk order. A chunk that comes back
// short without EOF (or whose later siblings would otherwise be folded in
// misaligned) retreats to the serial loop from the first gap.
func (c *Client) fanoutRead(flow uint64, fh fhandle.Handle, off uint64, p []byte) (int, bool, error) {
	spans := c.chunkSpans(off, len(p))
	if len(spans) == 1 {
		c.acquire()
		t0 := time.Now()
		n, eof, err := c.chunkRead(flow, fh, off, p)
		c.chunkDone(c.readNS, t0)
		return n, eof, err
	}
	results := make([]chunkResult, len(spans))
	var wg sync.WaitGroup
	wg.Add(len(spans))
	for i, s := range spans {
		c.acquire()
		c.startChunk(chunkTask{op: opRead, fh: fh, flow: flow, off: s.off, data: p[s.off-off : s.end-off], res: &results[i], wg: &wg})
	}
	wg.Wait()
	read := 0
	for i, s := range spans {
		r := results[i]
		if r.err != nil {
			return read, false, r.err
		}
		read += r.n
		if r.eof {
			return read, true, nil
		}
		if r.n < int(s.end-s.off) {
			n2, eof2, err2 := c.serialRead(fh, off+uint64(read), p[read:])
			return read + n2, eof2, err2
		}
	}
	return read, false, nil
}

// ---------------------------------------------------------------------
// Windowed write path
// ---------------------------------------------------------------------

// windowedWrite routes stable writes through the window synchronously
// and unstable writes into write-behind. Either way the readahead cache
// for the file is stale the moment bytes change.
func (c *Client) windowedWrite(fh fhandle.Handle, off uint64, p []byte, stable bool) (int, error) {
	id := fh.Ident()
	c.invalidateRA(id)
	if err := c.takeErr(id); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if stable {
		// FILE_SYNC data must not be reordered against buffered or
		// in-flight unstable bytes for the same file.
		if err := c.drainFile(fh); err != nil {
			return 0, err
		}
		return c.fanoutWrite(fh, off, p, nfsproto.FileSync)
	}
	return c.writeBehind(fh, id, off, p)
}

// fanoutWrite writes [off, off+len(p)) through the window and waits for
// every chunk. On error it reports the byte count of the error-free
// prefix, like the serial loop.
func (c *Client) fanoutWrite(fh fhandle.Handle, off uint64, p []byte, stability uint32) (int, error) {
	flow := c.flowKey(fh)
	spans := c.chunkSpans(off, len(p))
	if len(spans) == 1 {
		c.acquire()
		t0 := time.Now()
		err := c.chunkWrite(flow, fh, off, p, stability)
		c.chunkDone(c.writeNS, t0)
		if err != nil {
			return 0, err
		}
		return len(p), nil
	}
	results := make([]chunkResult, len(spans))
	var wg sync.WaitGroup
	wg.Add(len(spans))
	for i, s := range spans {
		c.acquire()
		c.startChunk(chunkTask{op: opWrite, fh: fh, flow: flow, off: s.off, data: p[s.off-off : s.end-off], stability: stability, res: &results[i], wg: &wg})
	}
	wg.Wait()
	written := 0
	for i, s := range spans {
		if results[i].err != nil {
			return written, results[i].err
		}
		written += int(s.end - s.off)
	}
	return written, nil
}

// ---------------------------------------------------------------------
// Chunk workers
// ---------------------------------------------------------------------

// chunkTask is one chunk RPC handed to a worker, which holds the window
// slot its dispatcher took until the RPC completes.
type chunkTask struct {
	op        uint8
	stability uint32 // opWrite
	fh        fhandle.Handle
	flow      uint64 // fh's flow key, computed once per stream
	off       uint64
	data      []byte // opRead: destination; opWrite, opBehind: source

	res *chunkResult    // opRead, opWrite: where the outcome goes,
	wg  *sync.WaitGroup // and who waits for it
	f   *fileIO         // opBehind: the file's in-flight record
	ra  *raEntry        // opPrefetch
}

const (
	opRead     = iota // a fanned-out READ of a caller's buffer
	opWrite           // a fanned-out synchronous WRITE
	opBehind          // a write-behind chunk: pooled data, deferred error
	opPrefetch        // a readahead entry
)

// chunkResult is the outcome of one fanned-out chunk.
type chunkResult struct {
	n   int
	eof bool
	err error
}

// startChunk runs t on a worker. The caller has taken t's window slot, so
// fewer than Window other tasks are running: either a worker is parked (or
// has released its slot and is about to park) and takes t, or fewer than
// Window workers exist and t starts one. The window therefore bounds the
// workers as well as the RPCs, with no pool size of its own. Workers never
// take slots, so they cannot deadlock against their dispatchers.
func (c *Client) startChunk(t chunkTask) {
	select {
	case c.tasks <- t:
		return
	default:
	}
	if int(c.nworkers.Add(1)) <= c.cfg.Window {
		c.workers.Add(1)
		go c.chunkWorker(t)
		return
	}
	c.nworkers.Add(-1)
	select {
	case c.tasks <- t:
	case <-c.done:
		c.runChunk(&t) // closed underneath its caller: fail it here
	}
}

// chunkWorker runs its first task and then whatever is handed to it, on
// the one stack, until Close.
func (c *Client) chunkWorker(t chunkTask) {
	defer c.workers.Done()
	for {
		c.runChunk(&t)
		select {
		case t = <-c.tasks:
		case <-c.done:
			return
		}
	}
}

// runChunk performs t's RPC, releases its window slot and completes it.
func (c *Client) runChunk(t *chunkTask) {
	t0 := time.Now()
	switch t.op {
	case opRead:
		n, eof, err := c.chunkRead(t.flow, t.fh, t.off, t.data)
		c.chunkDone(c.readNS, t0)
		*t.res = chunkResult{n, eof, err}
		t.wg.Done()
	case opWrite:
		err := c.chunkWrite(t.flow, t.fh, t.off, t.data, t.stability)
		c.chunkDone(c.writeNS, t0)
		t.res.err = err
		t.wg.Done()
	case opBehind:
		err := c.chunkWrite(t.flow, t.fh, t.off, t.data, nfsproto.Unstable)
		c.chunkDone(c.writeNS, t0)
		putChunkBuf(t.data)
		c.bulkMu.Lock()
		f := t.f
		f.inflight--
		f.dropSpan(t.off)
		if err != nil && f.err == nil {
			f.err = err
		}
		if f.inflight == 0 {
			if f.err == nil {
				delete(c.files, t.fh.Ident())
			}
			c.bulkCnd.Broadcast()
		}
		c.bulkMu.Unlock()
	case opPrefetch:
		// One READ, kept in the datagram it arrives in. A short reply
		// without EOF is not used: the demand path reads those bytes.
		// Reads are idempotent, so a timed-out one is re-issued once, as
		// chunkRead does.
		e := t.ra
		rep, res, err := c.readReply(t.flow, t.fh, e.off, e.want)
		if errors.Is(err, oncrpc.ErrTimedOut) {
			rep, res, err = c.readReply(t.flow, t.fh, e.off, e.want)
		}
		c.chunkDone(c.readNS, t0)
		e.rep, e.data, e.eof, e.err = rep, res.Data, res.EOF, err
		c.bulkMu.Lock()
		if end := e.off + uint64(len(res.Data)); res.EOF && c.ra.valid && c.ra.gen == e.gen && end < c.ra.eofAt {
			// Before ready closes: a reader that has waited for this
			// entry tops the horizon up against the lowered end of file.
			// A stream reset or invalidated since (a write may have
			// moved the end) learns nothing from it.
			c.ra.eofAt = end
		}
		if e.dropped {
			e.rep.Free()
		}
		close(e.ready) // under bulkMu: see raDropLocked
		c.bulkMu.Unlock()
	}
	*t = chunkTask{} // a parked worker pins no buffer
}

// chunkDone samples a chunk's latency and frees its window slot.
func (c *Client) chunkDone(h *obs.Histogram, t0 time.Time) {
	if h != nil {
		h.RecordSince(t0)
	}
	c.release()
}

// writeTail is the buffered sequential write stream: bytes accepted by
// Write but not yet dispatched. buf[0] is at file offset off.
type writeTail struct {
	id   fhandle.Key
	fh   fhandle.Handle
	flow uint64 // fh's flow key, for every chunk the tail sends
	off  uint64
	buf  []byte
}

func (t *writeTail) end() uint64 { return t.off + uint64(len(t.buf)) }

// fileIO tracks a file's in-flight write-behind chunks and its deferred
// error.
type fileIO struct {
	inflight int
	spans    []span
	err      error
}

type span struct{ off, end uint64 }

func (f *fileIO) dropSpan(off uint64) {
	for i := range f.spans {
		if f.spans[i].off == off {
			f.spans[i] = f.spans[len(f.spans)-1]
			f.spans = f.spans[:len(f.spans)-1]
			return
		}
	}
}

// chunkPool recycles write-behind chunk buffers (≤ one stripe unit). It
// holds *[]byte so a Put boxes no slice header; the pointers themselves
// are recycled through chunkPtrs.
var chunkPool, chunkPtrs sync.Pool

func chunkBuf(n int) []byte {
	if v := chunkPool.Get(); v != nil {
		bp := v.(*[]byte)
		b := *bp
		*bp = nil
		chunkPtrs.Put(bp)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func putChunkBuf(b []byte) {
	bp, _ := chunkPtrs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = b[:0]
	chunkPool.Put(bp)
}

// writeBehind dispatches every chunk that p completes and buffers the
// rest, and returns immediately. Each such chunk is assembled in the
// pooled buffer it is sent from — the tail's own buffer, topped up from
// the head of p, if the tail holds its first bytes, a fresh one otherwise
// — so the client copies each byte once. (Encoding straight from p is not
// possible: Write returns, and the caller may reuse p, before the RPC is
// encoded; a retry re-encodes from the buffer too.) Only the sub-chunk
// remainder of p joins the tail, so the tail never holds a full chunk,
// and its buffer (at least StripeUnit long) always has room for the rest
// of one. Non-sequential bytes flush the old tail first; bytes
// overlapping an in-flight chunk drain the file so conflicting writes are
// never concurrently in flight.
func (c *Client) writeBehind(fh fhandle.Handle, id fhandle.Key, off uint64, p []byte) (int, error) {
	c.flushTail(func(t *writeTail) bool { return t.id != id || t.end() != off })
	if c.overlapsInflight(id, off, off+uint64(len(p))) {
		if err := c.drainFile(fh); err != nil {
			return 0, err
		}
	}
	total := len(p)
	var readyBuf [4]chunkTask // a 64 KiB write completes 2 or 3 chunks
	ready := readyBuf[:0]
	c.bulkMu.Lock()
	if c.tail == nil {
		c.tail = &writeTail{id: id, fh: fh, flow: c.flowKey(fh), off: off}
	}
	t := c.tail
	for {
		n := int(c.chunkEnd(t.off) - t.off)
		if len(t.buf)+len(p) < n {
			break
		}
		var buf []byte
		if k := len(t.buf); k > 0 {
			// Top the tail's own buffer up and send that: its bytes
			// are not copied a second time.
			buf, t.buf = t.buf[:n], nil
			p = p[copy(buf[k:], p):]
		} else {
			buf = chunkBuf(n)
			p = p[copy(buf, p):]
		}
		ready = append(ready, c.registerLocked(t, buf))
		t.off += uint64(n)
	}
	if len(p) > 0 {
		if t.buf == nil {
			t.buf = chunkBuf(int(c.cfg.StripeUnit))[:0]
		}
		t.buf = append(t.buf, p...)
	}
	c.bulkMu.Unlock()
	for i := range ready {
		c.acquire()
		c.startChunk(ready[i])
	}
	return total, nil
}

// flushTail detaches the tail if it matches and dispatches what it holds:
// at most one partial chunk, sent from the tail's own pooled buffer.
func (c *Client) flushTail(match func(*writeTail) bool) {
	c.bulkMu.Lock()
	t := c.tail
	if t == nil || !match(t) {
		c.bulkMu.Unlock()
		return
	}
	c.tail = nil
	if len(t.buf) == 0 { // and then it holds no buffer either
		c.bulkMu.Unlock()
		return
	}
	task := c.registerLocked(t, t.buf)
	c.bulkMu.Unlock()
	c.acquire()
	c.startChunk(task)
}

// registerLocked records data, the bytes at t.off, as a chunk of t's file
// in flight, and returns the task that writes it. Registration happens
// under the same hold of bulkMu that took the bytes out of the tail — and
// before the (possibly blocking) slot acquisition — so a concurrent drain
// always sees the chunk. Caller holds bulkMu.
func (c *Client) registerLocked(t *writeTail, data []byte) chunkTask {
	f := c.files[t.id]
	if f == nil {
		f = &fileIO{}
		c.files[t.id] = f
	}
	f.inflight++
	f.spans = append(f.spans, span{t.off, t.off + uint64(len(data))})
	return chunkTask{op: opBehind, fh: t.fh, flow: t.flow, off: t.off, data: data, f: f}
}

// overlapsInflight reports whether [lo, hi) intersects any chunk
// currently in flight for id.
func (c *Client) overlapsInflight(id fhandle.Key, lo, hi uint64) bool {
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	f := c.files[id]
	if f == nil {
		return false
	}
	for _, s := range f.spans {
		if s.off < hi && lo < s.end {
			return true
		}
	}
	return false
}

// fileDirty reports whether id has buffered or in-flight write-behind
// state (including an unsurfaced deferred error).
func (c *Client) fileDirty(id fhandle.Key) bool {
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	return (c.tail != nil && c.tail.id == id) || c.files[id] != nil
}

// takeErr surfaces (and clears) the file's deferred write error.
func (c *Client) takeErr(id fhandle.Key) error {
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	f := c.files[id]
	if f == nil || f.err == nil {
		return nil
	}
	err := f.err
	f.err = nil
	if f.inflight == 0 {
		delete(c.files, id)
	}
	return err
}

// drainFile flushes the tail (if it belongs to fh) and waits until the
// file has no chunk in flight, returning its deferred error, if any.
// This is the Commit barrier and the write-to-read ordering point.
func (c *Client) drainFile(fh fhandle.Handle) error {
	id := fh.Ident()
	c.flushTail(func(t *writeTail) bool { return t.id == id })
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	for {
		f := c.files[id]
		if f == nil {
			return nil
		}
		if f.inflight == 0 {
			err := f.err
			delete(c.files, id)
			return err
		}
		c.bulkCnd.Wait()
	}
}

// drainAll flushes and waits out every file's write-behind traffic,
// returning the first deferred error found. Used by Close and by
// namespace operations that cannot name their target handle.
func (c *Client) drainAll() error {
	c.flushTail(func(*writeTail) bool { return true })
	c.invalidateRAAll()
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	var first error
	for {
		busy := false
		for id, f := range c.files {
			if f.inflight > 0 {
				busy = true
				continue
			}
			if f.err != nil && first == nil {
				first = f.err
			}
			delete(c.files, id)
		}
		if !busy {
			return first
		}
		c.bulkCnd.Wait()
	}
}

// ---------------------------------------------------------------------
// Sequential readahead
// ---------------------------------------------------------------------

// raState caches prefetched chunks for one sequential read stream.
type raState struct {
	valid    bool
	id       fhandle.Key
	fh       fhandle.Handle
	flow     uint64 // fh's flow key, for every prefetch of the stream
	expected uint64 // offset that would continue the stream
	horizon  uint64 // lowest offset not yet prefetched
	eofAt    uint64 // lowest offset known to be at/past EOF
	gen      uint64 // which stream this is (Client.raGen when it began)
	entries  map[uint64]*raEntry
}

// raEntry is one prefetched chunk, [off, off+want) of the file.
// rep/data/eof/err are written by the worker before ready closes and read
// only after; data aliases rep, the reply datagram, which the read that
// takes the entry frees — or, for an entry the stream drops unread,
// raDropLocked or the worker.
type raEntry struct {
	off     uint64
	want    int
	gen     uint64 // the stream that launched it
	ready   chan struct{}
	dropped bool // under bulkMu: the stream let go of it before it was ready
	rep     oncrpc.Reply
	data    []byte
	eof     bool
	err     error
}

// raAdvance reports whether a read of fh (whose identity is id) at off
// continues the cached stream; if not, the cache resets to start a new
// stream at off. It returns fh's flow key too, computed once per stream.
func (c *Client) raAdvance(fh fhandle.Handle, id fhandle.Key, off uint64) (bool, uint64) {
	if c.cfg.Readahead <= 0 {
		return false, c.flowKey(fh)
	}
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	if c.ra.valid && c.ra.id == id && c.ra.expected == off {
		return true, c.ra.flow
	}
	c.raDropAllLocked()
	c.raGen++
	c.ra = raState{
		valid: true, id: id, fh: fh, flow: c.flowKey(fh), expected: off, horizon: off,
		eofAt: ^uint64(0), gen: c.raGen,
		entries: make(map[uint64]*raEntry),
	}
	return false, c.ra.flow
}

// raDropLocked lets go of an entry the stream will never read. Its reply
// goes back to the pool now if it has arrived, or else when its worker
// delivers it: the worker closes ready under bulkMu, so exactly one of
// the two sees the other. Caller holds bulkMu.
func raDropLocked(e *raEntry) {
	select {
	case <-e.ready:
		e.rep.Free()
	default:
		e.dropped = true
	}
}

// raDropAllLocked drops every entry the stream holds. Caller holds bulkMu.
func (c *Client) raDropAllLocked() {
	for _, e := range c.ra.entries {
		raDropLocked(e)
	}
}

// raTake removes and returns the entry at off if it exists and fits
// within max bytes. An entry larger than the caller's remaining buffer
// stays cached; its bytes are read on the demand path instead, and
// raFinish drops it once the stream has passed it.
func (c *Client) raTake(id fhandle.Key, off uint64, max int) *raEntry {
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	if !c.ra.valid || c.ra.id != id {
		return nil
	}
	e := c.ra.entries[off]
	if e == nil || e.want > max {
		return nil
	}
	delete(c.ra.entries, off)
	return e
}

// raFinish records where the stream now stands and, when the read was
// sequential and did not hit EOF, tops the prefetch horizon up to
// Readahead chunks ahead using only window slots that are free right now.
// Each entry's reply datagram goes back to the fabric's pool when
// windowedRead has consumed the entry, or when the stream drops it unread
// (raDropLocked).
func (c *Client) raFinish(id fhandle.Key, next uint64, eof, prefetch bool) {
	if c.cfg.Readahead <= 0 {
		return
	}
	c.bulkMu.Lock()
	if !c.ra.valid || c.ra.id != id {
		c.bulkMu.Unlock()
		return
	}
	c.ra.expected = next
	if eof && next < c.ra.eofAt {
		c.ra.eofAt = next
	}
	for o, e := range c.ra.entries {
		if o < next {
			delete(c.ra.entries, o)
			raDropLocked(e)
		}
	}
	if c.ra.horizon < next {
		c.ra.horizon = next
	}
	if !prefetch {
		c.bulkMu.Unlock()
		return
	}
	budget := c.cfg.Readahead - len(c.ra.entries)
	fh, flow := c.ra.fh, c.ra.flow
	var started []*raEntry
	for budget > 0 && c.ra.horizon < c.ra.eofAt {
		if !c.tryAcquire() {
			break
		}
		end := c.chunkEnd(c.ra.horizon)
		e := &raEntry{
			off: c.ra.horizon, want: int(end - c.ra.horizon), gen: c.ra.gen,
			ready: make(chan struct{}),
		}
		c.ra.entries[e.off] = e
		c.ra.horizon = end
		started = append(started, e)
		budget--
	}
	c.bulkMu.Unlock()
	for _, e := range started {
		c.startChunk(chunkTask{op: opPrefetch, fh: fh, flow: flow, ra: e})
	}
}

// invalidateRA drops the readahead cache if it belongs to id.
func (c *Client) invalidateRA(id fhandle.Key) {
	c.bulkMu.Lock()
	if c.ra.valid && c.ra.id == id {
		c.raDropAllLocked()
		c.ra = raState{}
	}
	c.bulkMu.Unlock()
}

// invalidateRAAll drops the readahead cache unconditionally.
func (c *Client) invalidateRAAll() {
	c.bulkMu.Lock()
	c.raDropAllLocked()
	c.ra = raState{}
	c.bulkMu.Unlock()
}
