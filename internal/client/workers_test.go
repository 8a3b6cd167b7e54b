package client

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

// Tests that need the engine's internals: the chunk workers, the tail
// invariant, and the readahead horizon at end of file. They run against a
// scripted NFS server that records every READ and WRITE it receives.

type ioRec struct {
	file  uint64
	off   uint64
	count uint32
}

// fakeNFS serves READ, WRITE and COMMIT over in-memory files and logs the
// (file, offset, count) of each READ and WRITE in arrival order. onWrite,
// if set, runs before a WRITE is applied and may block.
type fakeNFS struct {
	srv     *oncrpc.Server
	onWrite func()

	mu     sync.Mutex
	files  map[uint64][]byte
	writes []ioRec
	reads  []ioRec
}

func newFakeNFS(t *testing.T, net *netsim.Network) *fakeNFS {
	t.Helper()
	port, err := net.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeNFS{files: make(map[uint64][]byte)}
	f.srv = oncrpc.NewServer(port, oncrpc.HandlerFunc(f.serve))
	return f
}

func (f *fakeNFS) serve(call oncrpc.Call, _ netsim.Addr) (func(*xdr.Encoder), uint32) {
	d := xdr.NewDecoder(call.Body)
	switch nfsproto.Proc(call.Proc) {
	case nfsproto.ProcWrite:
		var a nfsproto.WriteArgs
		if a.Decode(d) != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		if f.onWrite != nil {
			f.onWrite()
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		f.writes = append(f.writes, ioRec{a.FH.FileID, a.Offset, a.Count})
		data := f.files[a.FH.FileID]
		if end := int(a.Offset) + len(a.Data); end > len(data) {
			data = append(data, make([]byte, end-len(data))...)
		}
		copy(data[a.Offset:], a.Data)
		f.files[a.FH.FileID] = data
		return (&nfsproto.WriteRes{Status: nfsproto.OK, Count: a.Count, Committed: a.Stable, Verf: 1}).Encode, oncrpc.AcceptSuccess
	case nfsproto.ProcRead:
		var a nfsproto.ReadArgs
		if a.Decode(d) != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		f.reads = append(f.reads, ioRec{a.FH.FileID, a.Offset, a.Count})
		data := f.files[a.FH.FileID]
		lo, hi := int(a.Offset), int(a.Offset)+int(a.Count)
		if lo > len(data) {
			lo = len(data)
		}
		if hi > len(data) {
			hi = len(data)
		}
		out := append([]byte(nil), data[lo:hi]...)
		return (&nfsproto.ReadRes{Status: nfsproto.OK, Count: uint32(len(out)), EOF: hi == len(data), Data: out}).Encode, oncrpc.AcceptSuccess
	case nfsproto.ProcCommit:
		return (&nfsproto.CommitRes{Status: nfsproto.OK, Verf: 1}).Encode, oncrpc.AcceptSuccess
	}
	return nil, oncrpc.AcceptProcUnavail
}

func (f *fakeNFS) file(id uint64) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.files[id]...)
}

// writesTo returns the WRITEs file id received, sorted by offset: chunks in
// flight together arrive in no fixed order.
func (f *fakeNFS) writesTo(id uint64) []ioRec {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []ioRec
	for _, w := range f.writes {
		if w.file == id {
			out = append(out, w)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].off < out[j].off })
	return out
}

// No call below may be decided by a retransmission; the timeout only
// bounds a failing run.
var patientRPC = oncrpc.ClientConfig{Timeout: time.Minute, Retries: 1}

func newFakeClient(t *testing.T, net *netsim.Network, f *fakeNFS, cfg Config) *Client {
	t.Helper()
	cfg.Net, cfg.Host, cfg.Server, cfg.RPC = net, 100, f.srv.Addr(), patientRPC
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func regularFH(id uint64) fhandle.Handle {
	return fhandle.Handle{Volume: 1, FileID: id, Type: 1, CellKey: id, Gen: 1}
}

const testChunk = 32 * 1024 // the default stripe unit and block size

// TestChunkWorkersBoundedByWindow: with every WRITE held at the server,
// Window+3 chunks written from one goroutine put exactly Window calls in
// flight on at most Window workers; released, all of them complete on
// those same workers; and Close — twice — leaves no goroutine behind.
func TestChunkWorkersBoundedByWindow(t *testing.T) {
	const window = 4
	before := runtime.NumGoroutine()

	net := netsim.New(netsim.Config{})
	srv := newFakeNFS(t, net)
	entered := make(chan struct{}, window+3)
	release := make(chan struct{})
	srv.onWrite = func() {
		entered <- struct{}{}
		<-release
	}
	c := newFakeClient(t, net, srv, Config{Window: window})
	if n := c.nworkers.Load(); n != 0 {
		t.Fatalf("%d workers before any bulk I/O", n)
	}

	fh := regularFH(7)
	data := bytes.Repeat([]byte{9}, (window+3)*testChunk)
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Write(fh, 2*testChunk, data, false) // blocks at chunk window+1
		wrote <- err
	}()
	for i := 0; i < window; i++ {
		<-entered
	}
	// The window is full, so the dispatcher is parked in acquire and
	// nothing more can reach the server until a slot frees.
	select {
	case <-entered:
		t.Fatalf("more than %d WRITEs in flight", window)
	default:
	}
	if occ := c.occ.Load(); occ != window {
		t.Fatalf("window occupancy %d with every WRITE held, want %d", occ, window)
	}
	if n := c.nworkers.Load(); n != window {
		t.Fatalf("%d workers behind a full window of %d", n, window)
	}

	close(release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(fh); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.writesTo(7)); got != window+3 {
		t.Fatalf("server received %d WRITEs, want %d", got, window+3)
	}
	if n := c.nworkers.Load(); n != window {
		t.Fatalf("%d workers after %d chunks through a window of %d: a chunk started its own", n, window+3, window)
	}
	if got := srv.file(7); !bytes.Equal(got[2*testChunk:], data) {
		t.Fatal("server holds different bytes")
	}

	c.Close() // waits for every worker
	c.Close()
	srv.srv.Close()
	// The runtime may take a moment to retire the goroutines whose last
	// deferred call has run (and the client's receive loop, which nothing
	// waits for).
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the client started, %d after it closed", before, runtime.NumGoroutine())
		}
	}
}

// carveModel restates the write-behind this engine replaced — append to
// the tail, carve full chunks off its head, flush the partial rest when
// the stream breaks — over lengths only, as the reference for which WRITEs
// a sequence of Write calls must produce.
type carveModel struct {
	c      *Client // for chunkEnd
	file   uint64
	active bool
	off    uint64
	n      int
	out    []ioRec
}

func (m *carveModel) flush() {
	for m.n > 0 {
		k := int(m.c.chunkEnd(m.off) - m.off)
		if k > m.n {
			k = m.n
		}
		m.out = append(m.out, ioRec{m.file, m.off, uint32(k)})
		m.off += uint64(k)
		m.n -= k
	}
	m.active = false
}

func (m *carveModel) write(off uint64, n int) {
	if m.active && m.off+uint64(m.n) != off {
		m.flush()
	}
	if !m.active {
		m.active, m.off, m.n = true, off, 0
	}
	m.n += n
	for {
		k := int(m.c.chunkEnd(m.off) - m.off)
		if m.n < k {
			return
		}
		m.out = append(m.out, ioRec{m.file, m.off, uint32(k)})
		m.off += uint64(k)
		m.n -= k
	}
}

// TestWriteBehindMatchesCarve: over random write sizes and offsets, the
// windowed client leaves the same bytes on the server as the serial one,
// sends exactly the WRITEs the old append-carve-shift would have, and
// never lets the tail reach a full chunk.
func TestWriteBehindMatchesCarve(t *testing.T) {
	net := netsim.New(netsim.Config{})
	srv := newFakeNFS(t, net)
	defer srv.srv.Close()
	w := newFakeClient(t, net, srv, Config{Window: 4})
	defer w.Close()
	serial := newFakeClient(t, net, srv, Config{Window: 1})
	defer serial.Close()

	const threshold = 64 * 1024 // route.DefaultThreshold
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		rng := rand.New(rand.NewSource(seed))
		fileW, fileS := uint64(2*seed), uint64(2*seed+1)
		fhW, fhS := regularFH(fileW), regularFH(fileS)
		model := &carveModel{c: w, file: fileW}
		var off, high uint64
		for i := 0; i < 60; i++ {
			// A write into a range still in flight drains the file, tail
			// included, and whether it is still in flight is a matter of
			// timing; so a jump that may land on written bytes follows a
			// Flush, and only a jump past them all breaks the stream cold.
			jump := rng.Intn(10)
			if jump < 3 {
				if err := w.Flush(fhW); err != nil {
					t.Fatal(err)
				}
				model.flush()
			}
			switch jump {
			case 0: // a chunk-aligned offset
				off = uint64(rng.Intn(24)) * testChunk
			case 1: // anywhere
				off = uint64(rng.Intn(24 * testChunk))
			case 2: // just below the threshold, to straddle it
				off = threshold - uint64(rng.Intn(4096)) - 1
			case 3: // past everything written so far
				off = high + uint64(rng.Intn(2*testChunk))
			} // otherwise: carry on where the last write ended
			var n int
			switch rng.Intn(4) {
			case 0:
				n = 1 + rng.Intn(64)
			case 1:
				n = 1 + rng.Intn(200*1024)
			case 2:
				n = 64 * 1024
			default:
				n = 1 + rng.Intn(testChunk)
			}
			p := make([]byte, n)
			rng.Read(p)
			if _, err := w.Write(fhW, off, p, false); err != nil {
				t.Fatalf("seed %d write %d: %v", seed, i, err)
			}
			if _, err := serial.Write(fhS, off, p, false); err != nil {
				t.Fatalf("seed %d serial write %d: %v", seed, i, err)
			}
			model.write(off, n)
			w.bulkMu.Lock()
			tail := w.tail
			held, room := len(tail.buf), int(w.chunkEnd(tail.off)-tail.off)
			w.bulkMu.Unlock()
			if held >= room {
				t.Fatalf("seed %d write %d (off %d, %d B): tail holds %d B at offset %d, a full chunk is %d",
					seed, i, off, n, held, tail.off, room)
			}
			if off%testChunk == 0 && n == 64*1024 && off >= threshold && held != 0 {
				t.Fatalf("seed %d write %d: an aligned 64 KiB write left %d B in the tail", seed, i, held)
			}
			off += uint64(n)
			if off > high {
				high = off
			}
		}
		if err := w.Flush(fhW); err != nil {
			t.Fatal(err)
		}
		model.flush()
		if got, want := srv.file(fileW), srv.file(fileS); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: windowed client left %d bytes, serial %d, and they differ", seed, len(got), len(want))
		}
		got := srv.writesTo(fileW)
		want := model.out
		sort.SliceStable(want, func(i, j int) bool { return want[i].off < want[j].off })
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d WRITEs, the carve sends %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: WRITE %d is (off %d, count %d), the carve sends (off %d, count %d)",
					seed, i, got[i].off, got[i].count, want[i].off, want[i].count)
			}
		}
	}
}

// TestReadaheadStopsAtEOF: once a prefetch has found the end of the file,
// the horizon stops there — a sequential scan of a file ending mid-chunk
// sends no READ for the chunk after the last one.
func TestReadaheadStopsAtEOF(t *testing.T) {
	net := netsim.New(netsim.Config{})
	srv := newFakeNFS(t, net)
	defer srv.srv.Close()
	c := newFakeClient(t, net, srv, Config{Window: 4, Readahead: 2})
	defer c.Close()

	const last = 5 // the file ends inside chunk 5
	data := make([]byte, last*testChunk+100)
	rand.New(rand.NewSource(1)).Read(data)
	srv.files[3] = data
	fh := regularFH(3)

	buf := make([]byte, testChunk)
	for chunk := 0; ; chunk++ {
		if chunk == last-1 {
			// Reading chunk 4 tops the horizon up past chunk 5, whose
			// prefetch the read of chunk 3 launched. Let that prefetch
			// finish first, so what it learned is there to be used.
			c.bulkMu.Lock()
			e := c.ra.entries[last*testChunk]
			c.bulkMu.Unlock()
			if e == nil {
				t.Fatalf("chunk %d was not prefetched by the time chunk %d is read", last, chunk)
			}
			<-e.ready
		}
		n, eof, err := c.Read(fh, uint64(chunk*testChunk), buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:n], data[chunk*testChunk:chunk*testChunk+n]) {
			t.Fatalf("chunk %d reads wrong bytes", chunk)
		}
		if eof {
			if chunk != last || n != 100 {
				t.Fatalf("EOF at chunk %d after %d bytes, want chunk %d after 100", chunk, n, last)
			}
			break
		}
	}
	c.Close() // every prefetch launched has reached the server and returned
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, r := range srv.reads {
		if r.off >= (last+1)*testChunk {
			t.Fatalf("READ at offset %d, past the chunk that holds end of file (%d bytes)", r.off, len(data))
		}
	}
}

// TestReadaheadKeepsReply: a prefetched chunk is held in the reply
// datagram it arrived in, not copied out of it.
func TestReadaheadKeepsReply(t *testing.T) {
	net := netsim.New(netsim.Config{})
	srv := newFakeNFS(t, net)
	defer srv.srv.Close()
	srv.files[5] = bytes.Repeat([]byte{3}, 4*testChunk)
	c := newFakeClient(t, net, srv, Config{Window: 4, Readahead: 1})
	defer c.Close()
	fh := regularFH(5)

	// Slices of one buffer that run to its end share their last element.
	last := func(b []byte) *byte { return &b[:cap(b)][cap(b)-1] }
	entry := func(off uint64) *raEntry {
		c.bulkMu.Lock()
		e := c.ra.entries[off]
		c.bulkMu.Unlock()
		if e == nil {
			t.Fatalf("no readahead entry at offset %d", off)
		}
		<-e.ready
		return e
	}
	buf := make([]byte, testChunk)
	for _, off := range []uint64{0, testChunk} { // a stream, then its first sequential read
		if _, _, err := c.Read(fh, off, buf); err != nil {
			t.Fatal(err)
		}
	}
	e := entry(2 * testChunk)
	if len(e.data) != testChunk || last(e.data) != last(e.rep.Body) {
		t.Fatal("the prefetched chunk is not held in its reply")
	}
}

// TestReadaheadReturnsDroppedReplies: the reply datagrams of entries a
// stream lets go of unread — whether they have arrived or are still in
// flight — go back to the fabric's pool, not to the collector: once the
// client and server are closed, every pooled buffer taken has been
// returned.
func TestReadaheadReturnsDroppedReplies(t *testing.T) {
	net := netsim.New(netsim.Config{})
	srv := newFakeNFS(t, net)
	srv.files[6] = bytes.Repeat([]byte{8}, 16*testChunk)
	before := netsim.PoolStats()
	c := newFakeClient(t, net, srv, Config{Window: 8, Readahead: 6})
	fh := regularFH(6)
	buf := make([]byte, testChunk)
	for _, off := range []uint64{0, testChunk, 9 * testChunk, 10 * testChunk} {
		// The third read breaks the stream, dropping what the second
		// prefetched; Close drops what the fourth did.
		if _, _, err := c.Read(fh, off, buf); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	srv.srv.Close()
	after := netsim.PoolStats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Fatalf("%d pooled buffers taken, %d returned", gets, puts)
	}
}
