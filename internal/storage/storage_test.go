package storage

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/replica"
	"slice/internal/xdr"
)

func TestWriteReadRoundTrip(t *testing.T) {
	s := NewObjectStore()
	data := []byte("hello object storage")
	if err := s.WriteAt(1, 0, data, true); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	n, eof, err := s.ReadAt(1, 0, buf)
	if err != nil || n != len(data) || !eof {
		t.Fatalf("read: n=%d eof=%v err=%v", n, eof, err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("content mismatch")
	}
}

func TestSparseHolesReadZero(t *testing.T) {
	s := NewObjectStore()
	// Write one block far into the object.
	if err := s.WriteAt(1, 5*BlockSize, []byte("tail"), true); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, _, err := s.ReadAt(1, BlockSize, buf)
	if err != nil || n != 64 {
		t.Fatalf("hole read: n=%d err=%v", n, err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("hole byte %d = %d, want 0", i, b)
		}
	}
	if size, ok := s.Size(1); !ok || size != 5*BlockSize+4 {
		t.Fatalf("size = %d, want %d", size, 5*BlockSize+4)
	}
}

func TestReadPastEOF(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, []byte("xy"), true)
	buf := make([]byte, 8)
	n, eof, err := s.ReadAt(1, 100, buf)
	if err != nil || n != 0 || !eof {
		t.Fatalf("past-EOF read: n=%d eof=%v err=%v", n, eof, err)
	}
}

func TestReadMissingObject(t *testing.T) {
	s := NewObjectStore()
	if _, _, err := s.ReadAt(42, 0, make([]byte, 4)); err == nil {
		t.Fatal("read of missing object succeeded")
	}
}

func TestCrashDropsUncommitted(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, bytes.Repeat([]byte("d"), BlockSize), false)
	s.Commit(1)
	_ = s.WriteAt(1, BlockSize, bytes.Repeat([]byte("v"), BlockSize), false)
	v1 := s.Verifier()
	s.Crash()
	if s.Verifier() == v1 {
		t.Fatal("verifier unchanged across crash")
	}
	size, ok := s.Size(1)
	if !ok || size != BlockSize {
		t.Fatalf("size after crash = %d, want %d (committed prefix only)", size, BlockSize)
	}
	buf := make([]byte, BlockSize)
	n, _, err := s.ReadAt(1, 0, buf)
	if err != nil || n != BlockSize || buf[0] != 'd' {
		t.Fatalf("committed data lost: n=%d err=%v", n, err)
	}
}

func TestStableWriteSurvivesCrash(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, []byte("stable!!"), true)
	s.Crash()
	buf := make([]byte, 8)
	n, _, err := s.ReadAt(1, 0, buf)
	if err != nil || n == 0 {
		t.Fatalf("stable write lost in crash: n=%d err=%v", n, err)
	}
}

// TestCommitVisitsOnlyUnstableBlocks: a COMMIT costs the blocks written
// unstably since the last one, not the blocks the object holds — a
// small-file server's fragment object holds thousands, and the commit
// runs under the store-wide mutex. The count is of blocks visited,
// not of time.
func TestCommitVisitsOnlyUnstableBlocks(t *testing.T) {
	s := NewObjectStore()
	const blocks = 4096
	if err := s.WriteAt(1, 0, make([]byte, blocks*BlockSize), false); err != nil {
		t.Fatal(err)
	}
	s.Commit(1)
	if got := s.Stats().BlocksCommitted; got != blocks {
		t.Fatalf("first commit visited %d blocks, want all %d", got, blocks)
	}
	// One dirty write, twice over, spanning two blocks; and a stable one,
	// which needs no commit.
	for i := 0; i < 2; i++ {
		if err := s.WriteAt(1, 100*BlockSize-10, []byte("twenty bytes of data"), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteAt(1, 200*BlockSize, []byte("stable"), true); err != nil {
		t.Fatal(err)
	}
	s.Commit(1)
	if got := s.Stats().BlocksCommitted - blocks; got != 2 {
		t.Fatalf("commit after one two-block write into a %d-block object visited %d blocks, want 2", blocks, got)
	}
	s.CommitAll()
	if got := s.Stats().BlocksCommitted - blocks; got != 2 {
		t.Fatalf("a commit with nothing unstable visited %d blocks", got-2)
	}
	// The writes are durable all the same.
	s.Crash()
	buf := make([]byte, 20)
	if _, _, err := s.ReadAt(1, 100*BlockSize-10, buf); err != nil || string(buf) != "twenty bytes of data" {
		t.Fatalf("after commit and crash: %q, %v", buf, err)
	}
	if size, _ := s.Size(1); size != blocks*BlockSize {
		t.Fatalf("size %d after commit and crash, want %d", size, blocks*BlockSize)
	}
}

// TestStableOverwriteOfQueuedBlockThenCrash: a block written unstably,
// then stably, then crashed over is durable and off the unstable list —
// and must come off it unmarked, or its next unstable write is never
// queued and no commit ever reaches it.
func TestStableOverwriteOfQueuedBlockThenCrash(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, []byte("unstable"), false)
	_ = s.WriteAt(1, 0, []byte("stable!!"), true)
	s.Crash()
	_ = s.WriteAt(1, 0, []byte("again..."), false)
	s.Commit(1)
	s.Crash()
	buf := make([]byte, 8)
	if n, _, err := s.ReadAt(1, 0, buf); err != nil || string(buf[:n]) != "again..." {
		t.Fatalf("read %q, %v: the committed rewrite was lost", buf[:n], err)
	}
}

func TestTruncateShrinkAndZero(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, bytes.Repeat([]byte{0xFF}, 2*BlockSize), true)
	if err := s.Truncate(1, 100); err != nil {
		t.Fatal(err)
	}
	if size, _ := s.Size(1); size != 100 {
		t.Fatalf("size = %d", size)
	}
	// Growing back must expose zeros, not stale bytes.
	_ = s.Truncate(1, 200)
	buf := make([]byte, 100)
	_, _, _ = s.ReadAt(1, 100, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("stale byte %d = %x after shrink+grow", i, b)
		}
	}
}

func TestRemoveIdempotent(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, []byte("x"), true)
	s.Remove(1)
	s.Remove(1) // must not panic or error
	if _, ok := s.Size(1); ok {
		t.Fatal("object still present after remove")
	}
}

// TestWriteReadProperty: arbitrary writes at arbitrary offsets read back.
func TestWriteReadProperty(t *testing.T) {
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		s := NewObjectStore()
		if err := s.WriteAt(7, int64(off), data, true); err != nil {
			return false
		}
		buf := make([]byte, len(data))
		n, _, err := s.ReadAt(7, int64(off), buf)
		return err == nil && n == len(data) && bytes.Equal(buf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlappingWrites(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, bytes.Repeat([]byte("a"), 100), true)
	_ = s.WriteAt(1, 50, bytes.Repeat([]byte("b"), 100), true)
	buf := make([]byte, 150)
	n, _, _ := s.ReadAt(1, 0, buf)
	if n != 150 {
		t.Fatalf("n = %d", n)
	}
	if buf[49] != 'a' || buf[50] != 'b' || buf[149] != 'b' {
		t.Fatalf("overlap wrong: %c %c %c", buf[49], buf[50], buf[149])
	}
}

func TestPrefetchDetection(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, make([]byte, 4*BlockSize), true)
	buf := make([]byte, BlockSize)
	for off := int64(0); off < 4*BlockSize; off += BlockSize {
		_, _, _ = s.ReadAt(1, off, buf)
	}
	if st := s.Stats(); st.PrefetchStarts < 3 {
		t.Fatalf("sequential stream not detected: %d prefetch starts", st.PrefetchStarts)
	}
}

// ---------------------------------------------------------- RPC node

func newNode(t *testing.T) (*Node, *oncrpc.Client) {
	t.Helper()
	n := netsim.New(netsim.Config{})
	sp, err := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(sp, NewObjectStore())
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	cli := oncrpc.NewClient(cp, node.Addr(), oncrpc.ClientConfig{Timeout: 100 * time.Millisecond})
	t.Cleanup(func() { cli.Close(); node.Close() })
	return node, cli
}

func testFH(id uint64) fhandle.Handle {
	return fhandle.Handle{Volume: 1, FileID: id, Type: 1, Gen: 1}
}

func TestNodeWriteReadCommitRPC(t *testing.T) {
	_, cli := newNode(t)
	fh := testFH(5)

	wargs := nfsproto.WriteArgs{FH: fh, Offset: 0, Count: 5, Stable: nfsproto.Unstable, Data: []byte("12345")}
	body, err := cli.Call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcWrite), wargs.Encode)
	if err != nil {
		t.Fatal(err)
	}
	var wres nfsproto.WriteRes
	if err := wres.Decode(xdr.NewDecoder(body)); err != nil {
		t.Fatal(err)
	}
	if wres.Status != nfsproto.OK || wres.Count != 5 || wres.Committed != nfsproto.Unstable {
		t.Fatalf("write res %+v", wres)
	}
	if wres.Attr.Present {
		t.Fatal("storage node must not fabricate attributes; the µproxy patches them")
	}

	cargs := nfsproto.CommitArgs{FH: fh}
	body, err = cli.Call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcCommit), cargs.Encode)
	if err != nil {
		t.Fatal(err)
	}
	var cres nfsproto.CommitRes
	_ = cres.Decode(xdr.NewDecoder(body))
	if cres.Status != nfsproto.OK || cres.Verf == 0 {
		t.Fatalf("commit res %+v", cres)
	}

	rargs := nfsproto.ReadArgs{FH: fh, Offset: 0, Count: 5}
	body, err = cli.Call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcRead), rargs.Encode)
	if err != nil {
		t.Fatal(err)
	}
	var rres nfsproto.ReadRes
	_ = rres.Decode(xdr.NewDecoder(body))
	if rres.Status != nfsproto.OK || string(rres.Data) != "12345" || rres.Count != 5 || !rres.EOF {
		t.Fatalf("read res %+v", rres)
	}
	// READ replies carry the node's local view of the object as a
	// placeholder attribute block, in the fixed place the µproxy patches.
	if a := rres.Attr.Attr; !rres.Attr.Present || a.Size != 5 || a.FileID != fh.FileID || a.Used != BlockSize {
		t.Fatalf("read placeholder attributes %+v", rres.Attr)
	}
	if count, end, ok := nfsproto.PeekReadRes(body); !ok || count != 5 || end != len(body) {
		t.Fatalf("PeekReadRes = %d %d %v", count, end, ok)
	}

	// A short read inside the object, and a read of an object that was
	// never written: a hole, same reply shape, no data.
	rargs = nfsproto.ReadArgs{FH: fh, Offset: 1, Count: 3}
	body, _ = cli.Call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcRead), rargs.Encode)
	rres = nfsproto.ReadRes{}
	if err := rres.Decode(xdr.NewDecoder(body)); err != nil || string(rres.Data) != "234" || rres.EOF {
		t.Fatalf("partial read %+v, %v", rres, err)
	}
	rargs = nfsproto.ReadArgs{FH: testFH(6), Offset: 0, Count: 1 << 20}
	body, _ = cli.Call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcRead), rargs.Encode)
	rres = nfsproto.ReadRes{}
	if err := rres.Decode(xdr.NewDecoder(body)); err != nil || rres.Status != nfsproto.OK ||
		rres.Count != 0 || !rres.EOF || len(rres.Data) != 0 || !rres.Attr.Present {
		t.Fatalf("read of a missing object %+v, %v", rres, err)
	}
	if _, _, ok := nfsproto.PeekReadRes(body); !ok {
		t.Fatal("missing-object reply lacks the patchable layout")
	}
}

func TestNodeObjProgramRPC(t *testing.T) {
	node, cli := newNode(t)
	fh := testFH(9)
	if err := node.Store().WriteAt(ObjectOf(fh), 0, []byte("to be removed"), true); err != nil {
		t.Fatal(err)
	}

	if size, ok := node.Store().Size(ObjectOf(fh)); !ok || size != 13 {
		t.Fatalf("size before RPC truncate = %d, %v", size, ok)
	}

	// Truncate.
	_, err := cli.Call(ObjProgram, ObjVersion, ObjProcTruncate, func(e *xdr.Encoder) {
		fh.Encode(e)
		e.PutUint64(4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if size, _ := node.Store().Size(ObjectOf(fh)); size != 4 {
		t.Fatalf("size after RPC truncate = %d", size)
	}

	// Remove.
	_, err = cli.Call(ObjProgram, ObjVersion, ObjProcRemove, func(e *xdr.Encoder) { fh.Encode(e) })
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := node.Store().Size(ObjectOf(fh)); ok {
		t.Fatal("object survived RPC remove")
	}
}

// TestPeerReadRPC: the peer program's chunk read answers with the
// object's bytes in the shape the rebalance driver decodes — capped at PeerChunk, short at the end of the
// object, empty past it, padded — and PeerNoObj for a missing object.
func TestPeerReadRPC(t *testing.T) {
	node, cli := newNode(t)
	data := make([]byte, replica.PeerChunk+101)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	id := ObjectOf(testFH(11))
	if err := node.Store().WriteAt(id, 0, data, true); err != nil {
		t.Fatal(err)
	}
	read := func(id ObjectID, off uint64, n uint32) (uint32, []byte) {
		t.Helper()
		body, err := cli.Call(replica.PeerProgram, replica.PeerVersion, replica.PeerProcRead, func(e *xdr.Encoder) {
			e.PutUint64(0) // the bearer token: this node requires none
			e.PutUint64(uint64(id))
			e.PutUint64(off)
			e.PutUint32(n)
		})
		if err != nil {
			t.Fatal(err)
		}
		d := xdr.NewDecoder(body)
		status, err := d.Uint32()
		if err != nil || status != replica.PeerOK {
			return status, nil
		}
		p, err := d.Opaque()
		if err != nil || d.Remaining() != 0 {
			t.Fatalf("read at %d: %v, %d bytes after the data", off, err, d.Remaining())
		}
		return status, p
	}
	for _, c := range []struct {
		off  uint64
		n    uint32
		want []byte
	}{
		{0, replica.PeerChunk + 50, data[:replica.PeerChunk]},
		{replica.PeerChunk, 1000, data[replica.PeerChunk:]},
		{uint64(len(data)) + 10, 10, nil},
	} {
		if status, got := read(id, c.off, c.n); status != replica.PeerOK || !bytes.Equal(got, c.want) {
			t.Fatalf("read (off %d, count %d): status %d, %d bytes, want %d", c.off, c.n, status, len(got), len(c.want))
		}
	}
	if status, _ := read(ObjectOf(testFH(12)), 0, 10); status != replica.PeerNoObj {
		t.Fatalf("read of a missing object: status %d", status)
	}
}

func TestObjectOfIgnoresHints(t *testing.T) {
	a := testFH(3)
	b := a
	b.Site = 9
	b.CellKey = 0xC0FFEE // where the µproxy stamps the capability
	if ObjectOf(a) != ObjectOf(b) {
		t.Fatal("routing fields changed the backing object identity")
	}
}

// TestRecycledBlockReadsZero: a block taken from the free list still holds
// its previous owner's bytes, and a write that covers only part of it must
// leave the rest reading as zeros — before the written byte, after it, and
// past the end of the object once it grows.
func TestRecycledBlockReadsZero(t *testing.T) {
	s := NewObjectStore()
	if err := s.WriteAt(1, 0, bytes.Repeat([]byte{0xFF}, 4*BlockSize), false); err != nil {
		t.Fatal(err)
	}
	s.Remove(1)
	if len(s.free) != 4 {
		t.Fatalf("free list holds %d blocks after removing a 4-block object", len(s.free))
	}
	// One byte in block 0, one in block 2 (block 1 stays a hole).
	for _, off := range []int64{5, 2*BlockSize + 100} {
		if err := s.WriteAt(2, off, []byte{0xAB}, false); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.free) != 2 {
		t.Fatalf("free list holds %d blocks after two one-block writes, want 2", len(s.free))
	}
	if err := s.Truncate(2, 3*BlockSize); err != nil { // grow: expose each block's tail
		t.Fatal(err)
	}
	got := make([]byte, 3*BlockSize)
	if n, _, err := s.ReadAt(2, 0, got); err != nil || n != len(got) {
		t.Fatalf("read %d, %v", n, err)
	}
	want := make([]byte, 3*BlockSize)
	want[5], want[2*BlockSize+100] = 0xAB, 0xAB
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("byte %d reads %#x, want %#x: a recycled block leaked its old contents", i, got[i], want[i])
			}
		}
	}
}

// TestTruncatedQueuedBlockNotRecycled: a block Truncate drops while it is
// still on its object's unstable list must not reach another object — the
// first object's next commit would make the second object's uncommitted
// data durable.
func TestTruncatedQueuedBlockNotRecycled(t *testing.T) {
	s := NewObjectStore()
	if err := s.WriteAt(1, 0, make([]byte, 2*BlockSize), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(1, BlockSize); err != nil { // drops block 1, still queued
		t.Fatal(err)
	}
	if err := s.WriteAt(2, 0, bytes.Repeat([]byte{7}, BlockSize), false); err != nil {
		t.Fatal(err)
	}
	s.Commit(1)
	s.Crash()
	if size, _ := s.Size(2); size != 0 {
		t.Fatalf("object 2 kept %d uncommitted bytes across a crash: committing object 1 made its block durable", size)
	}
	if size, _ := s.Size(1); size != BlockSize {
		t.Fatalf("object 1 is %d bytes after commit and crash, want %d", size, BlockSize)
	}
}

// TestChurnAllocatesNoBlocks: once the free list is warm, writing a region
// and dropping it again allocates no block. With the object kept (stable
// writes, shrink to nothing) the cycle allocates nothing at all; with the
// object removed it allocates the object record, its map and its unstable
// list — a few small objects, never block data.
func TestChurnAllocatesNoBlocks(t *testing.T) {
	s := NewObjectStore()
	p := bytes.Repeat([]byte{3}, 32*1024)
	kept := func() {
		if err := s.WriteAt(1, 0, p, true); err != nil {
			t.Fatal(err)
		}
		if err := s.Truncate(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	removed := func() {
		if err := s.WriteAt(2, 0, p, false); err != nil {
			t.Fatal(err)
		}
		s.Remove(2)
	}
	for i := 0; i < 4; i++ { // warm-up: the blocks and the kept object's map
		kept()
		removed()
	}
	if n := testing.AllocsPerRun(100, kept); n != 0 {
		t.Errorf("write 32 KiB / truncate cycle on a kept object: %v allocs, want 0", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const cycles = 100
	for i := 0; i < cycles; i++ {
		removed()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per >= BlockSize/8 {
		t.Errorf("write 32 KiB / remove cycle allocates %d B, want well under one block (%d)", per, BlockSize)
	}
	if got := s.PhysicalBytes(); got != 0 {
		t.Errorf("%d bytes live after the last cycle", got)
	}
}

// TestFreeListBounded: removing more blocks than the bound keeps exactly
// the bound, and the next writes draw it down before allocating.
func TestFreeListBounded(t *testing.T) {
	s := NewObjectStore()
	const blocks = maxFreeBlocks + 64
	one := make([]byte, BlockSize)
	for bn := int64(0); bn < blocks; bn++ {
		if err := s.WriteAt(1, bn*BlockSize, one, true); err != nil {
			t.Fatal(err)
		}
	}
	s.Remove(1)
	if len(s.free) != maxFreeBlocks {
		t.Fatalf("free list holds %d blocks after removing %d, bound %d", len(s.free), blocks, maxFreeBlocks)
	}
	if err := s.WriteAt(2, 0, make([]byte, 16*BlockSize), false); err != nil {
		t.Fatal(err)
	}
	if len(s.free) != maxFreeBlocks-16 {
		t.Fatalf("free list holds %d blocks after a 16-block write, want %d", len(s.free), maxFreeBlocks-16)
	}
	s.Crash() // drops all 16 uncommitted blocks, back onto the list
	if len(s.free) != maxFreeBlocks {
		t.Fatalf("free list holds %d blocks after the crash, want %d", len(s.free), maxFreeBlocks)
	}
}

func TestListAfterPaginates(t *testing.T) {
	s := NewObjectStore()
	for id := ObjectID(1); id <= 7; id++ {
		if err := s.WriteAt(id, 0, []byte{byte(id)}, true); err != nil {
			t.Fatal(err)
		}
	}
	var got []ObjEntry
	after := ObjectID(0)
	for {
		page := s.ListAfter(after, 3)
		if len(page) == 0 {
			break
		}
		got = append(got, page...)
		after = page[len(page)-1].ID
	}
	if len(got) != 7 {
		t.Fatalf("paged %d entries, want 7", len(got))
	}
	for i, e := range got {
		if e.ID != ObjectID(i+1) || e.Size != 1 {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}
