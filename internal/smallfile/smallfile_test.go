package smallfile

import (
	"bytes"
	"testing"
	"testing/quick"

	"slice/internal/fhandle"
	"slice/internal/storage"
	"slice/internal/wal"
)

func newStore(t *testing.T) (*Store, *wal.MemStore) {
	t.Helper()
	ms := wal.NewMemStore()
	log, err := wal.Open(ms)
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(storage.NewObjectStore(), 1, log), ms
}

func fh(id uint64) fhandle.Handle {
	return fhandle.Handle{Volume: 1, FileID: id, Type: 1, Gen: 1}
}

func TestRoundFrag(t *testing.T) {
	cases := map[int32]int32{
		0: 128, 1: 128, 128: 128, 129: 256, 200: 256,
		4096: 4096, 4097: 8192, 8192: 8192, 9000: 8192,
	}
	for in, want := range cases {
		if got := roundFrag(in); got != want {
			t.Errorf("roundFrag(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPaperExample8300Bytes(t *testing.T) {
	// §4.4: an 8300 byte file consumes 8320 bytes of physical storage:
	// 8192 for the first block and 128 for the remaining 108 bytes.
	s, _ := newStore(t)
	f := fh(1)
	if err := s.Write(f, 0, make([]byte, 8300), false); err != nil {
		t.Fatal(err)
	}
	if used := s.PhysicalBytes(); used != 8320 {
		t.Fatalf("physical usage = %d, want 8320", used)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, _ := newStore(t)
	f := fh(2)
	data := bytes.Repeat([]byte("slice"), 1000) // 5000 bytes
	if err := s.Write(f, 0, data, false); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	n, eof, err := s.Read(f, 0, buf)
	if err != nil || n != len(data) || !eof {
		t.Fatalf("read: n=%d eof=%v err=%v", n, eof, err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("content mismatch")
	}
}

func TestGrowthMigratesData(t *testing.T) {
	s, _ := newStore(t)
	f := fh(3)
	// Small write allocates a 128B fragment; extending the same block
	// must migrate the old bytes into the larger fragment.
	if err := s.Write(f, 0, []byte("head"), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(f, 100, bytes.Repeat([]byte("z"), 400), false); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, _, err := s.Read(f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "head" {
		t.Fatalf("original bytes lost in fragment growth: %q", buf)
	}
	st := s.Stats()
	if st.Grows == 0 {
		t.Fatal("no fragment growth recorded")
	}
	if st.FragFrees == 0 {
		t.Fatal("old fragment not freed")
	}
}

func TestFragmentReuse(t *testing.T) {
	s, _ := newStore(t)
	// Create then remove a file; its fragments return to the free list
	// and satisfy the next allocation without growing the object.
	f1 := fh(4)
	if err := s.Write(f1, 0, make([]byte, 1000), false); err != nil {
		t.Fatal(err)
	}
	grewBy := s.Stats().AppendBytes
	s.Remove(f1)
	f2 := fh(5)
	if err := s.Write(f2, 0, make([]byte, 1000), false); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FragReuses == 0 {
		t.Fatal("freed fragment not reused")
	}
	if st.AppendBytes != grewBy {
		t.Fatalf("backing object grew (%d -> %d) despite free fragment", grewBy, st.AppendBytes)
	}
}

func TestBestFitPrefersSmallestClass(t *testing.T) {
	s, _ := newStore(t)
	// Free a 1024 fragment and a 8192 fragment; a 900-byte allocation
	// must take the 1024 one.
	big := fh(10)
	_ = s.Write(big, 0, make([]byte, 8192), false)
	small := fh(11)
	_ = s.Write(small, 0, make([]byte, 1000), false) // 1024 fragment
	s.Remove(big)
	s.Remove(small)

	f := fh(12)
	_ = s.Write(f, 0, make([]byte, 900), false)
	// The 8192 fragment must still be available: a subsequent 8KB write
	// reuses it rather than growing the object.
	grew := s.Stats().AppendBytes
	f2 := fh(13)
	_ = s.Write(f2, 0, make([]byte, 8192), false)
	if s.Stats().AppendBytes != grew {
		t.Fatal("8KB fragment was consumed by the 900B allocation (not best fit)")
	}
}

func TestHolesReadZero(t *testing.T) {
	s, _ := newStore(t)
	f := fh(6)
	if err := s.Write(f, 2*LogicalBlock, []byte("far"), false); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, _, err := s.Read(f, 100, buf)
	if err != nil || n != 10 {
		t.Fatalf("hole read: n=%d err=%v", n, err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero-filled")
		}
	}
}

func TestWriteBeyondThresholdRejected(t *testing.T) {
	s, _ := newStore(t)
	err := s.Write(fh(7), MaxBlocks*LogicalBlock-2, []byte("overflow"), false)
	if err == nil {
		t.Fatal("write past the threshold region succeeded")
	}
}

func TestTruncate(t *testing.T) {
	s, _ := newStore(t)
	f := fh(8)
	_ = s.Write(f, 0, bytes.Repeat([]byte{0xEE}, 3*LogicalBlock), false)
	if err := s.Truncate(f, 100); err != nil {
		t.Fatal(err)
	}
	if size, _ := s.Size(f); size != 100 {
		t.Fatalf("size = %d", size)
	}
	if frees := s.Stats().FragFrees; frees < 2 {
		t.Fatalf("truncate freed %d fragments, want >= 2", frees)
	}
	// Shrink-then-extend must expose zeros past the cut.
	if err := s.Truncate(f, 300); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 200)
	n, _, _ := s.Read(f, 100, buf)
	for i := 0; i < n; i++ {
		if buf[i] != 0 {
			t.Fatalf("stale byte %d after truncate shrink+grow", i)
		}
	}
}

func TestRemoveIdempotent(t *testing.T) {
	s, _ := newStore(t)
	f := fh(9)
	_ = s.Write(f, 0, []byte("x"), false)
	s.Remove(f)
	s.Remove(f)
	if _, ok := s.Size(f); ok {
		t.Fatal("file survived remove")
	}
}

// TestRecoverFromLog rebuilds the map records from the journal after a
// manager failure — the dataless-server failover path of §2.3.
func TestRecoverFromLog(t *testing.T) {
	backing := storage.NewObjectStore()
	ms := wal.NewMemStore()
	log, _ := wal.Open(ms)
	s := NewStore(backing, 1, log)

	f1, f2 := fh(21), fh(22)
	if err := s.Write(f1, 0, []byte("file one contents"), true); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(f2, 0, bytes.Repeat([]byte("2"), 9000), true); err != nil {
		t.Fatal(err)
	}
	s.Remove(f1)
	_ = log.Sync()
	backing.CommitAll()

	// Failover: a fresh store over the same backing object + log replay.
	log2, err := wal.Open(ms.CrashCopy())
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(backing, 1, log2)
	if err := s2.replayLog(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Size(f1); ok {
		t.Fatal("removed file resurrected by recovery")
	}
	size, ok := s2.Size(f2)
	if !ok || size != 9000 {
		t.Fatalf("recovered size = %d ok=%v, want 9000", size, ok)
	}
	buf := make([]byte, 9000)
	n, _, err := s2.Read(f2, 0, buf)
	if err != nil || n != 9000 {
		t.Fatalf("recovered read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte("2"), 9000)) {
		t.Fatal("recovered content mismatch")
	}
}

// TestSparseWriteReadsZeros: a write that starts past a block's live
// bytes leaves a gap that reads as zeros, whatever the fragment held
// before — bytes a truncate cut off, or a freed fragment's old data.
func TestSparseWriteReadsZeros(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Write(fh(1), 0, bytes.Repeat([]byte{0xAA}, 100), false); err != nil {
		t.Fatal(err)
	}
	_ = s.Truncate(fh(1), 50)
	if err := s.Write(fh(1), 80, []byte("tail"), false); err != nil {
		t.Fatal(err)
	}
	// fh(2)'s first block reuses the fragment fh(3) freed.
	if err := s.Write(fh(3), 0, bytes.Repeat([]byte{0xBB}, 100), false); err != nil {
		t.Fatal(err)
	}
	s.Remove(fh(3))
	if err := s.Write(fh(2), 60, []byte("tail"), false); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		f    uint64
		want []byte
	}{
		{1, append(append(bytes.Repeat([]byte{0xAA}, 50), make([]byte, 30)...), "tail"...)},
		{2, append(make([]byte, 60), "tail"...)},
	} {
		got := make([]byte, len(c.want))
		if n, _, err := s.Read(fh(c.f), 0, got); err != nil || n != len(c.want) || !bytes.Equal(got, c.want) {
			t.Fatalf("file %d reads %x (n=%d, %v), want %x", c.f, got, n, err, c.want)
		}
	}
}

// TestWriteReadProperty drives random offsets/sizes within the threshold
// region through write-then-read.
func TestWriteReadProperty(t *testing.T) {
	f := func(off uint16, size uint16) bool {
		s, _ := newStore(t)
		o := int64(off) % (MaxBlocks*LogicalBlock - 4096)
		n := int(size)%4096 + 1
		data := bytes.Repeat([]byte{byte(off)}, n)
		if err := s.Write(fh(1), o, data, false); err != nil {
			return false
		}
		buf := make([]byte, n)
		got, _, err := s.Read(fh(1), o, buf)
		return err == nil && got == n && bytes.Equal(buf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPhysicalBytesAccounting(t *testing.T) {
	s, _ := newStore(t)
	_ = s.Write(fh(1), 0, make([]byte, 100), false) // 128
	_ = s.Write(fh(2), 0, make([]byte, 300), false) // 512
	if got := s.PhysicalBytes(); got != 128+512 {
		t.Fatalf("PhysicalBytes = %d, want 640", got)
	}
	if s.NumFiles() != 2 {
		t.Fatalf("NumFiles = %d", s.NumFiles())
	}
}
