package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"slice/internal/netsim"
	"slice/internal/nfsproto"
)

// writeFrags writes payload as one record cut into frag-byte fragments:
// writeRecord always cuts at fragSize, but a reader must reassemble
// whatever fragmentation a peer chooses.
func writeFrags(w io.Writer, payload []byte, frag int) error {
	if frag <= 0 {
		return putRecord(w, payload)
	}
	for {
		n, mark := len(payload), uint32(lastFrag)
		if n > frag {
			n, mark = frag, 0
		}
		if err := binary.Write(w, binary.BigEndian, mark|uint32(n)); err != nil {
			return err
		}
		if _, err := w.Write(payload[:n]); err != nil {
			return err
		}
		if payload = payload[n:]; mark != 0 {
			return nil
		}
	}
}

// putRecord is writeRecord onto a plain writer: framed through a buffered
// writer, as every caller outside the tests does, and flushed.
func putRecord(w io.Writer, payload []byte) error {
	bw := bufio.NewWriter(w)
	if err := writeRecord(bw, payload); err != nil {
		return err
	}
	return bw.Flush()
}

func TestRecordRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 3, 4095, 64 << 10, 96*1024 + 17, 100 << 10, MaxRecord}
	frags := []int{0, 1, 1000, 64 << 10, MaxRecord}
	for _, size := range sizes {
		payload := bytes.Repeat([]byte{byte(size)}, size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		for _, frag := range frags {
			if frag > 0 && frag < 1024 && size > 8192 {
				continue // tiny fragments over big payloads: O(size/frag) frames, no extra coverage
			}
			var stream bytes.Buffer
			bw := bufio.NewWriter(&stream)
			if err := writeFrags(bw, payload, frag); err != nil {
				t.Fatalf("writeFrags(size=%d frag=%d): %v", size, frag, err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(&stream)
			got, err := readRecord(br, 0)
			if err != nil {
				t.Fatalf("readRecord(size=%d frag=%d): %v", size, frag, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("payload mismatch at size=%d frag=%d", size, frag)
			}
			netsim.FreeBuf(got)
			if n := br.Buffered() + stream.Len(); n != 0 {
				t.Fatalf("%d trailing bytes after record at size=%d frag=%d", n, size, frag)
			}
		}
	}
}

// TestRecordExceedsOldDatagramCap is the headline property of the wire
// layer: a single reassembled record is bigger than the 96 KiB that used
// to bound every transfer chunk.
func TestRecordExceedsOldDatagramCap(t *testing.T) {
	const oldCap = 96 * 1024
	payload := make([]byte, oldCap+32*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	var stream bytes.Buffer
	if err := putRecord(&stream, payload); err != nil {
		t.Fatal(err)
	}
	// With 64 KiB fragments this must be a multi-fragment record.
	first := binary.BigEndian.Uint32(stream.Bytes()[:4])
	if first&lastFrag != 0 {
		t.Fatalf("%d-byte record fit one fragment", len(payload))
	}
	got, err := readRecord(bufio.NewReader(&stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) <= oldCap {
		t.Fatalf("reassembled %d bytes, want > %d", len(got), oldCap)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
	netsim.FreeBuf(got)
}

func TestRecordHdrRoom(t *testing.T) {
	payload := []byte("stamp me")
	var stream bytes.Buffer
	if err := putRecord(&stream, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readRecord(bufio.NewReader(&stream), netsim.HeaderSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != netsim.HeaderSize+len(payload) {
		t.Fatalf("len = %d", len(got))
	}
	if !bytes.Equal(got[netsim.HeaderSize:], payload) {
		t.Fatal("payload mismatch after hdrRoom")
	}
	netsim.FreeBuf(got)
}

func TestReadRecordTornStream(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 10000)
	var stream bytes.Buffer
	if err := writeFrags(&stream, payload, 4096); err != nil {
		t.Fatal(err)
	}
	full := stream.Bytes()
	for _, cut := range []int{1, 3, 4, 7, 4100, len(full) - 1} {
		_, err := readRecord(bufio.NewReader(bytes.NewReader(full[:cut])), 0)
		if err == nil {
			t.Fatalf("torn stream (cut at %d) produced a record", cut)
		}
		if err == io.EOF && cut > 0 {
			// Only a cut before any byte is a clean EOF.
			t.Fatalf("mid-record cut at %d reported clean EOF", cut)
		}
	}
	if _, err := readRecord(bufio.NewReader(bytes.NewReader(nil)), 0); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestReadRecordHostileFrames(t *testing.T) {
	// A non-terminal zero-length fragment would loop forever.
	var zero [4]byte
	if _, err := readRecord(bufio.NewReader(bytes.NewReader(zero[:])), 0); err == nil {
		t.Fatal("zero-length non-terminal fragment accepted")
	}
	// A fragment claiming more than MaxRecord must be rejected before
	// any allocation of that size.
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], lastFrag|uint32(MaxRecord+1))
	if _, err := readRecord(bufio.NewReader(bytes.NewReader(huge[:])), 0); err != ErrRecordTooLarge {
		t.Fatalf("oversize fragment: err = %v, want ErrRecordTooLarge", err)
	}
	// Many fragments whose sum overflows MaxRecord.
	var stream bytes.Buffer
	var fh [4]byte
	chunk := bytes.Repeat([]byte{9}, 64<<10)
	binary.BigEndian.PutUint32(fh[:], uint32(len(chunk)))
	for i := 0; i < MaxRecord/len(chunk)+2; i++ {
		stream.Write(fh[:])
		stream.Write(chunk)
	}
	if _, err := readRecord(bufio.NewReader(&stream), 0); err != ErrRecordTooLarge {
		t.Fatalf("runaway fragments: err = %v, want ErrRecordTooLarge", err)
	}
}

func TestWriteRecordRejectsOversize(t *testing.T) {
	var stream bytes.Buffer
	if err := putRecord(&stream, make([]byte, MaxRecord+1)); err != ErrRecordTooLarge {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestBackToBackRecords(t *testing.T) {
	var stream bytes.Buffer
	bw := bufio.NewWriter(&stream)
	msgs := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{2}, 70000), []byte("omega")}
	for _, m := range msgs {
		if err := writeFrags(bw, m, 16<<10); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&stream)
	for i, want := range msgs {
		got, err := readRecord(br, 0)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
		netsim.FreeBuf(got)
	}
	if _, err := readRecord(br, 0); err != io.EOF {
		t.Fatalf("after last record: %v, want io.EOF", err)
	}
}

// TestRecordFramingAllocatesNothing: writing a record and reading it back
// costs no allocation beyond the pooled buffer it is read into — the
// 4-byte fragment mark lives in the bufio buffers on both sides. (It was a
// heap-allocated scratch per record in each direction: four allocations on
// every RPC over a stream gateway.)
func TestRecordFramingAllocatesNothing(t *testing.T) {
	var stream bytes.Buffer
	bw, br := bufio.NewWriter(&stream), bufio.NewReader(&stream)
	for _, size := range []int{128, 3 * fragSize / 2} { // one fragment, two
		payload := make([]byte, size)
		if n := testing.AllocsPerRun(100, func() {
			if err := writeRecord(bw, payload); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			rec, err := readRecord(br, netsim.HeaderSize)
			if err != nil || len(rec) != netsim.HeaderSize+size {
				t.Fatalf("read %d bytes, %v", len(rec), err)
			}
			netsim.FreeBuf(rec)
		}); n != 0 {
			t.Errorf("a %d-byte record costs %v allocations to frame and reassemble, want 0", size, n)
		}
	}
}

func TestPortmapGetPortAndDump(t *testing.T) {
	pm, err := NewPortmap("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Close()
	pm.Register(nfsproto.Program, nfsproto.Version, nfsproto.IPProtoTCP, 2049)
	pm.Register(nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.IPProtoTCP, 2049)
	pm.Register(nfsproto.Program, nfsproto.Version, nfsproto.IPProtoTCP, 3049) // replace

	addr := pm.Addr().String()
	port, err := GetPort(addr, nfsproto.Program, nfsproto.Version, nfsproto.IPProtoTCP)
	if err != nil {
		t.Fatal(err)
	}
	if port != 3049 {
		t.Fatalf("GETPORT nfs = %d, want 3049 (replaced registration)", port)
	}
	port, err = GetPort(addr, nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.IPProtoTCP)
	if err != nil || port != 2049 {
		t.Fatalf("GETPORT mount = %d, %v", port, err)
	}
	port, err = GetPort(addr, 300999, 1, nfsproto.IPProtoUDP)
	if err != nil || port != 0 {
		t.Fatalf("GETPORT unregistered = %d, %v (want 0, nil)", port, err)
	}

	maps, err := Dump(addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 2 {
		t.Fatalf("DUMP returned %d mappings, want 2", len(maps))
	}
	want := map[uint32]uint32{nfsproto.Program: 3049, nfsproto.MountProgram: 2049}
	for _, m := range maps {
		if want[m.Prog] != m.Port {
			t.Fatalf("DUMP %d -> %d, want %d", m.Prog, m.Port, want[m.Prog])
		}
	}
}

func BenchmarkRecordRoundTrip(b *testing.B) {
	payload := make([]byte, 128<<10)
	var stream bytes.Buffer
	bw, br := bufio.NewWriter(&stream), bufio.NewReader(&stream)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Reset()
		if err := writeRecord(bw, payload); err != nil {
			b.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		got, err := readRecord(br, 0)
		if err != nil {
			b.Fatal(err)
		}
		netsim.FreeBuf(got)
	}
}

// FuzzReadRecord feeds readRecord what a real socket can: arbitrary
// bytes. It must never panic, never return a record beyond MaxRecord,
// return exactly the records a straightforward parse of the marks yields,
// and — on every path, error or not — leave no pooled buffer behind.
func FuzzReadRecord(f *testing.F) {
	var two bytes.Buffer
	_ = writeFrags(&two, []byte("a record in three fragments"), 10)
	_ = putRecord(&two, []byte("and a second"))
	f.Add(two.Bytes())
	f.Add(two.Bytes()[:two.Len()-3])
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, stream []byte) {
		// The reference parse: records are the concatenated fragment
		// bodies up to each terminal mark; anything else ends the stream.
		var want [][]byte
		for rest, rec := stream, []byte(nil); len(rest) >= 4; {
			mark := binary.BigEndian.Uint32(rest)
			n := int(mark &^ lastFrag)
			if n > len(rest)-4 || len(rec)+n > MaxRecord || (n == 0 && mark&lastFrag == 0) {
				break
			}
			rec, rest = append(rec, rest[4:4+n]...), rest[4+n:]
			if mark&lastFrag != 0 {
				want, rec = append(want, rec), nil
			}
		}
		run := func(hdrRoom int) {
			r := bufio.NewReader(bytes.NewReader(stream))
			for i := 0; ; i++ {
				rec, err := readRecord(r, hdrRoom)
				if err != nil {
					if i != len(want) {
						t.Fatalf("hdrRoom %d: %d records then %v, want %d records", hdrRoom, i, err, len(want))
					}
					return
				}
				if len(rec)-hdrRoom > MaxRecord {
					t.Fatalf("hdrRoom %d: record of %d bytes exceeds MaxRecord", hdrRoom, len(rec)-hdrRoom)
				}
				if i >= len(want) || !bytes.Equal(rec[hdrRoom:], want[i]) {
					t.Fatalf("hdrRoom %d: record %d differs from the reference parse", hdrRoom, i)
				}
				netsim.FreeBuf(rec)
			}
		}
		// The pool counters are process-wide, and goroutines still
		// winding down from earlier tests in this binary may move them;
		// a real leak shows on every attempt, a straggler on one.
		var leaked uint64
		for try := 0; try < 3; try++ {
			before := netsim.PoolStats()
			run(0)
			run(netsim.HeaderSize)
			after := netsim.PoolStats()
			leaked = (after.Gets - before.Gets) - (after.Puts - before.Puts) - (after.Ignored - before.Ignored)
			if leaked == 0 {
				return
			}
		}
		t.Fatalf("readRecord left %d pooled buffers unfreed", leaked)
	})
}
