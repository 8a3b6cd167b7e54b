package checksum

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// sumBytePair is the RFC 1071 reference loop — one 16-bit word per
// iteration — that Sum used before it went word-wide. It stays here as
// the oracle the fast kernel is checked against. (Its accumulator is 64
// bits wide: the original's uint32 wrapped past 64 Ki words of 0xFFFF.)
func sumBytePair(p []byte) uint16 {
	var s uint64
	for len(p) >= 2 {
		s += uint64(p[0])<<8 | uint64(p[1])
		p = p[2:]
	}
	if len(p) == 1 {
		s += uint64(p[0]) << 8
	}
	for s>>16 != 0 {
		s = (s & 0xffff) + s>>16
	}
	return ^uint16(s)
}

// TestSumMatchesBytePairOracle pins the word-wide kernel to the
// reference loop across every block/tail split and start alignment the
// unrolled loops can see — two whole 128-byte bodies and every tail
// after them — on random bytes and on all-0xFF input (every add carries,
// so a dropped end-around carry shows), and on a 256 KiB jumbo datagram.
func TestSumMatchesBytePairOracle(t *testing.T) {
	const maxLen = 600
	rng := rand.New(rand.NewSource(1071))
	random := make([]byte, maxLen+8)
	rng.Read(random)
	ones := bytes.Repeat([]byte{0xFF}, maxLen+8)
	for _, src := range [][]byte{random, ones} {
		for align := 0; align < 8; align++ {
			for n := 0; n <= maxLen; n++ {
				p := src[align : align+n]
				if got, want := Sum(p), sumBytePair(p); got != want {
					t.Fatalf("len %d align %d (first byte %#x): Sum = %04x, oracle = %04x",
						n, align, src[0], got, want)
				}
			}
		}
	}
	for _, fill := range []func([]byte){
		func(p []byte) { rng.Read(p) },
		func(p []byte) { copy(p, bytes.Repeat([]byte{0xFF}, len(p))) },
	} {
		jumbo := make([]byte, 256<<10)
		fill(jumbo)
		if got, want := Sum(jumbo), sumBytePair(jumbo); got != want {
			t.Fatalf("256 KiB: Sum = %04x, oracle = %04x", got, want)
		}
		if got, want := Sum(jumbo[1:]), sumBytePair(jumbo[1:]); got != want {
			t.Fatalf("256 KiB-1 unaligned: Sum = %04x, oracle = %04x", got, want)
		}
	}
}

// FuzzSum checks Sum against the oracle on arbitrary bytes, copied to
// every starting offset 0‥7 of a fresh heap buffer (16 bytes or more, so
// its start is 8-byte aligned); the seeds under testdata/fuzz/FuzzSum
// (tools/gencorpus) replay on plain go test.
func FuzzSum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xAB})
	f.Fuzz(func(t *testing.T, p []byte) {
		want := sumBytePair(p)
		buf := make([]byte, len(p)+16)
		for align := 0; align < 8; align++ {
			q := buf[align : align+len(p)]
			copy(q, p)
			if got := Sum(q); got != want {
				t.Fatalf("len %d align %d: Sum = %04x, oracle = %04x", len(p), align, got, want)
			}
		}
	})
}

func TestSumKnownVector(t *testing.T) {
	// RFC 1071 example: the ones'-complement sum of 00 01 f2 03 f4 f5
	// f6 f7 is ddf2, so the transmitted checksum is its complement 220d.
	p := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Sum(p); got != ^uint16(0xddf2) {
		t.Fatalf("Sum = %04x, want %04x", got, ^uint16(0xddf2))
	}
}

func TestSumOddLength(t *testing.T) {
	// An odd trailing byte is padded with zero.
	if Sum([]byte{0xAB}) != Sum([]byte{0xAB, 0x00}) {
		t.Fatal("odd-length sum differs from zero-padded even-length sum")
	}
}

func TestSumDetectsCorruption(t *testing.T) {
	p := []byte("the quick brown fox jumps over the lazy dog")
	orig := Sum(p)
	p[7] ^= 0x01
	if Sum(p) == orig {
		t.Fatal("single-bit corruption not reflected in checksum")
	}
}

// TestUpdateMatchesRecompute is the core property the µproxy relies on:
// incrementally updating the checksum after rewriting a 16-bit word gives
// exactly the same result as recomputing over the whole buffer.
func TestUpdateMatchesRecompute(t *testing.T) {
	f := func(data []byte, idx uint16, repl uint16) bool {
		if len(data) < 2 {
			return true
		}
		if len(data)%2 == 1 {
			data = data[:len(data)-1] // keep even for word alignment
		}
		off := int(idx) % (len(data) / 2) * 2
		sum := Sum(data)
		old := binary.BigEndian.Uint16(data[off:])
		binary.BigEndian.PutUint16(data[off:], repl)
		want := Sum(data)
		got := Update(sum, old, repl)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdate32And64(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 128)
	rng.Read(data)
	sum := Sum(data)

	old32 := binary.BigEndian.Uint32(data[8:])
	binary.BigEndian.PutUint32(data[8:], 0xDEADBEEF)
	sum = Update32(sum, old32, 0xDEADBEEF)
	if sum != Sum(data) {
		t.Fatalf("Update32: incremental %04x != full %04x", sum, Sum(data))
	}

	old64 := binary.BigEndian.Uint64(data[40:])
	binary.BigEndian.PutUint64(data[40:], 0x0123456789ABCDEF)
	sum = Update64(sum, old64, 0x0123456789ABCDEF)
	if sum != Sum(data) {
		t.Fatalf("Update64: incremental %04x != full %04x", sum, Sum(data))
	}
}

func TestUpdateBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 64+rng.Intn(64)*2)
		rng.Read(data)
		sum := Sum(data)
		// Replace an even-aligned span.
		off := rng.Intn(len(data)/4) * 2
		n := 1 + rng.Intn(len(data)-off-1)
		old := append([]byte(nil), data[off:off+n]...)
		repl := make([]byte, n)
		rng.Read(repl)
		copy(data[off:], repl)
		sum = UpdateBytes(sum, old, repl)
		if sum != Sum(data) {
			t.Fatalf("trial %d: UpdateBytes incremental %04x != full %04x (off %d len %d)",
				trial, sum, Sum(data), off, n)
		}
	}
}

func TestUpdateChain(t *testing.T) {
	// Many successive updates stay consistent (the µproxy rewrites
	// several fields per packet).
	data := make([]byte, 256)
	rand.New(rand.NewSource(3)).Read(data)
	sum := Sum(data)
	for i := 0; i < 100; i++ {
		off := (i * 14) % (len(data) - 2) &^ 1
		old := binary.BigEndian.Uint16(data[off:])
		repl := uint16(i * 7919)
		binary.BigEndian.PutUint16(data[off:], repl)
		sum = Update(sum, old, repl)
	}
	if sum != Sum(data) {
		t.Fatalf("after 100 updates: incremental %04x != full %04x", sum, Sum(data))
	}
}

func BenchmarkSumFull8K(b *testing.B) {
	data := make([]byte, 8192)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		Sum(data)
	}
}

// BenchmarkUpdateIncremental demonstrates the point of RFC 1624 rewriting:
// adjusting for a rewritten address is O(changed bytes), not O(packet).
func BenchmarkUpdateIncremental(b *testing.B) {
	var sum uint16 = 0x1234
	for i := 0; i < b.N; i++ {
		sum = Update32(sum, uint32(i), uint32(i+1))
	}
	_ = sum
}
