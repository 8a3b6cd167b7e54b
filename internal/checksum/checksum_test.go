package checksum

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
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

// aligned returns an n-byte slice whose first byte sits on a 64-byte
// boundary, so that p[k:] starts exactly k bytes past one.
func aligned(n int) []byte {
	buf := make([]byte, n+63)
	off := int(-uintptr(unsafe.Pointer(&buf[0])) & 63)
	return buf[off : off+n : off+n]
}

// sumGeneric is Sum on the portable loop alone, whatever the CPU.
func sumGeneric(p []byte) uint16 { return sum(p, math.MaxInt) }

// checkBothKernels fails t unless Sum and the portable loop alone both
// agree with the byte-pair oracle on p, which starts align bytes past a
// 64-byte boundary.
func checkBothKernels(t *testing.T, input string, align int, p []byte) {
	t.Helper()
	want := sumBytePair(p)
	if got := Sum(p); got != want {
		t.Fatalf("%s, len %d align %d: Sum = %04x, oracle = %04x", input, len(p), align, got, want)
	}
	if got := sumGeneric(p); got != want {
		t.Fatalf("%s, len %d align %d: sumGeneric = %04x, oracle = %04x", input, len(p), align, got, want)
	}
}

// TestSumMatchesBytePairOracle pins both kernels — Sum, which takes the
// vector path from vectorMin bytes up on an AVX2 CPU, and sumGeneric,
// the portable loop alone — to the reference loop. It covers every
// length from zero to past three whole blocks beyond the threshold
// (every block/remainder split the vector path can see, and two whole
// 128-byte bodies with every tail of the portable loop) at every start
// alignment 0‥31 from a 64-byte boundary, on random bytes and on
// all-0xFF input (every add carries, so a dropped end-around carry or a
// dropped lane shows), and a 256 KiB jumbo datagram ± 1 byte at two
// alignments.
func TestSumMatchesBytePairOracle(t *testing.T) {
	if vectorMin%64 != 0 || vectorMin < 64 {
		t.Fatalf("vectorMin = %d: the vector threshold must be a whole, positive number of 64-byte blocks", vectorMin)
	}
	maxLen := max(600, vectorMin+3*64+63)
	rng := rand.New(rand.NewSource(1071))
	random := aligned(maxLen + 32)
	rng.Read(random)
	ones := aligned(maxLen + 32)
	copy(ones, bytes.Repeat([]byte{0xFF}, len(ones)))
	for _, src := range []struct {
		name string
		p    []byte
	}{{"random", random}, {"all-0xFF", ones}} {
		for align := 0; align < 32; align++ {
			for n := 0; n <= maxLen; n++ {
				checkBothKernels(t, src.name, align, src.p[align:align+n])
			}
		}
	}
	for _, fill := range []struct {
		name string
		fn   func([]byte)
	}{
		{"random jumbo", func(p []byte) { rng.Read(p) }},
		{"all-0xFF jumbo", func(p []byte) { copy(p, bytes.Repeat([]byte{0xFF}, len(p))) }},
	} {
		jumbo := aligned(256<<10 + 2)
		fill.fn(jumbo)
		for _, n := range []int{256<<10 - 1, 256 << 10, 256<<10 + 1} {
			for _, align := range []int{0, 1} {
				checkBothKernels(t, fill.name, align, jumbo[align:align+n])
			}
		}
	}
}

// FuzzSum checks both kernels against the oracle on arbitrary bytes,
// copied to every start alignment 0‥31 from a 64-byte boundary; the
// seeds under testdata/fuzz/FuzzSum (tools/gencorpus) replay on plain
// go test.
func FuzzSum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xAB})
	f.Fuzz(func(t *testing.T, p []byte) {
		buf := aligned(len(p) + 32)
		for align := 0; align < 32; align++ {
			q := buf[align : align+len(p)]
			copy(q, p)
			checkBothKernels(t, "fuzz input", align, q)
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

// updateBytesPerWord is the word-by-word UpdateBytes that preceded the
// single RFC 1624 update: one Update per 16-bit word, the odd last byte
// padded with zero. It stays here as the oracle.
func updateBytesPerWord(sum uint16, old, new []byte) uint16 {
	n := min(len(old), len(new))
	for i := 0; i+1 < n; i += 2 {
		ow := uint16(old[i])<<8 | uint16(old[i+1])
		nw := uint16(new[i])<<8 | uint16(new[i+1])
		sum = Update(sum, ow, nw)
	}
	if n%2 == 1 {
		sum = Update(sum, uint16(old[n-1])<<8, uint16(new[n-1])<<8)
	}
	return sum
}

// TestUpdateBytes checks the single-update UpdateBytes against the
// per-word oracle, byte for byte, on every range length 0‥600, and
// against a full recomputation of the edited buffer. Besides random
// bytes it edits all-zero to all-0xFF ranges and back, where the
// ones'-complement sums of the ranges are zero.
func TestUpdateBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	zeros := make([]byte, 600)
	ones := bytes.Repeat([]byte{0xFF}, 600)
	for n := 0; n <= 600; n++ {
		data := make([]byte, 2*n+64)
		rng.Read(data)
		off := rng.Intn(len(data)-n+1) &^ 1
		random := make([]byte, n)
		rng.Read(random)
		for _, repl := range [][]byte{random, zeros[:n], ones[:n]} {
			for _, orig := range [][]byte{nil, zeros[:n], ones[:n]} {
				if orig != nil {
					copy(data[off:], orig)
				}
				sum := Sum(data)
				old := append([]byte(nil), data[off:off+n]...)
				got := UpdateBytes(sum, old, repl)
				if want := updateBytesPerWord(sum, old, repl); got != want {
					t.Fatalf("len %d off %d: UpdateBytes = %04x, per-word oracle = %04x", n, off, got, want)
				}
				copy(data[off:], repl)
				if full := Sum(data); got != full {
					t.Fatalf("len %d off %d: UpdateBytes = %04x, full recompute = %04x", n, off, got, full)
				}
			}
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

// benchSink keeps a benchmark's result live.
var benchSink uint16

// BenchmarkChecksumSum measures Sum, and the portable loop alone, at the
// datagram sizes the system carries: a 128-byte name-operation message,
// and 4 KiB (sfsmix's READs and WRITEs) and 32 KiB (a stripe unit) of
// payload behind the 20-byte fabric header and 128 bytes of RPC and NFS
// headers. Every payload byte of a bulk transfer is summed twice, by
// the sender that seals its datagram and the receiver that verifies it.
// The warm cases sum one buffer over and over; 32KiB-cold steps a window
// through 64 MiB, more than the last-level cache, so every pass reads
// from memory. The cold case is informational and not gated.
func BenchmarkChecksumSum(b *testing.B) {
	const headers = 20 + 128
	for _, sz := range []struct {
		name   string
		n, buf int
	}{
		{"128B", 128, 128},
		{"4KiB", 4<<10 + headers, 4<<10 + headers},
		{"32KiB", 32<<10 + headers, 32<<10 + headers},
		{"32KiB-cold", 32<<10 + headers, 64 << 20},
	} {
		for _, generic := range []bool{false, true} {
			name := sz.name
			if generic {
				name += "/generic"
			}
			b.Run(name, func(b *testing.B) {
				data := make([]byte, sz.buf)
				for i := range data {
					data[i] = byte(i*7 + 1)
				}
				var windows [][]byte
				for off := 0; off+sz.n <= len(data); off += sz.n {
					windows = append(windows, data[off:off+sz.n])
				}
				b.ReportAllocs()
				b.SetBytes(int64(sz.n))
				b.ResetTimer()
				if len(windows) == 1 {
					// Warm: the loop the gated rows were recorded with.
					p := windows[0]
					for i := 0; i < b.N; i++ {
						if generic {
							benchSink += sumGeneric(p)
						} else {
							benchSink += Sum(p)
						}
					}
					return
				}
				for i, w := 0, 0; i < b.N; i++ {
					if generic {
						benchSink += sumGeneric(windows[w])
					} else {
						benchSink += Sum(windows[w])
					}
					if w++; w == len(windows) {
						w = 0
					}
				}
			})
		}
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
