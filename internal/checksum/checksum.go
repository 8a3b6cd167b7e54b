// Package checksum implements the 16-bit Internet checksum (RFC 1071) and
// the incremental update technique of RFC 1624 used by packet rewriters.
//
// The Slice µproxy modifies only a handful of bytes in each datagram — the
// source or destination address and port, and occasionally attribute fields
// — so it adjusts the UDP-style checksum differentially rather than
// recomputing it over the whole packet. The cost of the adjustment is
// proportional to the number of modified bytes and independent of packet
// size (§4.1). This mirrors the FreeBSD NAT-derived code in the prototype.
//
// The full sum is paid by the end hosts: a datagram's sender seals it and
// its receiver verifies it where it leaves the fabric. Sum takes 64-byte
// blocks in AVX2 registers on amd64 CPUs that have them (selected once at
// start-up by CPUID and XGETBV) and a portable 64-bit add-with-carry loop
// everywhere else and for short inputs.
package checksum

import (
	"encoding/binary"
	"math/bits"
)

// Sum computes the Internet checksum over p: the ones'-complement of the
// ones'-complement sum of 16-bit big-endian words, with a final odd byte
// padded with zero.
//
// Every payload byte of a bulk transfer passes through here twice (sender
// Build or Seal, receiver Recv), so on a CPU with AVX2 an input of
// vectorMin bytes or more has its whole 64-byte blocks summed in vector
// registers (sumBlocksAVX2) before the portable loop adds the remainder.
// Shorter inputs, and every input on other CPUs, take the portable loop
// alone.
func Sum(p []byte) uint16 { return sum(p, vectorMin) }

// vectorMin is the shortest input Sum hands to the vector kernel: the
// first whole number of 64-byte blocks past the crossover, below which
// the kernel's setup and lane reduction cost more than the portable loop
// spends. On a 2.1 GHz Xeon the vector path takes 8.1 ns against 7.0 ns
// at 128 bytes, 12.2 against 12.6 at 176 and 8.7 against 14.6 at 192.
const vectorMin = 192

// sum computes the checksum of p, handing its whole 64-byte blocks to the
// vector kernel if the CPU has one and p is at least vectorFrom bytes
// long. Tests pass math.MaxInt to run the portable loop alone. Sum
// inlines into its callers, so a short input costs them one call.
//
// The portable loop accumulates 64 bits at a time: 2^16 ≡ 1
// (mod 2^16-1), so a 64-bit load is four 16-bit words already in place,
// and an end-around carry out of bit 63 re-enters at bit 0. The loads are
// native-order (little-endian): the ones'-complement sum of byte-swapped
// words is the byte-swapped sum (RFC 1071 §2(B)), so the folded result
// is swapped once instead of every word on the way in. The loop takes
// 128 bytes per iteration; after the vector kernel fewer than 64 bytes
// are left for it.
func sum(p []byte, vectorFrom int) uint16 {
	var s, c uint64
	if haveAVX2 && len(p) >= vectorFrom {
		n := len(p) &^ 63
		s = sumBlocksAVX2(p[:n])
		p = p[n:]
	}
	for len(p) >= 128 {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[8:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[16:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[24:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[32:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[40:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[48:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[56:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[64:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[72:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[80:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[88:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[96:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[104:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[112:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p[120:]), c)
		p = p[128:]
	}
	for len(p) >= 8 {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(p), c)
		p = p[8:]
	}
	// At most 7 bytes remain: three words and an odd byte cannot overflow
	// the 64-bit tail accumulator. In native order the odd byte is the low
	// half of its zero-padded word.
	var t uint64
	for len(p) >= 2 {
		t += uint64(p[0]) | uint64(p[1])<<8
		p = p[2:]
	}
	if len(p) == 1 {
		t += uint64(p[0])
	}
	s, c = bits.Add64(s, t, c)
	s, c = bits.Add64(s, 0, c)
	s += c
	// Fold 64 → 32 → 16.
	s = s>>32 + s&0xffffffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	return ^bits.ReverseBytes16(uint16(s))
}

// Update returns the checksum after a 16-bit word at an even offset changes
// from old to new, per RFC 1624 equation 3: HC' = ~(~HC + ~m + m').
func Update(sum, old, new uint16) uint16 {
	s := uint32(^sum&0xffff) + uint32(^old&0xffff) + uint32(new)
	for s>>16 != 0 {
		s = (s & 0xffff) + s>>16
	}
	return ^uint16(s)
}

// Update32 folds a 32-bit word change into the checksum; the word must
// start at an even byte offset.
func Update32(sum uint16, old, new uint32) uint16 {
	sum = Update(sum, uint16(old>>16), uint16(new>>16))
	return Update(sum, uint16(old), uint16(new))
}

// Update64 folds a 64-bit word change into the checksum; the word must
// start at an even byte offset.
func Update64(sum uint16, old, new uint64) uint16 {
	sum = Update32(sum, uint32(old>>32), uint32(new>>32))
	return Update32(sum, uint32(old), uint32(new))
}

// UpdateBytes folds a change of the even-offset-aligned byte range from old
// to new (equal lengths) into the checksum as one RFC 1624 update,
// HC' = ~(~HC + ~M + M'), where M and M' are the folded sums of the old
// and new bytes: its cost is two Sum passes over the range, not one
// Update per 16-bit word. For every sum but 0xFFFF (the checksum of
// all-zero bytes, which no datagram carries) the result equals a
// word-by-word chain of Update calls; at 0xFFFF the two can differ only
// between the two ones'-complement zeros.
func UpdateBytes(sum uint16, old, new []byte) uint16 {
	n := min(len(old), len(new))
	return Update(sum, ^Sum(old[:n]), ^Sum(new[:n]))
}
