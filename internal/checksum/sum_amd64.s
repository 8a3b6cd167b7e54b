#include "textflag.h"

// func sumBlocksAVX2(p []byte) uint64
//
// sumBlocksAVX2 returns a native-order ones'-complement accumulator for
// p, whose length must be a positive multiple of 64: a value congruent,
// modulo 2^16-1, to the sum of p's little-endian 16-bit words, and zero
// only if every byte is. Each 64-byte block is two 32-byte loads; every
// qword is split into its low and high little-endian 32-bit words
// (VPAND with 0x00000000ffffffff, VPSRLQ $32), and the halves are added
// into 64-bit lanes of four accumulators with VPADDQ. Since
// 2^32 ≡ 1 (mod 2^16-1), a 32-bit word is two 16-bit words already in
// place.
//
// Lane bound: a lane gains less than 2^32 per block, so after the four
// accumulators are added lane-wise and the upper 128 bits folded onto the
// lower, each of the two remaining lanes is below 8·2^32 per block, and
// their scalar sum below 16·2^32 = 2^36 per block. Nothing wraps for
// fewer than 2^28 blocks: the result is exact for every input under
// 16 GiB, so for any input under 4 GiB with room to spare.
//
// It uses Y0-Y8 only (not X15, which Go's internal ABI keeps zero) and
// leaves R14 (the current goroutine) alone.
TEXT ·sumBlocksAVX2(SB), NOSPLIT, $0-32
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	SHRQ $6, CX

	VPXOR    Y0, Y0, Y0
	VPXOR    Y1, Y1, Y1
	VPXOR    Y2, Y2, Y2
	VPXOR    Y3, Y3, Y3
	VPCMPEQQ Y4, Y4, Y4
	VPSRLQ   $32, Y4, Y4

loop:
	VMOVDQU (SI), Y5
	VMOVDQU 32(SI), Y6
	VPAND   Y4, Y5, Y7
	VPSRLQ  $32, Y5, Y5
	VPAND   Y4, Y6, Y8
	VPSRLQ  $32, Y6, Y6
	VPADDQ  Y7, Y0, Y0
	VPADDQ  Y5, Y1, Y1
	VPADDQ  Y8, Y2, Y2
	VPADDQ  Y6, Y3, Y3
	ADDQ    $64, SI
	DECQ    CX
	JNZ     loop

	VPADDQ       Y1, Y0, Y0
	VPADDQ       Y3, Y2, Y2
	VPADDQ       Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ       X1, X0, X0
	VMOVQ        X0, AX
	VPEXTRQ      $1, X0, BX
	ADDQ         BX, AX
	VZEROUPPER
	MOVQ         AX, ret+24(FP)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// xgetbv reads XCR0, the set of register states the OS saves.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
