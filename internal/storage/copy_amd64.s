#include "textflag.h"

// func copyNT(dst, src []byte)
//
// copyNT copies len(dst) bytes from src to dst with non-temporal stores:
// 64 bytes per iteration, four unaligned 16-byte loads (MOVOU) and four
// streaming stores (MOVNTO, the MOVNTDQ encoding) that write around the
// cache instead of first reading each destination line into it. dst must
// be 16-byte aligned and len(dst) a multiple of 64; src may be longer and
// unaligned. Streaming stores are weakly ordered and copyNT does not fence
// them: its caller runs storeFence once after its last copyNT and before
// it publishes the bytes. SSE2 is baseline amd64: no CPUID check. It uses
// X0-X3 only (not X15, which Go's internal ABI keeps zero).
TEXT ·copyNT(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $6, CX
	JZ   done

loop:
	MOVOU  (SI), X0
	MOVOU  16(SI), X1
	MOVOU  32(SI), X2
	MOVOU  48(SI), X3
	MOVNTO X0, (DI)
	MOVNTO X1, 16(DI)
	MOVNTO X2, 32(DI)
	MOVNTO X3, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   CX
	JNZ    loop

done:
	RET

// func storeFence()
//
// storeFence orders every streaming store before it ahead of every store
// after it, the release of the lock its caller holds included.
TEXT ·storeFence(SB), NOSPLIT, $0-0
	SFENCE
	RET
