#include "textflag.h"

// AVX2 bodies of the lane kernel for W = 8 (see lanes.go and DESIGN.md, "The
// lane kernel"). A node's eight float64 lanes are one 64-byte block, held as
// two YMM registers. Per edge: broadcast p, two VMULPD, two VADDPD — a rounded
// multiply and then a rounded add, never VFMADD, edges in ascending order — so
// every lane is bit-identical to the Go body. No bounds are checked here: the
// Go wrapper (relax) and graph.CSR's construction invariant have made every
// index below safe.

// func scatterAVX2(cur, next *float64, index *int64, nbr *int32, p *float64, rows *int32, count int)
//
// for i in [0, count): v = rows ? rows[i] : i; if cur[v] has a non-zero bit:
//   for j in [index[v], index[v+1]): next[nbr[j]] += cur[v]·p[j]
TEXT ·scatterAVX2(SB), NOSPLIT, $0-56
	MOVQ cur+0(FP), SI
	MOVQ next+8(FP), DI
	MOVQ index+16(FP), R8
	MOVQ nbr+24(FP), R9
	MOVQ p+32(FP), R10
	MOVQ rows+40(FP), R11
	MOVQ count+48(FP), CX
	XORQ BX, BX              // i

scatterNode:
	CMPQ BX, CX
	JGE  scatterDone
	MOVQ BX, AX              // v = i
	TESTQ R11, R11
	JZ   scatterBlock
	MOVLQSX (R11)(BX*4), AX  // v = rows[i]

scatterBlock:
	INCQ BX
	MOVQ AX, DX
	SHLQ $6, DX              // byte offset of block v
	VMOVUPD (SI)(DX*1), Y0
	VMOVUPD 32(SI)(DX*1), Y1
	VORPD Y0, Y1, Y2
	VPTEST Y2, Y2
	JZ   scatterNode         // all eight lanes +0: nothing to push
	MOVQ (R8)(AX*8), R12     // j = index[v]
	MOVQ 8(R8)(AX*8), R13    // index[v+1]
	CMPQ R12, R13
	JGE  scatterNode

scatterEdge:
	MOVLQSX (R9)(R12*4), DX  // u = nbr[j]
	SHLQ $6, DX
	VBROADCASTSD (R10)(R12*8), Y2
	VMULPD Y0, Y2, Y3
	VMULPD Y1, Y2, Y4
	VADDPD (DI)(DX*1), Y3, Y3
	VADDPD 32(DI)(DX*1), Y4, Y4
	VMOVUPD Y3, (DI)(DX*1)
	VMOVUPD Y4, 32(DI)(DX*1)
	INCQ R12
	CMPQ R12, R13
	JLT  scatterEdge
	JMP  scatterNode

scatterDone:
	VZEROUPPER
	RET

// func gatherAVX2(cur, next *float64, index *int64, nbr *int32, p *float64, rows *int32, count int)
//
// for i in [0, count): u = rows ? rows[i] : i;
//   next[u] = ((+0 + cur[nbr[j0]]·p[j0]) + cur[nbr[j0+1]]·p[j0+1]) + …
TEXT ·gatherAVX2(SB), NOSPLIT, $0-56
	MOVQ cur+0(FP), SI
	MOVQ next+8(FP), DI
	MOVQ index+16(FP), R8
	MOVQ nbr+24(FP), R9
	MOVQ p+32(FP), R10
	MOVQ rows+40(FP), R11
	MOVQ count+48(FP), CX
	XORQ BX, BX              // i

gatherNode:
	CMPQ BX, CX
	JGE  gatherDone
	MOVQ BX, AX              // u = i
	TESTQ R11, R11
	JZ   gatherBlock
	MOVLQSX (R11)(BX*4), AX  // u = rows[i]

gatherBlock:
	INCQ BX
	VXORPD Y0, Y0, Y0        // the running sums, from +0
	VXORPD Y1, Y1, Y1
	MOVQ (R8)(AX*8), R12     // j = index[u]
	MOVQ 8(R8)(AX*8), R13    // index[u+1]
	CMPQ R12, R13
	JGE  gatherStore

gatherEdge:
	MOVLQSX (R9)(R12*4), DX  // v = nbr[j]
	SHLQ $6, DX
	VBROADCASTSD (R10)(R12*8), Y2
	VMULPD (SI)(DX*1), Y2, Y3
	VMULPD 32(SI)(DX*1), Y2, Y4
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y1, Y1
	INCQ R12
	CMPQ R12, R13
	JLT  gatherEdge

gatherStore:
	SHLQ $6, AX
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	JMP  gatherNode

gatherDone:
	VZEROUPPER
	RET

// func cpuidAVX2() bool
//
// CPUID.1:ECX has OSXSAVE (27) and AVX (28), and CPUID.7.0:EBX has AVX2 (5).
TEXT ·cpuidAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7              // highest basic leaf
	JLT  cpuidNo
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  cpuidNo
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  cpuidNo
	MOVB $1, ret+0(FP)

cpuidNo:
	RET

// func xgetbvYMM() bool
//
// XCR0 has the SSE (1) and AVX (2) state bits.
TEXT ·xgetbvYMM(SB), NOSPLIT, $0-1
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	SETEQ ret+0(FP)
	RET
