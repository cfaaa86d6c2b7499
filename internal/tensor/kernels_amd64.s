//go:build !purego

#include "textflag.h"

// Every routine here uses VEX encodings only (VMOVSS, VUCOMISS, VXORPS, ...)
// and ends with VZEROUPPER. A legacy-SSE instruction such as MOVSS or UCOMISS
// inside a loop that keeps YMM state live pays the SSE/AVX transition penalty
// on every iteration, which made a forward pass about ten times slower.
// Nothing here uses FMA: each product is rounded before it is added, which is
// the Go code's operation order and what keeps the results bit-exact.

// func cpuHasAVX2() bool
//
// CPUID and XGETBV directly, because the module imports nothing outside the
// standard library, whose internal/cpu is not importable. AVX2 is usable
// when CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28), XCR0 has the SSE
// and AVX state bits (1 and 2) set, and CPUID.7:EBX has AVX2 (bit 5).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<27|1<<28), CX
	CMPL CX, $(1<<27|1<<28)
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func axpyRowsAVX2(dst, coef, rows []float32, stride int)
//
// dst += coef[j] * rows[j*stride : j*stride+len(dst)] for ascending j,
// skipping zero coefficients. len(dst) must be a multiple of 8 and the slab
// must hold every row; AxpyRows checks both. dst is walked in blocks of 32
// columns (Y0-Y3), then 8 (Y0); a block stays in registers across the whole
// j loop and is stored once. Per element that is dst += c*r one row at a
// time in ascending j, a rounded VMULPS then a VADDPS, exactly the scalar
// fold's order.
//
// The zero test is VUCOMISS against +0: equal and ordered skips the row, so
// both zeros skip and a NaN coefficient is used, as `c == 0` does in Go.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ coef_base+24(FP), SI
	MOVQ coef_len+32(FP), CX
	MOVQ rows_base+48(FP), R8
	MOVQ stride+72(FP), R9
	SHLQ $2, R9            // row stride in bytes
	VXORPS X5, X5, X5      // +0 for the zero test

block32:
	CMPQ DX, $32
	JB   block8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ SI, R10           // coefficient pointer
	MOVQ CX, R11           // coefficients left
	MOVQ R8, R12           // this block's columns of row j
	TESTQ R11, R11
	JZ   store32

row32:
	VUCOMISS (R10), X5
	JP   use32             // NaN: unordered, so not zero
	JE   skip32

use32:
	VBROADCASTSS (R10), Y4
	VMULPS (R12), Y4, Y6
	VADDPS Y6, Y0, Y0
	VMULPS 32(R12), Y4, Y7
	VADDPS Y7, Y1, Y1
	VMULPS 64(R12), Y4, Y8
	VADDPS Y8, Y2, Y2
	VMULPS 96(R12), Y4, Y9
	VADDPS Y9, Y3, Y3

skip32:
	ADDQ $4, R10
	ADDQ R9, R12
	DECQ R11
	JNZ  row32

store32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R8
	SUBQ $32, DX
	JMP  block32

block8:
	CMPQ DX, $8
	JB   done
	VMOVUPS (DI), Y0
	MOVQ SI, R10
	MOVQ CX, R11
	MOVQ R8, R12
	TESTQ R11, R11
	JZ   store8

row8:
	VUCOMISS (R10), X5
	JP   use8
	JE   skip8

use8:
	VBROADCASTSS (R10), Y4
	VMULPS (R12), Y4, Y6
	VADDPS Y6, Y0, Y0

skip8:
	ADDQ $4, R10
	ADDQ R9, R12
	DECQ R11
	JNZ  row8

store8:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $8, DX
	JMP  block8

done:
	VZEROUPPER
	RET

// func ropeRowAVX2(v, cs []float32)
//
// Rotates the pairs (v[2i], v[2i+1]) by the memo row's (cos, sin) pairs
// cs[2i], cs[2i+1], eight floats a pass; len(v) must be a multiple of 8 and
// cs at least as long. VMOVSLDUP/VMOVSHDUP duplicate a and b, VPERMILPS
// swaps (cos, sin) into (sin, cos), and after two rounded products VADDSUBPS
// forms a*cos - b*sin in the even lanes and a*sin + b*cos in the odd ones,
// the scalar rotation's operations.
TEXT ·ropeRowAVX2(SB), NOSPLIT, $0-48
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ cs_base+24(FP), SI
	SHRQ $3, CX
	JZ   ropedone

ropeloop:
	VMOVUPS (DI), Y0
	VMOVUPS (SI), Y1
	VMOVSLDUP Y0, Y2       // a a
	VMOVSHDUP Y0, Y3       // b b
	VPERMILPS $0xb1, Y1, Y4 // sin cos
	VMULPS Y1, Y2, Y2      // a*cos a*sin
	VMULPS Y4, Y3, Y3      // b*sin b*cos
	VADDSUBPS Y3, Y2, Y2   // a*cos-b*sin a*sin+b*cos
	VMOVUPS Y2, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  ropeloop

ropedone:
	VZEROUPPER
	RET
