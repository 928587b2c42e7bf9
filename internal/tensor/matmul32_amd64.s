// Float32 matmul tiles for the inference hot path. See matmul32_amd64.go
// for the dispatch and the rounding contract the tiles implement: every
// output element is one FMA accumulation over k in ascending order, so
// any tile shape — 4x64 ZMM, 1x64 ZMM, 2x32 YMM, 1x32 YMM — produces
// bit-identical results; tiles only regroup independent output elements.
//
// Every tile ends with the same epilogue before its stores: when bias is
// non-nil, one VADDPS of the bias panel into each accumulator row (acc +
// bias, one rounding); when relu is set, VMAXPS against a zeroed
// register. Go's VMAXPS zero, acc, acc is Intel's maxps(acc, zero), which
// returns the second operand unless acc > zero, so NaN, −0 and +0 all
// become +0, exactly like v > 0 ? v : 0.

#include "textflag.h"

// func denseTile4x64(dst *float32, dstStride uintptr, b *float32, bStride uintptr, a *float32, aStride uintptr, k uintptr, bias *float32, relu bool)
// AVX-512: 4 output rows x 64 output columns. 16 ZMM accumulators stay
// register-resident for the whole k loop; each loaded 64-wide panel of b
// is shared by all 4 broadcast a rows (8 FMAs per 4 loads).
TEXT ·denseTile4x64(SB), NOSPLIT, $0-65
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R11
	MOVQ b+16(FP), SI
	MOVQ bStride+24(FP), DX
	MOVQ a+32(FP), R8
	MOVQ aStride+40(FP), R12
	MOVQ k+48(FP), R9
	// a row pointers: R8, R13, R14, R15
	MOVQ R8, R13
	ADDQ R12, R13
	MOVQ R13, R14
	ADDQ R12, R14
	MOVQ R14, R15
	ADDQ R12, R15
	VXORPS Z0, Z0, Z0
	VXORPS Z1, Z1, Z1
	VXORPS Z2, Z2, Z2
	VXORPS Z3, Z3, Z3
	VXORPS Z4, Z4, Z4
	VXORPS Z5, Z5, Z5
	VXORPS Z6, Z6, Z6
	VXORPS Z7, Z7, Z7
	VXORPS Z8, Z8, Z8
	VXORPS Z9, Z9, Z9
	VXORPS Z10, Z10, Z10
	VXORPS Z11, Z11, Z11
	VXORPS Z12, Z12, Z12
	VXORPS Z13, Z13, Z13
	VXORPS Z14, Z14, Z14
	VXORPS Z15, Z15, Z15
	XORQ CX, CX
loop4x64:
	CMPQ CX, R9
	JGE  done4x64
	VMOVUPS (SI), Z16
	VMOVUPS 64(SI), Z17
	VMOVUPS 128(SI), Z18
	VMOVUPS 192(SI), Z19
	VBROADCASTSS (R8)(CX*4), Z20
	VFMADD231PS Z16, Z20, Z0
	VFMADD231PS Z17, Z20, Z1
	VFMADD231PS Z18, Z20, Z2
	VFMADD231PS Z19, Z20, Z3
	VBROADCASTSS (R13)(CX*4), Z21
	VFMADD231PS Z16, Z21, Z4
	VFMADD231PS Z17, Z21, Z5
	VFMADD231PS Z18, Z21, Z6
	VFMADD231PS Z19, Z21, Z7
	VBROADCASTSS (R14)(CX*4), Z22
	VFMADD231PS Z16, Z22, Z8
	VFMADD231PS Z17, Z22, Z9
	VFMADD231PS Z18, Z22, Z10
	VFMADD231PS Z19, Z22, Z11
	VBROADCASTSS (R15)(CX*4), Z23
	VFMADD231PS Z16, Z23, Z12
	VFMADD231PS Z17, Z23, Z13
	VFMADD231PS Z18, Z23, Z14
	VFMADD231PS Z19, Z23, Z15
	ADDQ DX, SI
	INCQ CX
	JMP  loop4x64
done4x64:
	MOVQ bias+56(FP), AX
	TESTQ AX, AX
	JZ   relu4x64
	VMOVUPS (AX), Z16
	VMOVUPS 64(AX), Z17
	VMOVUPS 128(AX), Z18
	VMOVUPS 192(AX), Z19
	VADDPS Z16, Z0, Z0
	VADDPS Z17, Z1, Z1
	VADDPS Z18, Z2, Z2
	VADDPS Z19, Z3, Z3
	VADDPS Z16, Z4, Z4
	VADDPS Z17, Z5, Z5
	VADDPS Z18, Z6, Z6
	VADDPS Z19, Z7, Z7
	VADDPS Z16, Z8, Z8
	VADDPS Z17, Z9, Z9
	VADDPS Z18, Z10, Z10
	VADDPS Z19, Z11, Z11
	VADDPS Z16, Z12, Z12
	VADDPS Z17, Z13, Z13
	VADDPS Z18, Z14, Z14
	VADDPS Z19, Z15, Z15
relu4x64:
	CMPB relu+64(FP), $0
	JEQ  store4x64
	VXORPS Z20, Z20, Z20
	VMAXPS Z20, Z0, Z0
	VMAXPS Z20, Z1, Z1
	VMAXPS Z20, Z2, Z2
	VMAXPS Z20, Z3, Z3
	VMAXPS Z20, Z4, Z4
	VMAXPS Z20, Z5, Z5
	VMAXPS Z20, Z6, Z6
	VMAXPS Z20, Z7, Z7
	VMAXPS Z20, Z8, Z8
	VMAXPS Z20, Z9, Z9
	VMAXPS Z20, Z10, Z10
	VMAXPS Z20, Z11, Z11
	VMAXPS Z20, Z12, Z12
	VMAXPS Z20, Z13, Z13
	VMAXPS Z20, Z14, Z14
	VMAXPS Z20, Z15, Z15
store4x64:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	ADDQ R11, DI
	VMOVUPS Z4, (DI)
	VMOVUPS Z5, 64(DI)
	VMOVUPS Z6, 128(DI)
	VMOVUPS Z7, 192(DI)
	ADDQ R11, DI
	VMOVUPS Z8, (DI)
	VMOVUPS Z9, 64(DI)
	VMOVUPS Z10, 128(DI)
	VMOVUPS Z11, 192(DI)
	ADDQ R11, DI
	VMOVUPS Z12, (DI)
	VMOVUPS Z13, 64(DI)
	VMOVUPS Z14, 128(DI)
	VMOVUPS Z15, 192(DI)
	VZEROUPPER
	RET

// func denseTile1x64(dst *float32, b *float32, bStride uintptr, a *float32, k uintptr, bias *float32, relu bool)
// AVX-512: 1 output row x 64 output columns (the row tail of the 4x64
// tiling). b panels are memory operands of the FMAs.
TEXT ·denseTile1x64(SB), NOSPLIT, $0-49
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ bStride+16(FP), DX
	MOVQ a+24(FP), R8
	MOVQ k+32(FP), R9
	VXORPS Z0, Z0, Z0
	VXORPS Z1, Z1, Z1
	VXORPS Z2, Z2, Z2
	VXORPS Z3, Z3, Z3
	XORQ CX, CX
loop1x64:
	CMPQ CX, R9
	JGE  done1x64
	VBROADCASTSS (R8)(CX*4), Z4
	VFMADD231PS (SI), Z4, Z0
	VFMADD231PS 64(SI), Z4, Z1
	VFMADD231PS 128(SI), Z4, Z2
	VFMADD231PS 192(SI), Z4, Z3
	ADDQ DX, SI
	INCQ CX
	JMP  loop1x64
done1x64:
	MOVQ bias+40(FP), AX
	TESTQ AX, AX
	JZ   relu1x64
	VMOVUPS (AX), Z16
	VMOVUPS 64(AX), Z17
	VMOVUPS 128(AX), Z18
	VMOVUPS 192(AX), Z19
	VADDPS Z16, Z0, Z0
	VADDPS Z17, Z1, Z1
	VADDPS Z18, Z2, Z2
	VADDPS Z19, Z3, Z3
relu1x64:
	CMPB relu+48(FP), $0
	JEQ  store1x64
	VXORPS Z20, Z20, Z20
	VMAXPS Z20, Z0, Z0
	VMAXPS Z20, Z1, Z1
	VMAXPS Z20, Z2, Z2
	VMAXPS Z20, Z3, Z3
store1x64:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VZEROUPPER
	RET

// func denseTile2x32(dst *float32, dstStride uintptr, b *float32, bStride uintptr, a *float32, aStride uintptr, k uintptr, bias *float32, relu bool)
// AVX2+FMA: 2 output rows x 32 output columns. 8 YMM accumulators; each
// loaded 32-wide b panel is shared by both broadcast a rows.
TEXT ·denseTile2x32(SB), NOSPLIT, $0-65
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R11
	MOVQ b+16(FP), SI
	MOVQ bStride+24(FP), DX
	MOVQ a+32(FP), R8
	MOVQ aStride+40(FP), R12
	MOVQ k+48(FP), R9
	MOVQ R8, R13
	ADDQ R12, R13
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ CX, CX
loop2x32:
	CMPQ CX, R9
	JGE  done2x32
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	VMOVUPS 64(SI), Y10
	VMOVUPS 96(SI), Y11
	VBROADCASTSS (R8)(CX*4), Y12
	VFMADD231PS Y8, Y12, Y0
	VFMADD231PS Y9, Y12, Y1
	VFMADD231PS Y10, Y12, Y2
	VFMADD231PS Y11, Y12, Y3
	VBROADCASTSS (R13)(CX*4), Y13
	VFMADD231PS Y8, Y13, Y4
	VFMADD231PS Y9, Y13, Y5
	VFMADD231PS Y10, Y13, Y6
	VFMADD231PS Y11, Y13, Y7
	ADDQ DX, SI
	INCQ CX
	JMP  loop2x32
done2x32:
	MOVQ bias+56(FP), AX
	TESTQ AX, AX
	JZ   relu2x32
	VMOVUPS (AX), Y8
	VMOVUPS 32(AX), Y9
	VMOVUPS 64(AX), Y10
	VMOVUPS 96(AX), Y11
	VADDPS Y8, Y0, Y0
	VADDPS Y9, Y1, Y1
	VADDPS Y10, Y2, Y2
	VADDPS Y11, Y3, Y3
	VADDPS Y8, Y4, Y4
	VADDPS Y9, Y5, Y5
	VADDPS Y10, Y6, Y6
	VADDPS Y11, Y7, Y7
relu2x32:
	CMPB relu+64(FP), $0
	JEQ  store2x32
	VXORPS Y12, Y12, Y12
	VMAXPS Y12, Y0, Y0
	VMAXPS Y12, Y1, Y1
	VMAXPS Y12, Y2, Y2
	VMAXPS Y12, Y3, Y3
	VMAXPS Y12, Y4, Y4
	VMAXPS Y12, Y5, Y5
	VMAXPS Y12, Y6, Y6
	VMAXPS Y12, Y7, Y7
store2x32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ R11, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, 64(DI)
	VMOVUPS Y7, 96(DI)
	VZEROUPPER
	RET

// func denseTile1x32(dst *float32, b *float32, bStride uintptr, a *float32, k uintptr, bias *float32, relu bool)
// AVX2+FMA: 1 output row x 32 output columns (the row tail of the 2x32
// tiling).
TEXT ·denseTile1x32(SB), NOSPLIT, $0-49
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ bStride+16(FP), DX
	MOVQ a+24(FP), R8
	MOVQ k+32(FP), R9
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ CX, CX
loop1x32:
	CMPQ CX, R9
	JGE  done1x32
	VBROADCASTSS (R8)(CX*4), Y4
	VFMADD231PS (SI), Y4, Y0
	VFMADD231PS 32(SI), Y4, Y1
	VFMADD231PS 64(SI), Y4, Y2
	VFMADD231PS 96(SI), Y4, Y3
	ADDQ DX, SI
	INCQ CX
	JMP  loop1x32
done1x32:
	MOVQ bias+40(FP), AX
	TESTQ AX, AX
	JZ   relu1x32
	VMOVUPS (AX), Y8
	VMOVUPS 32(AX), Y9
	VMOVUPS 64(AX), Y10
	VMOVUPS 96(AX), Y11
	VADDPS Y8, Y0, Y0
	VADDPS Y9, Y1, Y1
	VADDPS Y10, Y2, Y2
	VADDPS Y11, Y3, Y3
relu1x32:
	CMPB relu+48(FP), $0
	JEQ  store1x32
	VXORPS Y12, Y12, Y12
	VMAXPS Y12, Y0, Y0
	VMAXPS Y12, Y1, Y1
	VMAXPS Y12, Y2, Y2
	VMAXPS Y12, Y3, Y3
store1x32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// func fma32(a, b, c float32) float32
// Scalar single-rounding a*b + c (VFMADD231SS) — the golden-test
// reference for the vector tiles' per-step rounding.
TEXT ·fma32(SB), NOSPLIT, $0-20
	MOVSS a+0(FP), X0
	MOVSS b+4(FP), X1
	MOVSS c+8(FP), X2
	VFMADD231SS X0, X1, X2
	MOVSS X2, ret+16(FP)
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
