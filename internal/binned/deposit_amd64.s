// AVX2 group kernel for the two-level deposit path (see twolevel.go).

#include "textflag.h"

DATA efFieldMask<>+0(SB)/8, $0x00000000000007ff
GLOBL efFieldMask<>(SB), RODATA|NOPTR, $8

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

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func depositGroupsAVX2(xs []float64, consts *[3]float64, efLo, efSpan int64, q *[16]float64) int64
//
// Semantics are exactly depositGroupsGo's: consume groups of 4
// elements while every element's raw exponent field ef satisfies
// 0 <= ef-efLo <= efSpan, splitting each against the broadcast
// constants consts = {b0, b1, b2} with three Dekker round-to-multiple
// extractions and plain-adding the grades into the quad q (h=q[0:4],
// m=q[4:8], l=q[8:12], u=q[12:16], one ymm sublane per array slot).
// Returns the number of elements consumed (a multiple of 4), stopping
// at the first ineligible group or when fewer than 4 elements remain.
//
// Register plan: Y0 group, Y1-Y3 temps, Y5 zero, Y6-Y9 = h/m/l/u,
// Y10/Y11 = efLo/efSpan, Y12-Y14 = b0/b1/b2, Y15 = 0x7ff mask.
TEXT ·depositGroupsAVX2(SB), NOSPLIT, $0-64
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	MOVQ consts+24(FP), BX
	MOVQ q+48(FP), DI
	VBROADCASTSD 0(BX), Y12
	VBROADCASTSD 8(BX), Y13
	VBROADCASTSD 16(BX), Y14
	VPBROADCASTQ efLo+32(FP), Y10
	VPBROADCASTQ efSpan+40(FP), Y11
	VMOVUPD 0(DI), Y6
	VMOVUPD 32(DI), Y7
	VMOVUPD 64(DI), Y8
	VMOVUPD 96(DI), Y9
	VPXOR Y5, Y5, Y5
	VPBROADCASTQ efFieldMask<>(SB), Y15
	XORQ DX, DX

loop:
	LEAQ 4(DX), AX
	CMPQ AX, CX
	JGT  done
	VMOVUPD (SI)(DX*8), Y0
	VPSRLQ $52, Y0, Y1
	VPAND Y15, Y1, Y1
	VPSUBQ Y10, Y1, Y1
	VPCMPGTQ Y11, Y1, Y2 // Y2 = (ef-efLo) > efSpan
	VPCMPGTQ Y1, Y5, Y3  // Y3 = 0 > (ef-efLo)
	VPOR Y3, Y2, Y2
	VPTEST Y2, Y2
	JNZ  done
	// c = (b0+x)-b0; x -= c; h += c
	VADDPD Y0, Y12, Y1
	VSUBPD Y12, Y1, Y1
	VSUBPD Y1, Y0, Y0
	VADDPD Y1, Y6, Y6
	// c = (b1+x)-b1; x -= c; m += c
	VADDPD Y0, Y13, Y1
	VSUBPD Y13, Y1, Y1
	VSUBPD Y1, Y0, Y0
	VADDPD Y1, Y7, Y7
	// c = (b2+x)-b2; x -= c; l += c; u += x
	VADDPD Y0, Y14, Y1
	VSUBPD Y14, Y1, Y1
	VSUBPD Y1, Y0, Y0
	VADDPD Y1, Y8, Y8
	VADDPD Y0, Y9, Y9
	ADDQ $4, DX
	JMP  loop

done:
	VMOVUPD Y6, 0(DI)
	VMOVUPD Y7, 32(DI)
	VMOVUPD Y8, 64(DI)
	VMOVUPD Y9, 96(DI)
	VZEROUPPER
	MOVQ DX, ret+56(FP)
	RET

// func depositGroupsAVX512(xs []float64, consts *[3]float64, efLo, efSpan int64, q *[16]float64) int64
//
// depositGroupsAVX2's contract in 8-element groups: one zmm per grade,
// one unsigned range compare into K1 per group. The quad's four
// sublanes are loaded into the low lanes (the VEX loads zero the high
// lanes), so element i of a group lands in lane i and sublane i mod 4
// after the exit fold adds the high lanes into the low ones. Every add
// is exact, so the stored quad equals depositGroupsGo's. Returns the
// number of elements consumed (a multiple of 8), stopping at the first
// ineligible group or when fewer than 8 elements remain.
//
// Register plan: Z0 group, Z1 temp, K1 out-of-range lanes, Z6-Z9 =
// h/m/l/u, Z10/Z11 = efLo/efSpan, Z12-Z14 = b0/b1/b2, Z15 = 0x7ff mask.
TEXT ·depositGroupsAVX512(SB), NOSPLIT, $0-64
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	MOVQ consts+24(FP), BX
	MOVQ q+48(FP), DI
	VBROADCASTSD 0(BX), Z12
	VBROADCASTSD 8(BX), Z13
	VBROADCASTSD 16(BX), Z14
	VPBROADCASTQ efLo+32(FP), Z10
	VPBROADCASTQ efSpan+40(FP), Z11
	VMOVUPD 0(DI), Y6
	VMOVUPD 32(DI), Y7
	VMOVUPD 64(DI), Y8
	VMOVUPD 96(DI), Y9
	VPBROADCASTQ efFieldMask<>(SB), Z15
	XORQ DX, DX

loop8:
	LEAQ 8(DX), AX
	CMPQ AX, CX
	JGT  done8
	VMOVUPD (SI)(DX*8), Z0
	VPSRLQ $52, Z0, Z1
	VPANDQ Z15, Z1, Z1
	VPSUBQ Z10, Z1, Z1
	VPCMPUQ $6, Z11, Z1, K1 // K1 = (ef-efLo) >u efSpan
	KORTESTW K1, K1
	JNZ  done8
	VADDPD Z0, Z12, Z1
	VSUBPD Z12, Z1, Z1
	VSUBPD Z1, Z0, Z0
	VADDPD Z1, Z6, Z6
	VADDPD Z0, Z13, Z1
	VSUBPD Z13, Z1, Z1
	VSUBPD Z1, Z0, Z0
	VADDPD Z1, Z7, Z7
	VADDPD Z0, Z14, Z1
	VSUBPD Z14, Z1, Z1
	VSUBPD Z1, Z0, Z0
	VADDPD Z1, Z8, Z8
	VADDPD Z0, Z9, Z9
	ADDQ $8, DX
	JMP  loop8

done8:
	// Fold lanes 4-7 into sublanes 0-3.
	VEXTRACTF64X4 $1, Z6, Y1
	VADDPD Y1, Y6, Y6
	VEXTRACTF64X4 $1, Z7, Y1
	VADDPD Y1, Y7, Y7
	VEXTRACTF64X4 $1, Z8, Y1
	VADDPD Y1, Y8, Y8
	VEXTRACTF64X4 $1, Z9, Y1
	VADDPD Y1, Y9, Y9
	VMOVUPD Y6, 0(DI)
	VMOVUPD Y7, 32(DI)
	VMOVUPD Y8, 64(DI)
	VMOVUPD Y9, 96(DI)
	VZEROUPPER
	MOVQ DX, ret+56(FP)
	RET
