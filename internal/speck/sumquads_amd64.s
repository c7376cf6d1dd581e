#include "textflag.h"

// func sumRun(aData, bData, wData []float64, aOffs, wOffs []int64, stride int, run []span) (nan int)
//
// Per group: SI/CX the first and end address of row 0's multipliers, R13
// and R12 one and three rows' stride of them (n·8, 3n·8), AX the current
// multiplier of row 0, DI the block's values, BX the current B row's
// values, R8 a B row's stride (m·8), R10 the column's byte offset, DX
// where the quads end, R11 a window's address. The frame holds the four
// windows' addresses (0–24(SP)), the current span (32(SP)) and its index
// (40(SP)). X0–X7 hold the sums (row r, columns q..q+1 and q+2..q+3 in
// X(2r), X(2r+1)), X8/X9 the four B values, X10/X11 a row's multiplier in
// both lanes, X12 the NaN lanes seen, X13 -0.0 in both lanes, R9 the
// group's NaN lanes once its quads are done. Where useAVX512 or useAVX2
// is set, the AVX-512 or the AVX2 body below sums the quads instead; the
// columns left, fewer than four, are summed one at a time (tail).

TEXT ·sumRun(SB), NOSPLIT, $48-160
	MOVQ run_base+128(FP), AX
	MOVQ AX, 32(SP)
	MOVQ $0, 40(SP)
	MOVQ $0x8000000000000000, R11
	MOVQ R11, X13
	UNPCKLPD X13, X13

group:
	MOVQ 40(SP), AX
	CMPQ AX, run_len+136(FP)
	JAE stop
	MOVQ 32(SP), R9

	// Row 0's multipliers start at aData + aOffs[lo]·8; row r's window at
	// wData + wOffs[(lo+r)·stride]·8; the block at bData + at·8.
	MOVQ 0(R9), AX
	MOVQ aOffs_base+72(FP), BX
	MOVQ (BX)(AX*8), SI
	SHLQ $3, SI
	ADDQ aData_base+0(FP), SI
	MOVQ stride+120(FP), R10
	IMULQ R10, AX
	SHLQ $3, R10
	MOVQ wOffs_base+96(FP), BX
	LEAQ (BX)(AX*8), BX
	MOVQ wData_base+48(FP), R11
	MOVQ (BX), AX
	LEAQ (R11)(AX*8), AX
	MOVQ AX, 0(SP)
	ADDQ R10, BX
	MOVQ (BX), AX
	LEAQ (R11)(AX*8), AX
	MOVQ AX, 8(SP)
	ADDQ R10, BX
	MOVQ (BX), AX
	LEAQ (R11)(AX*8), AX
	MOVQ AX, 16(SP)
	ADDQ R10, BX
	MOVQ (BX), AX
	LEAQ (R11)(AX*8), AX
	MOVQ AX, 24(SP)
	MOVQ 16(R9), DI
	SHLQ $3, DI
	ADDQ bData_base+24(FP), DI
	MOVQ 24(R9), R13
	SHLQ $3, R13
	LEAQ (R13)(R13*2), R12
	LEAQ (SI)(R13*1), CX
	MOVQ 32(R9), R8
	MOVQ R8, DX
	ANDQ $~3, DX
	SHLQ $3, DX
	SHLQ $3, R8
	XORQ R10, R10
	CMPB ·useAVX512(SB), $0
	JNE avx512
	CMPB ·useAVX2(SB), $0
	JNE avx2
	XORPD X12, X12

	// Each quad: the sums start at -0.0, then p runs over the block's
	// rows (n ≥ 1), adding x_r,p · B[p][q..q+3] in p order.

quad:
	CMPQ R10, DX
	JAE quadsDone
	MOVAPD X13, X0
	MOVAPD X13, X1
	MOVAPD X13, X2
	MOVAPD X13, X3
	MOVAPD X13, X4
	MOVAPD X13, X5
	MOVAPD X13, X6
	MOVAPD X13, X7
	MOVQ SI, AX
	LEAQ (DI)(R10*1), BX

p:
	MOVUPD 0(BX), X8
	MOVUPD 16(BX), X9
	MOVSD (AX), X10
	UNPCKLPD X10, X10
	MOVAPD X10, X11
	MULPD X8, X10
	MULPD X9, X11
	ADDPD X10, X0
	ADDPD X11, X1
	MOVSD (AX)(R13*1), X10
	UNPCKLPD X10, X10
	MOVAPD X10, X11
	MULPD X8, X10
	MULPD X9, X11
	ADDPD X10, X2
	ADDPD X11, X3
	MOVSD (AX)(R13*2), X10
	UNPCKLPD X10, X10
	MOVAPD X10, X11
	MULPD X8, X10
	MULPD X9, X11
	ADDPD X10, X4
	ADDPD X11, X5
	MOVSD (AX)(R12*1), X10
	UNPCKLPD X10, X10
	MOVAPD X10, X11
	MULPD X8, X10
	MULPD X9, X11
	ADDPD X10, X6
	ADDPD X11, X7
	ADDQ $8, AX
	ADDQ R8, BX
	CMPQ AX, CX
	JB p

	// Store the quad into the four windows, then fold its NaN lanes
	// into X12.
	MOVQ 0(SP), R11
	MOVUPD X0, (R11)(R10*1)
	MOVUPD X1, 16(R11)(R10*1)
	MOVQ 8(SP), R11
	MOVUPD X2, (R11)(R10*1)
	MOVUPD X3, 16(R11)(R10*1)
	MOVQ 16(SP), R11
	MOVUPD X4, (R11)(R10*1)
	MOVUPD X5, 16(R11)(R10*1)
	MOVQ 24(SP), R11
	MOVUPD X6, (R11)(R10*1)
	MOVUPD X7, 16(R11)(R10*1)
	CMPPD X0, X0, $3
	CMPPD X1, X1, $3
	CMPPD X2, X2, $3
	CMPPD X3, X3, $3
	CMPPD X4, X4, $3
	CMPPD X5, X5, $3
	CMPPD X6, X6, $3
	CMPPD X7, X7, $3
	ORPD X0, X12
	ORPD X1, X12
	ORPD X2, X12
	ORPD X3, X12
	ORPD X4, X12
	ORPD X5, X12
	ORPD X6, X12
	ORPD X7, X12
	ADDQ $32, R10
	JMP quad

quadsDone:
	MOVMSKPD X12, R9
	JMP tail

	// The AVX2 body: the same loops over the same registers, the sums of
	// row r's four columns in Y(r), one VMULPD and one VADDPD per row and
	// B row — never a fused multiply-add. Y4 holds the B row's four
	// values, Y5/Y6 a row's multiplier in four lanes and then its
	// products, Y7 the NaN lanes seen, Y8 -0.0 in four lanes. The upper
	// halves are cleared (VZEROUPPER) before the tail's SSE2 code.

avx2:
	VBROADCASTSD X13, Y8
	VXORPD Y7, Y7, Y7

quad4:
	CMPQ R10, DX
	JAE quads4Done
	VMOVAPD Y8, Y0
	VMOVAPD Y8, Y1
	VMOVAPD Y8, Y2
	VMOVAPD Y8, Y3
	MOVQ SI, AX
	LEAQ (DI)(R10*1), BX

p4:
	VMOVUPD (BX), Y4
	VBROADCASTSD (AX), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	VBROADCASTSD (AX)(R13*1), Y6
	VMULPD Y4, Y6, Y6
	VADDPD Y6, Y1, Y1
	VBROADCASTSD (AX)(R13*2), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y2, Y2
	VBROADCASTSD (AX)(R12*1), Y6
	VMULPD Y4, Y6, Y6
	VADDPD Y6, Y3, Y3
	ADDQ $8, AX
	ADDQ R8, BX
	CMPQ AX, CX
	JB p4

	MOVQ 0(SP), R11
	VMOVUPD Y0, (R11)(R10*1)
	MOVQ 8(SP), R11
	VMOVUPD Y1, (R11)(R10*1)
	MOVQ 16(SP), R11
	VMOVUPD Y2, (R11)(R10*1)
	MOVQ 24(SP), R11
	VMOVUPD Y3, (R11)(R10*1)
	VCMPPD $3, Y0, Y0, Y0
	VCMPPD $3, Y1, Y1, Y1
	VCMPPD $3, Y2, Y2, Y2
	VCMPPD $3, Y3, Y3, Y3
	VORPD Y0, Y7, Y7
	VORPD Y1, Y7, Y7
	VORPD Y2, Y7, Y7
	VORPD Y3, Y7, Y7
	ADDQ $32, R10
	JMP quad4

quads4Done:
	VMOVMSKPD Y7, R9
	VZEROUPPER
	JMP tail

	// The AVX-512 body: sixteen columns of the four rows per step, in
	// the registers the AVX2 body leaves alone. The sums of row r's
	// columns q..q+7 and q+8..q+15 are in Z(16+2r) and Z(17+2r), Z24/Z25
	// hold the B row's sixteen values, Z26/Z27 a row's multiplier in eight
	// lanes, Z28–Z31 the products, Z9 -0.0 in eight lanes and K2 the NaN
	// lanes seen. One VMULPD and one VADDPD per row and B row — never a
	// fused multiply-add. Of the columns left, fewer than sixteen, eight
	// take one more step of half the width (row r's sums in Z(16+r)), and
	// the rest go to the AVX2 quads, whose NaN lanes (Y7) start all set if
	// K2 is not empty.

avx512:
	VBROADCASTSD X13, Y8
	VXORPD Y7, Y7, Y7
	VBROADCASTSD X13, Z9
	KXORW K2, K2, K2

tile:
	LEAQ 128(R10), R11
	CMPQ R11, DX
	JA tiled
	VMOVAPD Z9, Z16
	VMOVAPD Z9, Z17
	VMOVAPD Z9, Z18
	VMOVAPD Z9, Z19
	VMOVAPD Z9, Z20
	VMOVAPD Z9, Z21
	VMOVAPD Z9, Z22
	VMOVAPD Z9, Z23
	MOVQ SI, AX
	LEAQ (DI)(R10*1), BX

p16:
	VMOVUPD (BX), Z24
	VMOVUPD 64(BX), Z25
	VBROADCASTSD (AX), Z26
	VMULPD Z24, Z26, Z28
	VMULPD Z25, Z26, Z29
	VADDPD Z28, Z16, Z16
	VADDPD Z29, Z17, Z17
	VBROADCASTSD (AX)(R13*1), Z27
	VMULPD Z24, Z27, Z30
	VMULPD Z25, Z27, Z31
	VADDPD Z30, Z18, Z18
	VADDPD Z31, Z19, Z19
	VBROADCASTSD (AX)(R13*2), Z26
	VMULPD Z24, Z26, Z28
	VMULPD Z25, Z26, Z29
	VADDPD Z28, Z20, Z20
	VADDPD Z29, Z21, Z21
	VBROADCASTSD (AX)(R12*1), Z27
	VMULPD Z24, Z27, Z30
	VMULPD Z25, Z27, Z31
	VADDPD Z30, Z22, Z22
	VADDPD Z31, Z23, Z23
	ADDQ $8, AX
	ADDQ R8, BX
	CMPQ AX, CX
	JB p16

	MOVQ 0(SP), R11
	VMOVUPD Z16, (R11)(R10*1)
	VMOVUPD Z17, 64(R11)(R10*1)
	MOVQ 8(SP), R11
	VMOVUPD Z18, (R11)(R10*1)
	VMOVUPD Z19, 64(R11)(R10*1)
	MOVQ 16(SP), R11
	VMOVUPD Z20, (R11)(R10*1)
	VMOVUPD Z21, 64(R11)(R10*1)
	MOVQ 24(SP), R11
	VMOVUPD Z22, (R11)(R10*1)
	VMOVUPD Z23, 64(R11)(R10*1)
	VCMPPD $3, Z16, Z16, K1
	KORW K1, K2, K2
	VCMPPD $3, Z17, Z17, K1
	KORW K1, K2, K2
	VCMPPD $3, Z18, Z18, K1
	KORW K1, K2, K2
	VCMPPD $3, Z19, Z19, K1
	KORW K1, K2, K2
	VCMPPD $3, Z20, Z20, K1
	KORW K1, K2, K2
	VCMPPD $3, Z21, Z21, K1
	KORW K1, K2, K2
	VCMPPD $3, Z22, Z22, K1
	KORW K1, K2, K2
	VCMPPD $3, Z23, Z23, K1
	KORW K1, K2, K2
	ADDQ $128, R10
	JMP tile

tiled:
	LEAQ 64(R10), R11
	CMPQ R11, DX
	JA quads
	VMOVAPD Z9, Z16
	VMOVAPD Z9, Z17
	VMOVAPD Z9, Z18
	VMOVAPD Z9, Z19
	MOVQ SI, AX
	LEAQ (DI)(R10*1), BX

p8:
	VMOVUPD (BX), Z24
	VBROADCASTSD (AX), Z26
	VMULPD Z24, Z26, Z28
	VADDPD Z28, Z16, Z16
	VBROADCASTSD (AX)(R13*1), Z27
	VMULPD Z24, Z27, Z29
	VADDPD Z29, Z17, Z17
	VBROADCASTSD (AX)(R13*2), Z26
	VMULPD Z24, Z26, Z30
	VADDPD Z30, Z18, Z18
	VBROADCASTSD (AX)(R12*1), Z27
	VMULPD Z24, Z27, Z31
	VADDPD Z31, Z19, Z19
	ADDQ $8, AX
	ADDQ R8, BX
	CMPQ AX, CX
	JB p8

	MOVQ 0(SP), R11
	VMOVUPD Z16, (R11)(R10*1)
	MOVQ 8(SP), R11
	VMOVUPD Z17, (R11)(R10*1)
	MOVQ 16(SP), R11
	VMOVUPD Z18, (R11)(R10*1)
	MOVQ 24(SP), R11
	VMOVUPD Z19, (R11)(R10*1)
	VCMPPD $3, Z16, Z16, K1
	KORW K1, K2, K2
	VCMPPD $3, Z17, Z17, K1
	KORW K1, K2, K2
	VCMPPD $3, Z18, Z18, K1
	KORW K1, K2, K2
	VCMPPD $3, Z19, Z19, K1
	KORW K1, K2, K2
	ADDQ $64, R10

quads:
	KORTESTW K2, K2
	JEQ quad4
	VCMPPD $0, Y8, Y8, Y7
	JMP quad4

	// The tail: each column left, fewer than four, one at a time — the
	// four rows' sums from -0.0 in the low lanes of X0–X3 (their high
	// lanes keep -0.0, never a NaN), one MULSD and one ADDSD per row and
	// B row. Its NaN lanes join R9; a group with any ends the run.

tail:
	CMPQ R10, R8
	JAE next
	MOVAPD X13, X0
	MOVAPD X13, X1
	MOVAPD X13, X2
	MOVAPD X13, X3
	MOVQ SI, AX
	LEAQ (DI)(R10*1), BX

p1:
	MOVSD (BX), X8
	MOVSD (AX), X10
	MULSD X8, X10
	ADDSD X10, X0
	MOVSD (AX)(R13*1), X10
	MULSD X8, X10
	ADDSD X10, X1
	MOVSD (AX)(R13*2), X10
	MULSD X8, X10
	ADDSD X10, X2
	MOVSD (AX)(R12*1), X10
	MULSD X8, X10
	ADDSD X10, X3
	ADDQ $8, AX
	ADDQ R8, BX
	CMPQ AX, CX
	JB p1

	MOVQ 0(SP), R11
	MOVSD X0, (R11)(R10*1)
	MOVQ 8(SP), R11
	MOVSD X1, (R11)(R10*1)
	MOVQ 16(SP), R11
	MOVSD X2, (R11)(R10*1)
	MOVQ 24(SP), R11
	MOVSD X3, (R11)(R10*1)
	CMPPD X0, X0, $3
	CMPPD X1, X1, $3
	CMPPD X2, X2, $3
	CMPPD X3, X3, $3
	ORPD X1, X0
	ORPD X3, X2
	ORPD X2, X0
	MOVMSKPD X0, AX
	ORQ AX, R9
	ADDQ $8, R10
	JMP tail

next:
	TESTQ R9, R9
	JNE stop
	ADDQ $48, 32(SP)
	INCQ 40(SP)
	JMP group

stop:
	MOVQ 40(SP), AX
	MOVQ AX, nan+152(FP)
	RET

// func cpuid(eax, ecx uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eax+0(FP), AX
	MOVL ecx+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
