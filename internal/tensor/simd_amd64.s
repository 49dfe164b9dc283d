#include "textflag.h"

// Four float64 lanes per instruction for axpy4 and axpyPanel. Each lane
// runs the scalar chain of the Go loop it replaces: s = out + a0·b0, then
// s += a1·b1, s += a2·b2, s += a3·b3, out = s. VMULPD and VADDPD round
// every product and every sum on its own (no FMA), in ascending term order
// with the running sum as the first operand of each add, so every element
// gets the Go loop's bits; only the payload of a NaN may differ, as it may
// between any two compilations of the loop (docs/PERFORMANCE.md). The
// bulk loop takes four elements per pass;
// the last 0–3 go through the scalar VEX forms (VMULSD, VADDSD) of the
// same chain, so short rows pay one call and no Go tail. VZEROUPPER runs
// before each return, so the SSE code Go emits pays no AVX-to-SSE
// transition.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy4AVX(out, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
TEXT ·axpy4AVX(SB), NOSPLIT, $0-152
	MOVQ out_base+0(FP), DI
	MOVQ b0_base+24(FP), SI
	MOVQ b0_len+32(FP), BX
	MOVQ b1_base+48(FP), R8
	MOVQ b2_base+72(FP), R9
	MOVQ b3_base+96(FP), R10
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	MOVQ BX, CX
	ANDQ $~3, CX
	XORQ AX, AX
	JMP  axpy4cond

axpy4loop:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (SI)(AX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R8)(AX*8), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R9)(AX*8), Y2, Y7
	VADDPD  Y7, Y4, Y4
	VMULPD  (R10)(AX*8), Y3, Y8
	VADDPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX

axpy4cond:
	CMPQ AX, CX
	JLT  axpy4loop
	JMP  axpy4tailcond

axpy4tail:
	VMOVSD (DI)(AX*8), X4
	VMULSD (SI)(AX*8), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R8)(AX*8), X1, X6
	VADDSD X6, X4, X4
	VMULSD (R9)(AX*8), X2, X7
	VADDSD X7, X4, X4
	VMULSD (R10)(AX*8), X3, X8
	VADDSD X8, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX

axpy4tailcond:
	CMPQ AX, BX
	JLT  axpy4tail
	VZEROUPPER
	RET

// func axpyPanelAVX(out, brow []float64, av float64)
TEXT ·axpyPanelAVX(SB), NOSPLIT, $0-56
	MOVQ out_base+0(FP), DI
	MOVQ brow_base+24(FP), SI
	MOVQ brow_len+32(FP), BX
	VBROADCASTSD av+48(FP), Y0
	MOVQ BX, CX
	ANDQ $~3, CX
	XORQ AX, AX
	JMP  panelCond

panelLoop:
	VMOVUPD (DI)(AX*8), Y1
	VMULPD  (SI)(AX*8), Y0, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

panelCond:
	CMPQ AX, CX
	JLT  panelLoop
	JMP  panelTailCond

panelTail:
	VMOVSD (DI)(AX*8), X1
	VMULSD (SI)(AX*8), X0, X2
	VADDSD X2, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX

panelTailCond:
	CMPQ AX, BX
	JLT  panelTail
	VZEROUPPER
	RET
