#include "textflag.h"

// func subScaledAVX2(dst, src []float64, f float64)
//
// dst[j] -= f*src[j] for j < len(dst): VMULPD rounds each product, then
// VSUBPD subtracts it, lane by lane, so every element gets the bits of
// Go's scalar MULSD/SUBSD. No FMA instruction may appear here. The main
// loop does 16 elements (four ymm registers), then a 4-wide step, then a
// scalar tail.
TEXT ·subScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD f+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $~15, DX
	JZ           step4

	PCALIGN $32
loop16:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMULPD  64(SI)(AX*8), Y0, Y3
	VMULPD  96(SI)(AX*8), Y0, Y4
	VMOVUPD (DI)(AX*8), Y5
	VMOVUPD 32(DI)(AX*8), Y6
	VMOVUPD 64(DI)(AX*8), Y7
	VMOVUPD 96(DI)(AX*8), Y8
	VSUBPD  Y1, Y5, Y5
	VSUBPD  Y2, Y6, Y6
	VSUBPD  Y3, Y7, Y7
	VSUBPD  Y4, Y8, Y8
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, 32(DI)(AX*8)
	VMOVUPD Y7, 64(DI)(AX*8)
	VMOVUPD Y8, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JB      loop16

step4:
	MOVQ CX, DX
	ANDQ $~3, DX
	CMPQ AX, DX
	JAE  tail

loop4:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD (DI)(AX*8), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      loop4

tail:
	CMPQ AX, CX
	JAE  done

loop1:
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD (DI)(AX*8), X5
	VSUBSD X1, X5, X5
	VMOVSD X5, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     loop1

done:
	VZEROUPPER
	RET

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

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
