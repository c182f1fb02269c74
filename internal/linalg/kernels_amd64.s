#include "textflag.h"

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
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

// func fmaAxpy(alpha float64, x, y *float64, n int)
// y[0:n] += alpha * x[0:n]
TEXT ·fmaAxpy(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX

	MOVQ CX, BX
	SHRQ $4, BX
	JZ   axpy_rem8

axpy_loop16:
	VMOVUPD     (SI), Y1
	VMOVUPD     32(SI), Y2
	VMOVUPD     64(SI), Y3
	VMOVUPD     96(SI), Y4
	VFMADD213PD (DI), Y0, Y1
	VFMADD213PD 32(DI), Y0, Y2
	VFMADD213PD 64(DI), Y0, Y3
	VFMADD213PD 96(DI), Y0, Y4
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y2, 32(DI)
	VMOVUPD     Y3, 64(DI)
	VMOVUPD     Y4, 96(DI)
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        BX
	JNZ         axpy_loop16

axpy_rem8:
	ANDQ $15, CX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   axpy_rem1

axpy_loop4:
	VMOVUPD     (SI), Y1
	VFMADD213PD (DI), Y0, Y1
	VMOVUPD     Y1, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        BX
	JNZ         axpy_loop4

axpy_rem1:
	ANDQ $3, CX
	JZ   axpy_done

axpy_loop1:
	VMOVSD      (SI), X1
	VFMADD213SD (DI), X0, X1
	VMOVSD      X1, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         axpy_loop1

axpy_done:
	VZEROUPPER
	RET

// func fmaDot(x, y *float64, n int) float64
TEXT ·fmaDot(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	MOVQ CX, BX
	SHRQ $4, BX
	JZ   dot_rem8

dot_loop16:
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     64(SI), Y6
	VMOVUPD     96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        BX
	JNZ         dot_loop16

dot_rem8:
	ANDQ $15, CX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   dot_fold

dot_loop4:
	VMOVUPD     (SI), Y4
	VFMADD231PD (DI), Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        BX
	JNZ         dot_loop4

dot_fold:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0

	ANDQ $3, CX
	JZ   dot_done

dot_loop1:
	VMOVSD      (SI), X4
	VMOVSD      (DI), X5
	VFMADD231SD X5, X4, X0
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         dot_loop1

dot_done:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET
