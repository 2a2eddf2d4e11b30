//go:build amd64 && !purego

#include "textflag.h"

// The modulus p and np = −p⁻¹ mod 2⁶⁴, the same values as the constants in
// gfp.go: every test that compares gfpMul with gfpMulGeneric compares the
// two copies.
DATA p<>+0(SB)/8, $0x185cac6c5e089667
DATA p<>+8(SB)/8, $0xee5b88d120b5b59e
DATA p<>+16(SB)/8, $0xaa6fecb86184dc21
DATA p<>+24(SB)/8, $0x8fb501e34aa387f9
GLOBL p<>(SB), RODATA, $32

DATA np<>+0(SB)/8, $0x2387f9007f17daa9
GLOBL np<>(SB), RODATA, $8

// Both macros start with XORQ DI, DI: it clears CF and OF and leaves the
// zero that ends each carry chain. MULX leaves the flags alone, so the two
// halves of each product ride separate chains, ADCX on CF and ADOX on OF,
// without serializing on one flag.

// mulAdd: (t4:t3:t2:t1:t0) += a[i]·b, with a in SI and b in CX. On entry
// t < 2p, so t + a[i]·b < (2⁶⁴+1)·p < 2³²⁰ and neither chain carries out of
// t4.
#define mulAdd(i, t0, t1, t2, t3, t4) \
	XORQ DI, DI          \
	MOVQ i(SI), DX       \
	MULXQ 0(CX), AX, BX  \
	ADOXQ AX, t0         \
	ADCXQ BX, t1         \
	MULXQ 8(CX), AX, BX  \
	ADOXQ AX, t1         \
	ADCXQ BX, t2         \
	MULXQ 16(CX), AX, BX \
	ADOXQ AX, t2         \
	ADCXQ BX, t3         \
	MULXQ 24(CX), AX, BX \
	ADOXQ AX, t3         \
	ADCXQ BX, t4         \
	ADOXQ DI, t4

// reduce: (t5:t4:t3:t2:t1) = ((t4:t3:t2:t1:t0) + m·p) / 2⁶⁴ with
// m = t0·np mod 2⁶⁴, which cancels t0 exactly (that limb's sum is computed
// only for its carry). The total is below 2·2⁶⁴·p, one bit more than five
// limbs hold, and the bit can come out of either chain: t5 ∈ {0, 1} is the
// fifth accumulator limb of the next round, which a prime with 2p < 2²⁵⁶
// would not need.
#define reduce(t0, t1, t2, t3, t4, t5) \
	MOVQ t0, DX              \
	IMULQ np<>(SB), DX       \
	XORQ DI, DI              \
	MULXQ p<>+0(SB), AX, BX  \
	ADCXQ t0, AX             \
	ADOXQ BX, t1             \
	MULXQ p<>+8(SB), AX, BX  \
	ADCXQ AX, t1             \
	ADOXQ BX, t2             \
	MULXQ p<>+16(SB), AX, BX \
	ADCXQ AX, t2             \
	ADOXQ BX, t3             \
	MULXQ p<>+24(SB), AX, BX \
	ADCXQ AX, t3             \
	ADOXQ BX, t4             \
	MOVQ $0, t5              \
	ADCXQ DI, t4             \
	ADOXQ DI, t5             \
	ADCXQ DI, t5

// func gfpMul(c, a, b *gfP)
//
// c = a·b·R⁻¹ mod p, CIOS Montgomery multiplication: four rounds of
// "t += a[i]·b; t = (t + m·p)/2⁶⁴" over a six-register accumulator whose
// names rotate by one each round, then one conditional subtraction of p.
// a and b must be reduced (< p), as every gfP is. c is written only after
// the last read of a and b, so it may alias either.
// The kernel needs BMI2 (MULX) and ADX (ADCX/ADOX); on a CPU without them
// the call continues in gfpMulGeneric, the same algorithm in Go.
TEXT ·gfpMul(SB), NOSPLIT, $0-24
	CMPB ·supportsMULXADX(SB), $0
	JEQ  generic

	MOVQ a+8(FP), SI
	MOVQ b+16(FP), CX

	// Round 0: t = a[0]·b, nothing to accumulate into yet.
	MOVQ 0(SI), DX
	MULXQ 0(CX), R8, R9
	MULXQ 8(CX), AX, R10
	ADDQ AX, R9
	MULXQ 16(CX), AX, R11
	ADCQ AX, R10
	MULXQ 24(CX), AX, R12
	ADCQ AX, R11
	ADCQ $0, R12
	reduce(R8, R9, R10, R11, R12, R13)

	mulAdd(8, R9, R10, R11, R12, R13)
	reduce(R9, R10, R11, R12, R13, R8)

	mulAdd(16, R10, R11, R12, R13, R8)
	reduce(R10, R11, R12, R13, R8, R9)

	mulAdd(24, R11, R12, R13, R8, R9)
	reduce(R11, R12, R13, R8, R9, R10)

	// t = (R10:R9:R8:R13:R12). Between rounds t < p + b can pass 2²⁵⁶, but
	// after the last one t = (a·b + m·p)/R < (p/R + 1)·p < 0.88·2²⁵⁶ for
	// a, b < p, so R10 is 0 and four limbs decide the subtraction: the
	// borrow out says t < p, and then the saved copy is put back.
	MOVQ R12, AX
	MOVQ R13, BX
	MOVQ R8, CX
	MOVQ R9, DX
	SUBQ p<>+0(SB), R12
	SBBQ p<>+8(SB), R13
	SBBQ p<>+16(SB), R8
	SBBQ p<>+24(SB), R9
	CMOVQCS AX, R12
	CMOVQCS BX, R13
	CMOVQCS CX, R8
	CMOVQCS DX, R9

	MOVQ c+0(FP), DI
	MOVQ R12, 0(DI)
	MOVQ R13, 8(DI)
	MOVQ R8, 16(DI)
	MOVQ R9, 24(DI)
	RET

generic:
	JMP ·gfpMulGeneric(SB)

// func cpuidMULXADX() bool
//
// Reports whether CPUID leaf 7 (sub-leaf 0) EBX has both BMI2 (bit 8) and
// ADX (bit 19). Both extensions use only general-purpose registers, so no
// operating-system state check (XGETBV) is needed.
TEXT ·cpuidMULXADX(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JCS  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x80100, BX
	CMPL BX, $0x80100
	SETEQ ret+0(FP)
done:
	RET
