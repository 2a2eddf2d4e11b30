//go:build amd64 && !purego

#include "textflag.h"

// The lane kernels: F_p, F_p², F_p⁴ and F_p⁶ arithmetic on eight
// independent values at a time, one per 64-bit lane of a ZMM register, in
// five limbs of 52 bits (see gfPx8 in gfpx8.go for the representation and
// the invariant). They need AVX-512F and AVX-512 IFMA; when supportsIFMA
// is false each one continues in its Generic twin, the way gfpMul does.
//
// Register use, the same in every kernel:
//
//	Z0–Z14, Z24–Z28   operands and intermediate values, five registers each
//	Z15               m, the Montgomery quotient digit of the current round
//	Z16–Z21           the six-limb accumulator of a multiplication
//	Z22               2⁵² − 1 in every lane
//	Z23               np in every lane (multiplications), zero (the others)
//	Z29, Z30          limb i of the streamed operands in round i
//	Z31               scratch of carry
//
// The kernels one level up (gfp4x8CycloSquare, gfp6x8Mul,
// gfp6x8MulSparse2) keep products as ten-limb integers, not reduced, in
// (Z14:…:Z10) and (Z20:…:Z16), sum them with the linear terms of the
// formula, and reduce each output coordinate once (redc, then finish).
// Those that park values between steps hold them in a frame on the stack,
// 64-byte aligned in R8; they leave for the Generic twin through a RET to
// it, which releases the frame first.
//
// p and its multiples are read from RODATA with an embedded broadcast.

// Radix-2⁵² constants: the five 52-bit limbs of p, 2p, 4p and 16p, low
// limb first, and np = −p⁻¹ mod 2⁵². They are entered by hand — the Generic twins
// go through gfP and have no use for them — and TestKernelConstants reads
// them back out of this file and compares them with the values it derives
// from P.
DATA p52<>+0(SB)/8, $0xcac6c5e089667
DATA p52<>+8(SB)/8, $0xd120b5b59e185
DATA p52<>+16(SB)/8, $0x184dc21ee5b88
DATA p52<>+24(SB)/8, $0x87f9aa6fecb86
DATA p52<>+32(SB)/8, $0x08fb501e34aa3
GLOBL p52<>(SB), RODATA, $40

DATA twoP52<>+0(SB)/8, $0x958d8bc112cce
DATA twoP52<>+8(SB)/8, $0xa2416b6b3c30b
DATA twoP52<>+16(SB)/8, $0x309b843dcb711
DATA twoP52<>+24(SB)/8, $0x0ff354dfd970c
DATA twoP52<>+32(SB)/8, $0x11f6a03c69547
GLOBL twoP52<>(SB), RODATA, $40

DATA fourP52<>+0(SB)/8, $0x2b1b17822599c
DATA fourP52<>+8(SB)/8, $0x4482d6d678617
DATA fourP52<>+16(SB)/8, $0x6137087b96e23
DATA fourP52<>+24(SB)/8, $0x1fe6a9bfb2e18
DATA fourP52<>+32(SB)/8, $0x23ed4078d2a8e
GLOBL fourP52<>(SB), RODATA, $40

DATA sixteenP52<>+0(SB)/8, $0xac6c5e0896670
DATA sixteenP52<>+8(SB)/8, $0x120b5b59e185c
DATA sixteenP52<>+16(SB)/8, $0x84dc21ee5b88d
DATA sixteenP52<>+24(SB)/8, $0x7f9aa6fecb861
DATA sixteenP52<>+32(SB)/8, $0x8fb501e34aa38
GLOBL sixteenP52<>(SB), RODATA, $40

// wideQ = ⌊2⁵⁷/(⌊p/2²³⁰⌋ + 1)⌋, below 2³²: reduceWide's estimate of
// ⌊v/p⌋ is ⌊⌊v/2²³⁰⌋·wideQ/2⁵⁷⌋.
DATA wideQ<>+0(SB)/8, $0xe404f84f
GLOBL wideQ<>(SB), RODATA, $8

DATA np52<>+0(SB)/8, $0x7f9007f17daa9
GLOBL np52<>(SB), RODATA, $8

DATA mask52<>+0(SB)/8, $0xfffffffffffff
GLOBL mask52<>(SB), RODATA, $8

// load5 and store5 move one field element between memory and registers.
#define load5(off, base, r0, r1, r2, r3, r4) \
	VMOVDQU64 off+0(base), r0   \
	VMOVDQU64 off+64(base), r1  \
	VMOVDQU64 off+128(base), r2 \
	VMOVDQU64 off+192(base), r3 \
	VMOVDQU64 off+256(base), r4

#define store5(r0, r1, r2, r3, r4, off, base) \
	VMOVDQU64 r0, off+0(base)   \
	VMOVDQU64 r1, off+64(base)  \
	VMOVDQU64 r2, off+128(base) \
	VMOVDQU64 r3, off+192(base) \
	VMOVDQU64 r4, off+256(base)

// op5 and op5m apply one instruction limb by limb, in the assembler's
// operand order: d = b op a, and d = b op m with m the five rows at
// off(base).
#define op5(op, a0, a1, a2, a3, a4, b0, b1, b2, b3, b4, d0, d1, d2, d3, d4) \
	op a0, b0, d0 \
	op a1, b1, d1 \
	op a2, b2, d2 \
	op a3, b3, d3 \
	op a4, b4, d4

#define op5m(op, off, base, b0, b1, b2, b3, b4, d0, d1, d2, d3, d4) \
	op off+0(base), b0, d0   \
	op off+64(base), b1, d1  \
	op off+128(base), b2, d2 \
	op off+192(base), b3, d3 \
	op off+256(base), b4, d4

// times3 triples r in place, limb by limb; t is scratch.
#define times3(r0, r1, r2, r3, r4, t0, t1, t2, t3, t4) \
	op5(VPADDQ, r0, r1, r2, r3, r4, r0, r1, r2, r3, r4, t0, t1, t2, t3, t4) \
	op5(VPADDQ, t0, t1, t2, t3, t4, r0, r1, r2, r3, r4, r0, r1, r2, r3, r4)

// reduceWide brings v from [0, 2²⁶²), about 114p, into [0, 2p) with
// limbs below 2⁵². v must be carried (normalize) first: four low limbs in
// [0, 2⁵²), the rest in the top one. It subtracts q·p for an estimate q of
// ⌊v/p⌋ taken from the bits above 2²³⁰; the estimate is low by at most
// one (TestReduceWideEstimate), so what is left is below 2p. q and s are
// scratch; Z22 must hold the limb mask.
#define reduceWide(v0, v1, v2, v3, v4, q, s0, s1, s2, s3, s4) \
	VPSRLQ $22, v4, q                        \
	VPMULUDQ.BCST wideQ<>(SB), q, q          \
	VPSRLQ $57, q, q                         \
	VPXORQ s0, s0, s0                        \
	VPXORQ s1, s1, s1                        \
	VPXORQ s2, s2, s2                        \
	VPXORQ s3, s3, s3                        \
	VPXORQ s4, s4, s4                        \
	VPXORQ Z31, Z31, Z31                     \
	VPMADD52LUQ.BCST p52<>+0(SB), q, s0      \
	VPMADD52LUQ.BCST p52<>+8(SB), q, s1      \
	VPMADD52LUQ.BCST p52<>+16(SB), q, s2     \
	VPMADD52LUQ.BCST p52<>+24(SB), q, s3     \
	VPMADD52LUQ.BCST p52<>+32(SB), q, s4     \
	VPMADD52HUQ.BCST p52<>+0(SB), q, s1      \
	VPMADD52HUQ.BCST p52<>+8(SB), q, s2      \
	VPMADD52HUQ.BCST p52<>+16(SB), q, s3     \
	VPMADD52HUQ.BCST p52<>+24(SB), q, s4     \
	VPMADD52HUQ.BCST p52<>+32(SB), q, Z31    \
	VPSLLQ $52, Z31, Z31                     \
	VPSUBQ Z31, v4, v4                       \
	op5(VPSUBQ, s0, s1, s2, s3, s4, v0, v1, v2, v3, v4, v0, v1, v2, v3, v4) \
	normalize(VPSRAQ, v0, v1, v2, v3, v4)

// carry moves what limb lo holds above 52 bits into limb hi. shift is VPSRLQ
// for a value known to be non-negative and VPSRAQ for a signed one (the
// quotient then rounds down and the remainder left in lo is in [0, 2⁵²)).
#define carry(shift, lo, hi) \
	shift $52, lo, Z31 \
	VPANDQ Z22, lo, lo \
	VPADDQ Z31, hi, hi

// normalize carries through a five-limb value whose limbs are within ±2⁶²:
// afterwards the four low limbs are in [0, 2⁵²) and the top limb holds the
// rest, sign included.
#define normalize(shift, r0, r1, r2, r3, r4) \
	carry(shift, r0, r1) \
	carry(shift, r1, r2) \
	carry(shift, r2, r3) \
	carry(shift, r3, r4)

// mulAccLo and mulAccHi add a·b to the accumulator, b being one limb: the
// low halves of the five products go to t0..t4, the high halves to t1..t5.
// VPMADD52 reads only the low 52 bits of each multiplicand, which is why
// every stored limb must be below 2⁵².
#define mulAccLo(b, a0, a1, a2, a3, a4, t0, t1, t2, t3, t4) \
	VPMADD52LUQ b, a0, t0 \
	VPMADD52LUQ b, a1, t1 \
	VPMADD52LUQ b, a2, t2 \
	VPMADD52LUQ b, a3, t3 \
	VPMADD52LUQ b, a4, t4

#define mulAccHi(b, a0, a1, a2, a3, a4, t1, t2, t3, t4, t5) \
	VPMADD52HUQ b, a0, t1 \
	VPMADD52HUQ b, a1, t2 \
	VPMADD52HUQ b, a2, t3 \
	VPMADD52HUQ b, a3, t4 \
	VPMADD52HUQ b, a4, t5

// quotient sets m = t0·np mod 2⁵², the digit that makes t + m·p a multiple
// of 2⁵². It sits between the low and the high products of a round so that
// its latency is covered.
#define quotient(t0) \
	VPXORQ Z15, Z15, Z15     \
	VPMADD52LUQ Z23, t0, Z15

// addMP adds m·p to the accumulator, m being Z15: t0 becomes a multiple of
// 2⁵².
#define addMP(t0, t1, t2, t3, t4, t5) \
	VPMADD52LUQ.BCST p52<>+0(SB), Z15, t0  \
	VPMADD52LUQ.BCST p52<>+8(SB), Z15, t1  \
	VPMADD52LUQ.BCST p52<>+16(SB), Z15, t2 \
	VPMADD52LUQ.BCST p52<>+24(SB), Z15, t3 \
	VPMADD52LUQ.BCST p52<>+32(SB), Z15, t4 \
	VPMADD52HUQ.BCST p52<>+0(SB), Z15, t1  \
	VPMADD52HUQ.BCST p52<>+8(SB), Z15, t2  \
	VPMADD52HUQ.BCST p52<>+16(SB), Z15, t3 \
	VPMADD52HUQ.BCST p52<>+24(SB), Z15, t4 \
	VPMADD52HUQ.BCST p52<>+32(SB), Z15, t5

// reduce adds m·p to the accumulator and divides it by 2⁵²: what t0 holds
// above bit 52 moves to t1, and t0 is cleared to be the top limb of the
// next round (the caller rotates the names). A limb takes at most six
// 52-bit terms and one carry per round and lives for five rounds, so it
// stays below 2⁵⁷.
#define reduce(t0, t1, t2, t3, t4, t5) \
	addMP(t0, t1, t2, t3, t4, t5) \
	VPSRLQ $52, t0, t0            \
	VPADDQ t0, t1, t1             \
	VPXORQ t0, t0, t0

// redcRound is one round of Montgomery reduction of a ten-limb value t
// whose limbs may be negative: t += m·p with m = t0·np mod 2⁵², then t0,
// now a multiple of 2⁵², is carried into t1 with its sign. Five rounds
// divide t by 2²⁶⁰ mod p and leave the result in the upper five limbs,
// between t/2²⁶⁰ and t/2²⁶⁰ + p.
#define redcRound(t0, t1, t2, t3, t4, t5) \
	quotient(t0)                  \
	addMP(t0, t1, t2, t3, t4, t5) \
	VPSRAQ $52, t0, t0            \
	VPADDQ t0, t1, t1

// mulRound is one round of operand-scanning Montgomery multiplication,
// t = (t + a·b + m·p)/2⁵² with b one limb of the second operand.
#define mulRound(b, a0, a1, a2, a3, a4, t0, t1, t2, t3, t4, t5) \
	mulAccLo(b, a0, a1, a2, a3, a4, t0, t1, t2, t3, t4) \
	quotient(t0)                                        \
	mulAccHi(b, a0, a1, a2, a3, a4, t1, t2, t3, t4, t5) \
	reduce(t0, t1, t2, t3, t4, t5)

// mulRound2 is mulRound for a sum of two products, a·b + c·d, reduced
// once: t = (t + a·b + c·d + m·p)/2⁵².
#define mulRound2(b, a0, a1, a2, a3, a4, d, c0, c1, c2, c3, c4, t0, t1, t2, t3, t4, t5) \
	mulAccLo(b, a0, a1, a2, a3, a4, t0, t1, t2, t3, t4) \
	mulAccLo(d, c0, c1, c2, c3, c4, t0, t1, t2, t3, t4) \
	quotient(t0)                                        \
	mulAccHi(b, a0, a1, a2, a3, a4, t1, t2, t3, t4, t5) \
	mulAccHi(d, c0, c1, c2, c3, c4, t1, t2, t3, t4, t5) \
	reduce(t0, t1, t2, t3, t4, t5)

// mulInit loads the two constants of a multiplication and clears the
// accumulator.
#define mulInit() \
	VPBROADCASTQ mask52<>(SB), Z22 \
	VPBROADCASTQ np52<>(SB), Z23   \
	VPXORQ Z16, Z16, Z16           \
	VPXORQ Z17, Z17, Z17           \
	VPXORQ Z18, Z18, Z18           \
	VPXORQ Z19, Z19, Z19           \
	VPXORQ Z20, Z20, Z20           \
	VPXORQ Z21, Z21, Z21

// Five rounds starting from the accumulator names (Z16, …, Z21) leave the
// product in (Z19:Z18:Z17:Z16:Z21), limbs up to 2⁵⁷, and Z20 clear.
// mulFinish carries it into limbs below 2⁵²; the value is below 2²⁶⁰, so
// nothing leaves the top limb. mulMove then moves it to five other
// registers and clears the accumulator for a second multiplication.
#define mulFinish() \
	normalize(VPSRLQ, Z21, Z16, Z17, Z18, Z19)

#define mulMove(r0, r1, r2, r3, r4) \
	VMOVDQA64 Z21, r0    \
	VMOVDQA64 Z16, r1    \
	VMOVDQA64 Z17, r2    \
	VMOVDQA64 Z18, r3    \
	VMOVDQA64 Z19, r4    \
	VPXORQ Z21, Z21, Z21 \
	VPXORQ Z16, Z16, Z16 \
	VPXORQ Z17, Z17, Z17 \
	VPXORQ Z18, Z18, Z18 \
	VPXORQ Z19, Z19, Z19

// mul1 multiplies a, in a0..a4, by b, the five rows at 0(bb): five
// mulRounds, carried (mulFinish), the product left in
// (Z19:Z18:Z17:Z16:Z21). mulInit must have run.
#define mul1(a0, a1, a2, a3, a4, bb) \
	VMOVDQU64 0(bb), Z29                                             \
	mulRound(Z29, a0, a1, a2, a3, a4, Z16, Z17, Z18, Z19, Z20, Z21)  \
	VMOVDQU64 64(bb), Z29                                            \
	mulRound(Z29, a0, a1, a2, a3, a4, Z17, Z18, Z19, Z20, Z21, Z16)  \
	VMOVDQU64 128(bb), Z29                                           \
	mulRound(Z29, a0, a1, a2, a3, a4, Z18, Z19, Z20, Z21, Z16, Z17)  \
	VMOVDQU64 192(bb), Z29                                           \
	mulRound(Z29, a0, a1, a2, a3, a4, Z19, Z20, Z21, Z16, Z17, Z18)  \
	VMOVDQU64 256(bb), Z29                                           \
	mulRound(Z29, a0, a1, a2, a3, a4, Z20, Z21, Z16, Z17, Z18, Z19)  \
	mulFinish()

// func gfpx8Mul(c, a, b *gfPx8)
//
// c = a·b·2⁻²⁶⁰ mod p in every lane. Limbs of a and b must be below 2⁵²;
// then c < a·b/2²⁶⁰ + p with limbs below 2⁵², so a·b < 2²⁶⁰·p ≈ 28.5·p²
// gives c < 2p with no final subtraction. c may alias a or b.
TEXT ·gfpx8Mul(SB), NOSPLIT, $0-24
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ a+8(FP), SI
	MOVQ b+16(FP), CX
	MOVQ c+0(FP), DI
	mulInit()
	load5(0, SI, Z0, Z1, Z2, Z3, Z4)
	mul1(Z0, Z1, Z2, Z3, Z4, CX)
	store5(Z21, Z16, Z17, Z18, Z19, 0, DI)
	VZEROUPPER
	RET

generic:
	JMP ·gfpx8MulGeneric(SB)

// func gfp2x8Mul(c, a, b *gfP2x8)
//
// c = a·b in F_p², every lane: with a = ax·i + ay and b = bx·i + by,
//
//	c.y = ay·by + (2p − ax)·bx      c.x = ax·by + ay·bx,
//
// each a sum of two products reduced once (mulRound2), so that no
// subtraction follows a multiplication. For operands within the invariant
// each sum is at most 8p² and each result below 8p²/2²⁶⁰ + p < 1.3p.
// c may alias a or b: it is written after the last read.
TEXT ·gfp2x8Mul(SB), NOSPLIT, $0-24
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ a+8(FP), SI
	MOVQ b+16(FP), CX
	MOVQ c+0(FP), DI
	mulInit()
	load5(0, SI, Z0, Z1, Z2, Z3, Z4)
	load5(320, SI, Z5, Z6, Z7, Z8, Z9)

	// (Z14:…:Z10) = 2p − ax, in (0, 2p].
	VPBROADCASTQ twoP52<>+0(SB), Z10
	VPBROADCASTQ twoP52<>+8(SB), Z11
	VPBROADCASTQ twoP52<>+16(SB), Z12
	VPBROADCASTQ twoP52<>+24(SB), Z13
	VPBROADCASTQ twoP52<>+32(SB), Z14
	VPSUBQ Z0, Z10, Z10
	VPSUBQ Z1, Z11, Z11
	VPSUBQ Z2, Z12, Z12
	VPSUBQ Z3, Z13, Z13
	VPSUBQ Z4, Z14, Z14
	normalize(VPSRAQ, Z10, Z11, Z12, Z13, Z14)

	VMOVDQU64 320(CX), Z29
	VMOVDQU64 0(CX), Z30
	mulRound2(Z29, Z5, Z6, Z7, Z8, Z9, Z30, Z10, Z11, Z12, Z13, Z14, Z16, Z17, Z18, Z19, Z20, Z21)
	VMOVDQU64 384(CX), Z29
	VMOVDQU64 64(CX), Z30
	mulRound2(Z29, Z5, Z6, Z7, Z8, Z9, Z30, Z10, Z11, Z12, Z13, Z14, Z17, Z18, Z19, Z20, Z21, Z16)
	VMOVDQU64 448(CX), Z29
	VMOVDQU64 128(CX), Z30
	mulRound2(Z29, Z5, Z6, Z7, Z8, Z9, Z30, Z10, Z11, Z12, Z13, Z14, Z18, Z19, Z20, Z21, Z16, Z17)
	VMOVDQU64 512(CX), Z29
	VMOVDQU64 192(CX), Z30
	mulRound2(Z29, Z5, Z6, Z7, Z8, Z9, Z30, Z10, Z11, Z12, Z13, Z14, Z19, Z20, Z21, Z16, Z17, Z18)
	VMOVDQU64 576(CX), Z29
	VMOVDQU64 256(CX), Z30
	mulRound2(Z29, Z5, Z6, Z7, Z8, Z9, Z30, Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z16, Z17, Z18, Z19)
	mulFinish()
	mulMove(Z24, Z25, Z26, Z27, Z28)

	VMOVDQU64 320(CX), Z29
	VMOVDQU64 0(CX), Z30
	mulRound2(Z29, Z0, Z1, Z2, Z3, Z4, Z30, Z5, Z6, Z7, Z8, Z9, Z16, Z17, Z18, Z19, Z20, Z21)
	VMOVDQU64 384(CX), Z29
	VMOVDQU64 64(CX), Z30
	mulRound2(Z29, Z0, Z1, Z2, Z3, Z4, Z30, Z5, Z6, Z7, Z8, Z9, Z17, Z18, Z19, Z20, Z21, Z16)
	VMOVDQU64 448(CX), Z29
	VMOVDQU64 128(CX), Z30
	mulRound2(Z29, Z0, Z1, Z2, Z3, Z4, Z30, Z5, Z6, Z7, Z8, Z9, Z18, Z19, Z20, Z21, Z16, Z17)
	VMOVDQU64 512(CX), Z29
	VMOVDQU64 192(CX), Z30
	mulRound2(Z29, Z0, Z1, Z2, Z3, Z4, Z30, Z5, Z6, Z7, Z8, Z9, Z19, Z20, Z21, Z16, Z17, Z18)
	VMOVDQU64 576(CX), Z29
	VMOVDQU64 256(CX), Z30
	mulRound2(Z29, Z0, Z1, Z2, Z3, Z4, Z30, Z5, Z6, Z7, Z8, Z9, Z20, Z21, Z16, Z17, Z18, Z19)
	mulFinish()

	store5(Z21, Z16, Z17, Z18, Z19, 0, DI)
	store5(Z24, Z25, Z26, Z27, Z28, 320, DI)
	VZEROUPPER
	RET

generic:
	JMP ·gfp2x8MulGeneric(SB)

// func gfp2x8Square(c, a *gfP2x8)
//
// c = a² in F_p², every lane: c.y = (ax + ay)·(ay − ax + 2p) and
// c.x = ax·2ay. The three linear terms are carried into limbs below 2⁵² but
// not reduced: they stay below 4p, the products below 16p², the results
// below 16p²/2²⁶⁰ + p < 1.6p. c may alias a.
TEXT ·gfp2x8Square(SB), NOSPLIT, $0-16
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ a+8(FP), SI
	MOVQ c+0(FP), DI
	mulInit()
	load5(0, SI, Z0, Z1, Z2, Z3, Z4)
	load5(320, SI, Z5, Z6, Z7, Z8, Z9)

	VPADDQ Z0, Z5, Z10
	VPADDQ Z1, Z6, Z11
	VPADDQ Z2, Z7, Z12
	VPADDQ Z3, Z8, Z13
	VPADDQ Z4, Z9, Z14
	normalize(VPSRLQ, Z10, Z11, Z12, Z13, Z14)

	VPSUBQ Z0, Z5, Z24
	VPSUBQ Z1, Z6, Z25
	VPSUBQ Z2, Z7, Z26
	VPSUBQ Z3, Z8, Z27
	VPSUBQ Z4, Z9, Z28
	VPADDQ.BCST twoP52<>+0(SB), Z24, Z24
	VPADDQ.BCST twoP52<>+8(SB), Z25, Z25
	VPADDQ.BCST twoP52<>+16(SB), Z26, Z26
	VPADDQ.BCST twoP52<>+24(SB), Z27, Z27
	VPADDQ.BCST twoP52<>+32(SB), Z28, Z28
	normalize(VPSRAQ, Z24, Z25, Z26, Z27, Z28)

	mulRound(Z24, Z10, Z11, Z12, Z13, Z14, Z16, Z17, Z18, Z19, Z20, Z21)
	mulRound(Z25, Z10, Z11, Z12, Z13, Z14, Z17, Z18, Z19, Z20, Z21, Z16)
	mulRound(Z26, Z10, Z11, Z12, Z13, Z14, Z18, Z19, Z20, Z21, Z16, Z17)
	mulRound(Z27, Z10, Z11, Z12, Z13, Z14, Z19, Z20, Z21, Z16, Z17, Z18)
	mulRound(Z28, Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z16, Z17, Z18, Z19)
	mulFinish()
	mulMove(Z10, Z11, Z12, Z13, Z14)

	VPADDQ Z5, Z5, Z24
	VPADDQ Z6, Z6, Z25
	VPADDQ Z7, Z7, Z26
	VPADDQ Z8, Z8, Z27
	VPADDQ Z9, Z9, Z28
	normalize(VPSRLQ, Z24, Z25, Z26, Z27, Z28)

	mulRound(Z24, Z0, Z1, Z2, Z3, Z4, Z16, Z17, Z18, Z19, Z20, Z21)
	mulRound(Z25, Z0, Z1, Z2, Z3, Z4, Z17, Z18, Z19, Z20, Z21, Z16)
	mulRound(Z26, Z0, Z1, Z2, Z3, Z4, Z18, Z19, Z20, Z21, Z16, Z17)
	mulRound(Z27, Z0, Z1, Z2, Z3, Z4, Z19, Z20, Z21, Z16, Z17, Z18)
	mulRound(Z28, Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z16, Z17, Z18, Z19)
	mulFinish()

	store5(Z21, Z16, Z17, Z18, Z19, 0, DI)
	store5(Z10, Z11, Z12, Z13, Z14, 320, DI)
	VZEROUPPER
	RET

generic:
	JMP ·gfp2x8SquareGeneric(SB)

// subConst and addConst set d = t ∓ sym limb by limb, sym one of the
// broadcast constants.
#define subConst(sym, t0, t1, t2, t3, t4, d0, d1, d2, d3, d4) \
	VPSUBQ.BCST sym<>+0(SB), t0, d0  \
	VPSUBQ.BCST sym<>+8(SB), t1, d1  \
	VPSUBQ.BCST sym<>+16(SB), t2, d2 \
	VPSUBQ.BCST sym<>+24(SB), t3, d3 \
	VPSUBQ.BCST sym<>+32(SB), t4, d4

#define addConst(sym, t0, t1, t2, t3, t4, d0, d1, d2, d3, d4) \
	VPADDQ.BCST sym<>+0(SB), t0, d0  \
	VPADDQ.BCST sym<>+8(SB), t1, d1  \
	VPADDQ.BCST sym<>+16(SB), t2, d2 \
	VPADDQ.BCST sym<>+24(SB), t3, d3 \
	VPADDQ.BCST sym<>+32(SB), t4, d4

// keepNonNegative carries through d and, lane by lane, replaces it by t
// where it is negative. Z23 must be zero.
#define keepNonNegative(t0, t1, t2, t3, t4, d0, d1, d2, d3, d4, k) \
	normalize(VPSRAQ, d0, d1, d2, d3, d4) \
	VPCMPQ $1, Z23, d4, k                 \
	VMOVDQA64 t0, k, d0                   \
	VMOVDQA64 t1, k, d1                   \
	VMOVDQA64 t2, k, d2                   \
	VMOVDQA64 t3, k, d3                   \
	VMOVDQA64 t4, k, d4

// reduce2p brings t, a five-limb value in [0, 4p) given as limb-wise sums
// and differences within ±2⁶², into [0, 2p) with limbs below 2⁵². d must
// hold t − 2p, limb by limb: both are carried through, and d is kept where
// it is non-negative. The result is in d.
#define reduce2p(t0, t1, t2, t3, t4, d0, d1, d2, d3, d4, k) \
	normalize(VPSRAQ, t0, t1, t2, t3, t4) \
	keepNonNegative(t0, t1, t2, t3, t4, d0, d1, d2, d3, d4, k)

// reduce8p brings w, a five-limb value in [0, 8p), into [0, 2p) with limbs
// below 2⁵²: w − 4p replaces w where it is non-negative, then reduce2p.
// d is scratch; the result is in w.
#define reduce8p(w0, w1, w2, w3, w4, d0, d1, d2, d3, d4, k) \
	subConst(fourP52, w0, w1, w2, w3, w4, d0, d1, d2, d3, d4)   \
	keepNonNegative(w0, w1, w2, w3, w4, d0, d1, d2, d3, d4, k)  \
	subConst(twoP52, d0, d1, d2, d3, d4, w0, w1, w2, w3, w4)    \
	reduce2p(d0, d1, d2, d3, d4, w0, w1, w2, w3, w4, k)

// addCoord sets d = a + b mod 2p for the coordinate at off; t is scratch.
#define addCoord(off, t0, t1, t2, t3, t4, d0, d1, d2, d3, d4, k) \
	load5(off, SI, t0, t1, t2, t3, t4)                       \
	VPADDQ off+0(CX), t0, t0                                 \
	VPADDQ off+64(CX), t1, t1                                \
	VPADDQ off+128(CX), t2, t2                               \
	VPADDQ off+192(CX), t3, t3                               \
	VPADDQ off+256(CX), t4, t4                               \
	subConst(twoP52, t0, t1, t2, t3, t4, d0, d1, d2, d3, d4) \
	reduce2p(t0, t1, t2, t3, t4, d0, d1, d2, d3, d4, k)

// subCoord sets d = a − b mod 2p for the coordinate at off; t is scratch.
#define subCoord(off, t0, t1, t2, t3, t4, d0, d1, d2, d3, d4, k) \
	load5(off, SI, d0, d1, d2, d3, d4)                       \
	VPSUBQ off+0(CX), d0, d0                                 \
	VPSUBQ off+64(CX), d1, d1                                \
	VPSUBQ off+128(CX), d2, d2                               \
	VPSUBQ off+192(CX), d3, d3                               \
	VPSUBQ off+256(CX), d4, d4                               \
	addConst(twoP52, d0, d1, d2, d3, d4, t0, t1, t2, t3, t4) \
	reduce2p(t0, t1, t2, t3, t4, d0, d1, d2, d3, d4, k)

// func gfp2x8Add(c, a, b *gfP2x8)
//
// c = a + b in F_p², every lane: for coordinates within the invariant,
// each coordinate of c is a + b or a + b − 2p, whichever is in [0, 2p).
// c may alias a or b.
TEXT ·gfp2x8Add(SB), NOSPLIT, $0-24
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ a+8(FP), SI
	MOVQ b+16(FP), CX
	MOVQ c+0(FP), DI
	VPBROADCASTQ mask52<>(SB), Z22
	VPXORQ Z23, Z23, Z23
	addCoord(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, K1)
	addCoord(320, Z10, Z11, Z12, Z13, Z14, Z16, Z17, Z18, Z19, Z20, K2)
	store5(Z5, Z6, Z7, Z8, Z9, 0, DI)
	store5(Z16, Z17, Z18, Z19, Z20, 320, DI)
	VZEROUPPER
	RET

generic:
	JMP ·gfp2x8AddGeneric(SB)

// func gfp2x8Sub(c, a, b *gfP2x8)
//
// c = a − b in F_p², every lane: for coordinates within the invariant,
// each coordinate of c is a − b or a − b + 2p, whichever is in [0, 2p).
// c may alias a or b.
TEXT ·gfp2x8Sub(SB), NOSPLIT, $0-24
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ a+8(FP), SI
	MOVQ b+16(FP), CX
	MOVQ c+0(FP), DI
	VPBROADCASTQ mask52<>(SB), Z22
	VPXORQ Z23, Z23, Z23
	subCoord(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, K1)
	subCoord(320, Z10, Z11, Z12, Z13, Z14, Z16, Z17, Z18, Z19, Z20, K2)
	store5(Z5, Z6, Z7, Z8, Z9, 0, DI)
	store5(Z16, Z17, Z18, Z19, Z20, 320, DI)
	VZEROUPPER
	RET

generic:
	JMP ·gfp2x8SubGeneric(SB)

// func gfpx8Sub(c, a, b *gfPx8)
//
// c = a − b in F_p, every lane: for values within the invariant, a − b or
// a − b + 2p, whichever is in [0, 2p). c may alias a or b.
TEXT ·gfpx8Sub(SB), NOSPLIT, $0-24
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ a+8(FP), SI
	MOVQ b+16(FP), CX
	MOVQ c+0(FP), DI
	VPBROADCASTQ mask52<>(SB), Z22
	VPXORQ Z23, Z23, Z23
	subCoord(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, K1)
	store5(Z5, Z6, Z7, Z8, Z9, 0, DI)
	VZEROUPPER
	RET

generic:
	JMP ·gfpx8SubGeneric(SB)

// func gfp2x8MulXi(c, a *gfP2x8)
//
// c = a·ξ = (3x + y)·i + (3y − x) in F_p², every lane. For coordinates
// within the invariant 3x + y and 3y − x + 2p are in [0, 8p). c may alias a.
TEXT ·gfp2x8MulXi(SB), NOSPLIT, $0-16
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ a+8(FP), SI
	MOVQ c+0(FP), DI
	VPBROADCASTQ mask52<>(SB), Z22
	VPXORQ Z23, Z23, Z23
	load5(0, SI, Z0, Z1, Z2, Z3, Z4)
	load5(320, SI, Z5, Z6, Z7, Z8, Z9)

	// (Z14:…:Z10) = 3x + y
	VPADDQ Z0, Z0, Z10
	VPADDQ Z1, Z1, Z11
	VPADDQ Z2, Z2, Z12
	VPADDQ Z3, Z3, Z13
	VPADDQ Z4, Z4, Z14
	VPADDQ Z0, Z10, Z10
	VPADDQ Z1, Z11, Z11
	VPADDQ Z2, Z12, Z12
	VPADDQ Z3, Z13, Z13
	VPADDQ Z4, Z14, Z14
	VPADDQ Z5, Z10, Z10
	VPADDQ Z6, Z11, Z11
	VPADDQ Z7, Z12, Z12
	VPADDQ Z8, Z13, Z13
	VPADDQ Z9, Z14, Z14

	// (Z28:…:Z24) = 3y − x + 2p
	VPADDQ Z5, Z5, Z24
	VPADDQ Z6, Z6, Z25
	VPADDQ Z7, Z7, Z26
	VPADDQ Z8, Z8, Z27
	VPADDQ Z9, Z9, Z28
	VPADDQ Z5, Z24, Z24
	VPADDQ Z6, Z25, Z25
	VPADDQ Z7, Z26, Z26
	VPADDQ Z8, Z27, Z27
	VPADDQ Z9, Z28, Z28
	VPSUBQ Z0, Z24, Z24
	VPSUBQ Z1, Z25, Z25
	VPSUBQ Z2, Z26, Z26
	VPSUBQ Z3, Z27, Z27
	VPSUBQ Z4, Z28, Z28
	addConst(twoP52, Z24, Z25, Z26, Z27, Z28, Z24, Z25, Z26, Z27, Z28)

	reduce8p(Z10, Z11, Z12, Z13, Z14, Z0, Z1, Z2, Z3, Z4, K1)
	reduce8p(Z24, Z25, Z26, Z27, Z28, Z5, Z6, Z7, Z8, Z9, K2)
	store5(Z10, Z11, Z12, Z13, Z14, 0, DI)
	store5(Z24, Z25, Z26, Z27, Z28, 320, DI)
	VZEROUPPER
	RET

generic:
	JMP ·gfp2x8MulXiGeneric(SB)

// finish carries r, a signed sum of limbs whose value is in [0, 2²⁶²),
// reduces it below 2p (reduceWide) and stores it at off(base). Z15 and
// Z10–Z14 are scratch.
#define finish(r0, r1, r2, r3, r4, off, base) \
	normalize(VPSRAQ, r0, r1, r2, r3, r4)                    \
	reduceWide(r0, r1, r2, r3, r4, Z15, Z10, Z11, Z12, Z13, Z14) \
	store5(r0, r1, r2, r3, r4, off, base)

// addOff adds 16p, limb by limb: the offset that keeps a signed sum of a
// few values below 2p non-negative.
#define addOff(r0, r1, r2, r3, r4) \
	addConst(sixteenP52, r0, r1, r2, r3, r4, r0, r1, r2, r3, r4)

// The ten-limb values of gfp4x8CycloSquare live in (Z14:…:Z10) (low
// limbs) and (Z20:…:Z16) (high limbs).

// zero10 clears the ten-limb accumulator.
#define zero10() \
	VPXORQ Z10, Z10, Z10 \
	VPXORQ Z11, Z11, Z11 \
	VPXORQ Z12, Z12, Z12 \
	VPXORQ Z13, Z13, Z13 \
	VPXORQ Z14, Z14, Z14 \
	VPXORQ Z16, Z16, Z16 \
	VPXORQ Z17, Z17, Z17 \
	VPXORQ Z18, Z18, Z18 \
	VPXORQ Z19, Z19, Z19 \
	VPXORQ Z20, Z20, Z20

// wideMul adds a·b to the ten-limb accumulator, not reduced: a in a0..a4,
// the limbs of b in (Z28:…:Z24). A limb takes at most ten 52-bit terms,
// so it stays below 2⁵⁶.
#define wideMul(a0, a1, a2, a3, a4) \
	mulAccLo(Z24, a0, a1, a2, a3, a4, Z10, Z11, Z12, Z13, Z14) \
	mulAccHi(Z24, a0, a1, a2, a3, a4, Z11, Z12, Z13, Z14, Z16) \
	mulAccLo(Z25, a0, a1, a2, a3, a4, Z11, Z12, Z13, Z14, Z16) \
	mulAccHi(Z25, a0, a1, a2, a3, a4, Z12, Z13, Z14, Z16, Z17) \
	mulAccLo(Z26, a0, a1, a2, a3, a4, Z12, Z13, Z14, Z16, Z17) \
	mulAccHi(Z26, a0, a1, a2, a3, a4, Z13, Z14, Z16, Z17, Z18) \
	mulAccLo(Z27, a0, a1, a2, a3, a4, Z13, Z14, Z16, Z17, Z18) \
	mulAccHi(Z27, a0, a1, a2, a3, a4, Z14, Z16, Z17, Z18, Z19) \
	mulAccLo(Z28, a0, a1, a2, a3, a4, Z14, Z16, Z17, Z18, Z19) \
	mulAccHi(Z28, a0, a1, a2, a3, a4, Z16, Z17, Z18, Z19, Z20)

// store10 stores the ten-limb accumulator at off(R8).
#define store10(off) \
	store5(Z10, Z11, Z12, Z13, Z14, off, R8) \
	store5(Z16, Z17, Z18, Z19, Z20, off+320, R8)

// redc divides the ten-limb accumulator by 2²⁶⁰ mod p (five redcRounds);
// the result is in (Z20:…:Z16), not carried.
#define redc() \
	redcRound(Z10, Z11, Z12, Z13, Z14, Z16) \
	redcRound(Z11, Z12, Z13, Z14, Z16, Z17) \
	redcRound(Z12, Z13, Z14, Z16, Z17, Z18) \
	redcRound(Z13, Z14, Z16, Z17, Z18, Z19) \
	redcRound(Z14, Z16, Z17, Z18, Z19, Z20)

// wideSquare stores the two coordinates of z², z = x·i + y held in
// (Z4:…:Z0) and (Z9:…:Z5) below kp (k·p at kP52, k = 2 or 4), as ten-limb
// products not reduced: x·2y (below 2k²p²) at offX(R8) and
// (x + y)·(y − x + kp) (below 4k²p²) at offY(R8). It overwrites x.
#define wideSquare(kP52, offX, offY) \
	op5(VPADDQ, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9, Z24, Z25, Z26, Z27, Z28) \
	normalize(VPSRLQ, Z24, Z25, Z26, Z27, Z28)                                  \
	zero10()                                                                    \
	wideMul(Z0, Z1, Z2, Z3, Z4)                                                 \
	store10(offX)                                                               \
	op5(VPSUBQ, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z24, Z25, Z26, Z27, Z28) \
	addConst(kP52, Z24, Z25, Z26, Z27, Z28, Z24, Z25, Z26, Z27, Z28)            \
	normalize(VPSRAQ, Z24, Z25, Z26, Z27, Z28)                                  \
	op5(VPADDQ, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z0, Z1, Z2, Z3, Z4)      \
	normalize(VPSRLQ, Z0, Z1, Z2, Z3, Z4)                                       \
	zero10()                                                                    \
	wideMul(Z0, Z1, Z2, Z3, Z4)                                                 \
	store10(offY)

// sumA sets (Z4:…:Z0) and (Z9:…:Z5) to the F_p² sum of the values at
// off1(base1) and off2(base2), carried but not reduced (below 4p).
#define sumA(off1, off2, base1, base2) \
	load5(off1, base1, Z0, Z1, Z2, Z3, Z4)                                \
	load5(off1+320, base1, Z5, Z6, Z7, Z8, Z9)                            \
	op5m(VPADDQ, off2, base2, Z0, Z1, Z2, Z3, Z4, Z0, Z1, Z2, Z3, Z4)     \
	op5m(VPADDQ, off2+320, base2, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9) \
	normalize(VPSRLQ, Z0, Z1, Z2, Z3, Z4)                                 \
	normalize(VPSRLQ, Z5, Z6, Z7, Z8, Z9)

// The frame of gfp4x8CycloSquare, offsets from R8: the ten-limb squares
// Xa, Ya (a² = Xa·i + Ya), Xb, Yb and Xs, Ys (s = a + b), then 4p − 2u
// and 2v.
#define sqXA 0
#define sqYA 640
#define sqXB 1280
#define sqYB 1920
#define sqXS 2560
#define sqYS 3200
#define sqU 3840
#define sqV 4480

// sqLoad, sqAdd and sqSub load, add and subtract one half (h = 0 or 320)
// of a ten-limb value in the frame, limb by limb into r; x3 triples r.
#define sqLoad(w, h, r0, r1, r2, r3, r4) \
	load5(w+h, R8, r0, r1, r2, r3, r4)

#define sqAdd(w, h, r0, r1, r2, r3, r4) \
	op5m(VPADDQ, w+h, R8, r0, r1, r2, r3, r4, r0, r1, r2, r3, r4)

#define sqSub(w, h, r0, r1, r2, r3, r4) \
	op5m(VPSUBQ, w+h, R8, r0, r1, r2, r3, r4, r0, r1, r2, r3, r4)

#define x3(r0, r1, r2, r3, r4) \
	times3(r0, r1, r2, r3, r4, Z24, Z25, Z26, Z27, Z28)

// The ten-limb sums of the outputs, built a half at a time: one half in
// (Z14:…:Z10), the other in (Z20:…:Z16).
//
//	c0.x:  3(3Xa + Ya + Xb)
//	c0.y:  3(3Ya − Xa + Yb)
//	2ab:   Dx = Xs − Xa − Xb, Dy = Ys − Ya − Yb
#define sumC0x(h, r0, r1, r2, r3, r4) \
	sqLoad(sqXA, h, r0, r1, r2, r3, r4) \
	x3(r0, r1, r2, r3, r4)              \
	sqAdd(sqYA, h, r0, r1, r2, r3, r4)  \
	sqAdd(sqXB, h, r0, r1, r2, r3, r4)  \
	x3(r0, r1, r2, r3, r4)

#define sumC0y(h, r0, r1, r2, r3, r4) \
	sqLoad(sqYA, h, r0, r1, r2, r3, r4) \
	x3(r0, r1, r2, r3, r4)              \
	sqSub(sqXA, h, r0, r1, r2, r3, r4)  \
	sqAdd(sqYB, h, r0, r1, r2, r3, r4)  \
	x3(r0, r1, r2, r3, r4)

#define sumDx(h, r0, r1, r2, r3, r4) \
	sqLoad(sqXS, h, r0, r1, r2, r3, r4) \
	sqSub(sqXA, h, r0, r1, r2, r3, r4)  \
	sqSub(sqXB, h, r0, r1, r2, r3, r4)

#define sumDy(h, r0, r1, r2, r3, r4) \
	sqLoad(sqYS, h, r0, r1, r2, r3, r4) \
	sqSub(sqYA, h, r0, r1, r2, r3, r4)  \
	sqSub(sqYB, h, r0, r1, r2, r3, r4)

// c1.x and c1.y: 3Dx and 3Dy, or with ξ 3(3Dx + Dy) and 3(3Dy − Dx).
#define sumC1x(h, r0, r1, r2, r3, r4) \
	sumDx(h, r0, r1, r2, r3, r4) \
	x3(r0, r1, r2, r3, r4)

#define sumC1y(h, r0, r1, r2, r3, r4) \
	sumDy(h, r0, r1, r2, r3, r4) \
	x3(r0, r1, r2, r3, r4)

#define sumXiC1x(h, r0, r1, r2, r3, r4) \
	sumDx(h, r0, r1, r2, r3, r4)       \
	x3(r0, r1, r2, r3, r4)             \
	sqAdd(sqYS, h, r0, r1, r2, r3, r4) \
	sqSub(sqYA, h, r0, r1, r2, r3, r4) \
	sqSub(sqYB, h, r0, r1, r2, r3, r4) \
	x3(r0, r1, r2, r3, r4)

#define sumXiC1y(h, r0, r1, r2, r3, r4) \
	sumDy(h, r0, r1, r2, r3, r4)       \
	x3(r0, r1, r2, r3, r4)             \
	sqSub(sqXS, h, r0, r1, r2, r3, r4) \
	sqAdd(sqXA, h, r0, r1, r2, r3, r4) \
	sqAdd(sqXB, h, r0, r1, r2, r3, r4) \
	x3(r0, r1, r2, r3, r4)

// sumRedc builds the ten-limb sum sum (one of the sum macros), a half at
// a time, and reduces it (redc): the result is in (Z20:…:Z16).
#define sumRedc(sum) \
	sum(0, Z10, Z11, Z12, Z13, Z14)   \
	sum(320, Z16, Z17, Z18, Z19, Z20) \
	redc()

// cycloOut reduces one output coordinate: the ten-limb sum sum goes
// through redc, the linear term at lin(R8) (4p − 2u or 2v) and an offset
// of 16p are added, and the total, positive and below 43p, is carried,
// reduced below 2p and stored at off(DI) (finish).
#define cycloOut(sum, lin, off) \
	sumRedc(sum)                                                                \
	op5m(VPADDQ, lin, R8, Z16, Z17, Z18, Z19, Z20, Z16, Z17, Z18, Z19, Z20)   \
	addOff(Z16, Z17, Z18, Z19, Z20)                                             \
	finish(Z16, Z17, Z18, Z19, Z20, off, DI)

// func gfp4x8CycloSquare(c0, c1, a, b, u, v *gfP2x8, xi bool)
//
// One coordinate pair of the Granger–Scott cyclotomic square, every lane:
// with b + a·s ∈ F_p⁴ = F_p²[s]/(s² − ξ), whose square is
// (b² + ξa²) + 2ab·s,
//
//	c0 = 3(b² + ξa²) − 2u      c1 = 3·2ab + 2v   (3·2ξab + 2v with xi).
//
// a², b² and (a + b)² are squared as gfp2x8Square does, a + b carried but
// not reduced, and their six products are kept as ten-limb integers, not
// reduced (wideSquare); 2ab is (a + b)² − a² − b². Each of the four output
// coordinates is then one signed ten-limb sum of them reduced once (redc,
// between −14p and 23p), plus its linear term, carried once and reduced
// below 2p once (cycloOut). That is six products and four
// reductions where three F_p² squares take six of each. Inputs within the
// invariant; c0 and c1 within it. Every input is read before the first
// output is written, so c0 and c1 may alias any input.
TEXT ·gfp4x8CycloSquare(SB), 0, $5184-49
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ SP, R8
	ADDQ $63, R8
	ANDQ $~63, R8
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), CX
	MOVQ u+32(FP), DX
	MOVQ v+40(FP), BX
	VPBROADCASTQ mask52<>(SB), Z22
	VPBROADCASTQ np52<>(SB), Z23

	// 4p − 2u and 2v, limb by limb.
	load5(0, DX, Z0, Z1, Z2, Z3, Z4)
	load5(320, DX, Z5, Z6, Z7, Z8, Z9)
	op5(VPADDQ, Z0, Z1, Z2, Z3, Z4, Z0, Z1, Z2, Z3, Z4, Z0, Z1, Z2, Z3, Z4)
	op5(VPADDQ, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9)
	VPBROADCASTQ fourP52<>+0(SB), Z10
	VPBROADCASTQ fourP52<>+8(SB), Z11
	VPBROADCASTQ fourP52<>+16(SB), Z12
	VPBROADCASTQ fourP52<>+24(SB), Z13
	VPBROADCASTQ fourP52<>+32(SB), Z14
	op5(VPSUBQ, Z0, Z1, Z2, Z3, Z4, Z10, Z11, Z12, Z13, Z14, Z0, Z1, Z2, Z3, Z4)
	op5(VPSUBQ, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z5, Z6, Z7, Z8, Z9)
	store5(Z0, Z1, Z2, Z3, Z4, sqU, R8)
	store5(Z5, Z6, Z7, Z8, Z9, sqU+320, R8)
	load5(0, BX, Z0, Z1, Z2, Z3, Z4)
	load5(320, BX, Z5, Z6, Z7, Z8, Z9)
	op5(VPADDQ, Z0, Z1, Z2, Z3, Z4, Z0, Z1, Z2, Z3, Z4, Z0, Z1, Z2, Z3, Z4)
	op5(VPADDQ, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9)
	store5(Z0, Z1, Z2, Z3, Z4, sqV, R8)
	store5(Z5, Z6, Z7, Z8, Z9, sqV+320, R8)

	// a + b, below 4p.
	sumA(0, 0, SI, CX)
	wideSquare(fourP52, sqXS, sqYS)

	load5(0, SI, Z0, Z1, Z2, Z3, Z4)
	load5(320, SI, Z5, Z6, Z7, Z8, Z9)
	wideSquare(twoP52, sqXA, sqYA)
	load5(0, CX, Z0, Z1, Z2, Z3, Z4)
	load5(320, CX, Z5, Z6, Z7, Z8, Z9)
	wideSquare(twoP52, sqXB, sqYB)

	MOVQ c0+0(FP), DI
	cycloOut(sumC0x, sqU, 0)
	cycloOut(sumC0y, sqU+320, 320)
	MOVQ c1+8(FP), DI
	CMPB xi+48(FP), $0
	JNE  xi
	cycloOut(sumC1x, sqV, 0)
	cycloOut(sumC1y, sqV+320, 320)
	VZEROUPPER
	RET

xi:
	cycloOut(sumXiC1x, sqV, 0)
	cycloOut(sumXiC1y, sqV+320, 320)
	VZEROUPPER
	RET

generic:
	RET ·gfp4x8CycloSquareGeneric(SB)

// wideMulM is wideMul with the limbs of b read from the five rows at
// off(base), each loaded once into Z29.
#define wideMulM(a0, a1, a2, a3, a4, off, base) \
	VMOVDQU64 off+0(base), Z29                                   \
	mulAccLo(Z29, a0, a1, a2, a3, a4, Z10, Z11, Z12, Z13, Z14)   \
	mulAccHi(Z29, a0, a1, a2, a3, a4, Z11, Z12, Z13, Z14, Z16)   \
	VMOVDQU64 off+64(base), Z29                                  \
	mulAccLo(Z29, a0, a1, a2, a3, a4, Z11, Z12, Z13, Z14, Z16)   \
	mulAccHi(Z29, a0, a1, a2, a3, a4, Z12, Z13, Z14, Z16, Z17)   \
	VMOVDQU64 off+128(base), Z29                                 \
	mulAccLo(Z29, a0, a1, a2, a3, a4, Z12, Z13, Z14, Z16, Z17)   \
	mulAccHi(Z29, a0, a1, a2, a3, a4, Z13, Z14, Z16, Z17, Z18)   \
	VMOVDQU64 off+192(base), Z29                                 \
	mulAccLo(Z29, a0, a1, a2, a3, a4, Z13, Z14, Z16, Z17, Z18)   \
	mulAccHi(Z29, a0, a1, a2, a3, a4, Z14, Z16, Z17, Z18, Z19)   \
	VMOVDQU64 off+256(base), Z29                                 \
	mulAccLo(Z29, a0, a1, a2, a3, a4, Z14, Z16, Z17, Z18, Z19)   \
	mulAccHi(Z29, a0, a1, a2, a3, a4, Z16, Z17, Z18, Z19, Z20)

// wideMul2 stores the F_p² product of A, held in (Z4:…:Z0) (x) and
// (Z9:…:Z5) (y), and B, the two coordinates at off(base) and
// off+320(base), as two ten-limb integers not reduced: at dst(R8)
//
//	Ax·By + Ay·Bx      and, at dst+640(R8),      Ay·By + (16p − Ax)·Bx,
//
// the second one the y coordinate plus a multiple of p, so that it stays
// non-negative. Limbs of A and B below 2⁵²; a sum of two values within
// the invariant is an A or a B.
#define wideMul2(off, base, dst) \
	VPBROADCASTQ sixteenP52<>+0(SB), Z24                                         \
	VPBROADCASTQ sixteenP52<>+8(SB), Z25                                         \
	VPBROADCASTQ sixteenP52<>+16(SB), Z26                                        \
	VPBROADCASTQ sixteenP52<>+24(SB), Z27                                        \
	VPBROADCASTQ sixteenP52<>+32(SB), Z28                                        \
	op5(VPSUBQ, Z0, Z1, Z2, Z3, Z4, Z24, Z25, Z26, Z27, Z28, Z24, Z25, Z26, Z27, Z28) \
	normalize(VPSRAQ, Z24, Z25, Z26, Z27, Z28)                                   \
	zero10()                                                                     \
	wideMulM(Z0, Z1, Z2, Z3, Z4, off+320, base)                                  \
	wideMulM(Z5, Z6, Z7, Z8, Z9, off, base)                                      \
	store10(dst)                                                                 \
	zero10()                                                                     \
	wideMulM(Z5, Z6, Z7, Z8, Z9, off+320, base)                                  \
	wideMulM(Z24, Z25, Z26, Z27, Z28, off, base)                                 \
	store10(dst+640)

// The frame of gfp6x8Mul, offsets from R8: the six F_p² products as
// pairs of ten-limb integers (wideMul2), t0 = a.z·b.z, t1 = a.y·b.y,
// t2 = a.x·b.x, r0 = (a.y + a.x)·(b.y + b.x), r1 = (a.z + a.y)·(b.z + b.y)
// and rx = (a.z + a.x)·(b.z + b.x); then the three sums of b.
#define m6T0X 0
#define m6T0Y 640
#define m6T1X 1280
#define m6T1Y 1920
#define m6T2X 2560
#define m6T2Y 3200
#define m6R0X 3840
#define m6R0Y 4480
#define m6R1X 5120
#define m6R1Y 5760
#define m6RXX 6400
#define m6RXY 7040
#define m6B0 7680
#define m6B1 8320
#define m6B2 8960

// The ten-limb sums of gfp6x8Mul's outputs, a half at a time (as the
// cyclotomic square's): with L = r0 − t1 − t2,
//
//	e.z = ξ·L + t0:             x: 3Lx + Ly + t0x,  y: 3Ly − Lx + t0y
//	e.y = ξ·t2 + r1 − t0 − t1:  x: 3t2x + t2y + …,  y: 3t2y − t2x + …
//	e.x = rx + t1 − t0 − t2.
#define sumM6Zx(h, r0, r1, r2, r3, r4) \
	sqLoad(m6R0X, h, r0, r1, r2, r3, r4) \
	sqSub(m6T1X, h, r0, r1, r2, r3, r4)  \
	sqSub(m6T2X, h, r0, r1, r2, r3, r4)  \
	x3(r0, r1, r2, r3, r4)               \
	sqAdd(m6R0Y, h, r0, r1, r2, r3, r4)  \
	sqSub(m6T1Y, h, r0, r1, r2, r3, r4)  \
	sqSub(m6T2Y, h, r0, r1, r2, r3, r4)  \
	sqAdd(m6T0X, h, r0, r1, r2, r3, r4)

#define sumM6Zy(h, r0, r1, r2, r3, r4) \
	sqLoad(m6R0Y, h, r0, r1, r2, r3, r4) \
	sqSub(m6T1Y, h, r0, r1, r2, r3, r4)  \
	sqSub(m6T2Y, h, r0, r1, r2, r3, r4)  \
	x3(r0, r1, r2, r3, r4)               \
	sqSub(m6R0X, h, r0, r1, r2, r3, r4)  \
	sqAdd(m6T1X, h, r0, r1, r2, r3, r4)  \
	sqAdd(m6T2X, h, r0, r1, r2, r3, r4)  \
	sqAdd(m6T0Y, h, r0, r1, r2, r3, r4)

#define sumM6Yx(h, r0, r1, r2, r3, r4) \
	sqLoad(m6T2X, h, r0, r1, r2, r3, r4) \
	x3(r0, r1, r2, r3, r4)               \
	sqAdd(m6T2Y, h, r0, r1, r2, r3, r4)  \
	sqAdd(m6R1X, h, r0, r1, r2, r3, r4)  \
	sqSub(m6T0X, h, r0, r1, r2, r3, r4)  \
	sqSub(m6T1X, h, r0, r1, r2, r3, r4)

#define sumM6Yy(h, r0, r1, r2, r3, r4) \
	sqLoad(m6T2Y, h, r0, r1, r2, r3, r4) \
	x3(r0, r1, r2, r3, r4)               \
	sqSub(m6T2X, h, r0, r1, r2, r3, r4)  \
	sqAdd(m6R1Y, h, r0, r1, r2, r3, r4)  \
	sqSub(m6T0Y, h, r0, r1, r2, r3, r4)  \
	sqSub(m6T1Y, h, r0, r1, r2, r3, r4)

#define sumM6Xx(h, r0, r1, r2, r3, r4) \
	sqLoad(m6RXX, h, r0, r1, r2, r3, r4) \
	sqAdd(m6T1X, h, r0, r1, r2, r3, r4)  \
	sqSub(m6T0X, h, r0, r1, r2, r3, r4)  \
	sqSub(m6T2X, h, r0, r1, r2, r3, r4)

#define sumM6Xy(h, r0, r1, r2, r3, r4) \
	sqLoad(m6RXY, h, r0, r1, r2, r3, r4) \
	sqAdd(m6T1Y, h, r0, r1, r2, r3, r4)  \
	sqSub(m6T0Y, h, r0, r1, r2, r3, r4)  \
	sqSub(m6T2Y, h, r0, r1, r2, r3, r4)

// wideOut reduces one output coordinate: the ten-limb sum sum goes through
// redc, an offset of 16p is added, and the total, positive and below 2²⁶²,
// is carried, reduced below 2p and stored at off(DI) (finish).
#define wideOut(sum, off) \
	sumRedc(sum)                    \
	addOff(Z16, Z17, Z18, Z19, Z20) \
	finish(Z16, Z17, Z18, Z19, Z20, off, DI)

// func gfp6x8Mul(c, a, b *gfP6x8)
//
// c = a·b in F_p⁶, every lane, with gfP6.Mul's six F_p² products: those of
// the coordinates and those of their sums, the sums carried but not
// reduced. Each F_p² product is kept as two ten-limb integers
// (wideMul2), and each output coordinate is one signed sum of them, the
// Karatsuba fix-ups and the two multiplications by ξ included, reduced
// once (redc, between −9p and 12p), carried once and brought below 2p
// once (wideOut): six reductions where six F_p² multiplications take
// twelve. Inputs within the invariant; c within it and may alias a or b.
TEXT ·gfp6x8Mul(SB), 0, $9664-24
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ SP, R8
	ADDQ $63, R8
	ANDQ $~63, R8
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), CX
	VPBROADCASTQ mask52<>(SB), Z22
	VPBROADCASTQ np52<>(SB), Z23

	// The sums of b, which the products read row by row from the frame.
	sumA(640, 0, CX, CX)
	store5(Z0, Z1, Z2, Z3, Z4, m6B0, R8)
	store5(Z5, Z6, Z7, Z8, Z9, m6B0+320, R8)
	sumA(1280, 640, CX, CX)
	store5(Z0, Z1, Z2, Z3, Z4, m6B1, R8)
	store5(Z5, Z6, Z7, Z8, Z9, m6B1+320, R8)
	sumA(1280, 0, CX, CX)
	store5(Z0, Z1, Z2, Z3, Z4, m6B2, R8)
	store5(Z5, Z6, Z7, Z8, Z9, m6B2+320, R8)

	load5(1280, SI, Z0, Z1, Z2, Z3, Z4)
	load5(1600, SI, Z5, Z6, Z7, Z8, Z9)
	wideMul2(1280, CX, m6T0X)
	load5(640, SI, Z0, Z1, Z2, Z3, Z4)
	load5(960, SI, Z5, Z6, Z7, Z8, Z9)
	wideMul2(640, CX, m6T1X)
	load5(0, SI, Z0, Z1, Z2, Z3, Z4)
	load5(320, SI, Z5, Z6, Z7, Z8, Z9)
	wideMul2(0, CX, m6T2X)
	sumA(640, 0, SI, SI)
	wideMul2(m6B0, R8, m6R0X)
	sumA(1280, 640, SI, SI)
	wideMul2(m6B1, R8, m6R1X)
	sumA(1280, 0, SI, SI)
	wideMul2(m6B2, R8, m6RXX)

	MOVQ c+0(FP), DI
	wideOut(sumM6Zx, 1280)
	wideOut(sumM6Zy, 1600)
	wideOut(sumM6Yx, 640)
	wideOut(sumM6Yy, 960)
	wideOut(sumM6Xx, 0)
	wideOut(sumM6Xy, 320)
	VZEROUPPER
	RET

generic:
	RET ·gfp6x8MulGeneric(SB)

// xiX and xiY set d to the coordinates of ξ·(x·i + y) = (3x + y)·i +
// (3y − x) for x and y in registers, limb by limb and unreduced.
#define xiX(x0, x1, x2, x3, x4, y0, y1, y2, y3, y4, d0, d1, d2, d3, d4) \
	op5(VPADDQ, x0, x1, x2, x3, x4, x0, x1, x2, x3, x4, d0, d1, d2, d3, d4) \
	op5(VPADDQ, x0, x1, x2, x3, x4, d0, d1, d2, d3, d4, d0, d1, d2, d3, d4) \
	op5(VPADDQ, y0, y1, y2, y3, y4, d0, d1, d2, d3, d4, d0, d1, d2, d3, d4)

#define xiY(x0, x1, x2, x3, x4, y0, y1, y2, y3, y4, d0, d1, d2, d3, d4) \
	op5(VPADDQ, y0, y1, y2, y3, y4, y0, y1, y2, y3, y4, d0, d1, d2, d3, d4) \
	op5(VPADDQ, y0, y1, y2, y3, y4, d0, d1, d2, d3, d4, d0, d1, d2, d3, d4) \
	op5(VPSUBQ, x0, x1, x2, x3, x4, d0, d1, d2, d3, d4, d0, d1, d2, d3, d4)

// pairX and pairY add one F_p² product A·B to the ten-limb accumulator,
// x and y coordinate: A the two coordinates at offA(baseA) and
// offA+320(baseA), B those at offB(baseB) and offB+320(baseB),
//
//	x: Ax·By + Ay·Bx      y: Ay·By + (16p − Ax)·Bx,
//
// as wideMul2 does. A may be any value whose limbs are below 2⁵² and
// which is below 16p; (Z4:…:Z0) is scratch.
#define pairX(offA, baseA, offB, baseB) \
	load5(offA, baseA, Z0, Z1, Z2, Z3, Z4)         \
	wideMulM(Z0, Z1, Z2, Z3, Z4, offB+320, baseB)  \
	load5(offA+320, baseA, Z0, Z1, Z2, Z3, Z4)     \
	wideMulM(Z0, Z1, Z2, Z3, Z4, offB, baseB)

#define pairY(offA, baseA, offB, baseB) \
	load5(offA+320, baseA, Z0, Z1, Z2, Z3, Z4)                                  \
	wideMulM(Z0, Z1, Z2, Z3, Z4, offB+320, baseB)                               \
	VPBROADCASTQ sixteenP52<>+0(SB), Z0                                         \
	VPBROADCASTQ sixteenP52<>+8(SB), Z1                                         \
	VPBROADCASTQ sixteenP52<>+16(SB), Z2                                        \
	VPBROADCASTQ sixteenP52<>+24(SB), Z3                                        \
	VPBROADCASTQ sixteenP52<>+32(SB), Z4                                        \
	op5m(VPSUBQ, offA, baseA, Z0, Z1, Z2, Z3, Z4, Z0, Z1, Z2, Z3, Z4)           \
	normalize(VPSRAQ, Z0, Z1, Z2, Z3, Z4)                                       \
	wideMulM(Z0, Z1, Z2, Z3, Z4, offB, baseB)

// pairOut stores A1·B1 + A2·B2 at off(DI) and off+320(DI), each coordinate
// a sum of four products reduced once (redc) and brought below 2p
// (finish).
#define pairOut(offA1, baseA1, offB1, baseB1, offA2, baseA2, offB2, baseB2, off) \
	zero10()                                 \
	pairX(offA1, baseA1, offB1, baseB1)      \
	pairX(offA2, baseA2, offB2, baseB2)      \
	redc()                                   \
	finish(Z16, Z17, Z18, Z19, Z20, off, DI) \
	zero10()                                 \
	pairY(offA1, baseA1, offB1, baseB1)      \
	pairY(offA2, baseA2, offB2, baseB2)      \
	redc()                                   \
	finish(Z16, Z17, Z18, Z19, Z20, off+320, DI)

// func gfp6x8MulSparse2(e, a *gfP6x8, y2, z2 *gfP2x8)
//
// e = a·(y2·τ + z2) in F_p⁶, every lane, as gfP6.MulSparse2 forms it:
//
//	e.z = ξ·a.x·y2 + a.z·z2      e.y = a.y·z2 + a.z·y2      e.x = a.x·z2 + a.y·y2,
//
// each coordinate a sum of four products reduced once (pairOut), with ξ
// taken into the multiplicand: ξ·a.x, carried but not reduced (below 10p),
// is held in the frame. Inputs within the invariant, e within it; e must
// not alias a.
TEXT ·gfp6x8MulSparse2(SB), 0, $704-32
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ SP, R8
	ADDQ $63, R8
	ANDQ $~63, R8
	MOVQ e+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ y2+16(FP), CX
	MOVQ z2+24(FP), DX
	VPBROADCASTQ mask52<>(SB), Z22
	VPBROADCASTQ np52<>(SB), Z23

	load5(0, SI, Z0, Z1, Z2, Z3, Z4)
	load5(320, SI, Z5, Z6, Z7, Z8, Z9)
	xiX(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14)
	normalize(VPSRLQ, Z10, Z11, Z12, Z13, Z14)
	store5(Z10, Z11, Z12, Z13, Z14, 0, R8)
	xiY(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14)
	addConst(twoP52, Z10, Z11, Z12, Z13, Z14, Z10, Z11, Z12, Z13, Z14)
	normalize(VPSRAQ, Z10, Z11, Z12, Z13, Z14)
	store5(Z10, Z11, Z12, Z13, Z14, 320, R8)

	pairOut(0, R8, 0, CX, 1280, SI, 0, DX, 1280)
	pairOut(640, SI, 0, DX, 1280, SI, 0, CX, 640)
	pairOut(0, SI, 0, DX, 640, SI, 0, CX, 0)
	VZEROUPPER
	RET

generic:
	RET ·gfp6x8MulSparse2Generic(SB)

// subSubCoord stores a − b − d + 16p, reduced (finish), for the
// coordinate at off: SI, CX and DX hold a, b and d.
#define subSubCoord(off, r0, r1, r2, r3, r4) \
	load5(off, SI, r0, r1, r2, r3, r4)                             \
	op5m(VPSUBQ, off, CX, r0, r1, r2, r3, r4, r0, r1, r2, r3, r4)  \
	op5m(VPSUBQ, off, DX, r0, r1, r2, r3, r4, r0, r1, r2, r3, r4)  \
	addOff(r0, r1, r2, r3, r4)                                     \
	finish(r0, r1, r2, r3, r4, off, DI)

// func gfp6x8SubSub(c, a, b, d *gfP6x8)
//
// c = a − b − d in F_p⁶, every lane, each output coordinate reduced once
// from a sum below 18p. Inputs within the invariant; c may alias any of
// them.
TEXT ·gfp6x8SubSub(SB), NOSPLIT, $0-32
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), CX
	MOVQ d+24(FP), DX
	VPBROADCASTQ mask52<>(SB), Z22
	subSubCoord(0, Z0, Z1, Z2, Z3, Z4)
	subSubCoord(320, Z5, Z6, Z7, Z8, Z9)
	subSubCoord(640, Z0, Z1, Z2, Z3, Z4)
	subSubCoord(960, Z5, Z6, Z7, Z8, Z9)
	subSubCoord(1280, Z0, Z1, Z2, Z3, Z4)
	subSubCoord(1600, Z5, Z6, Z7, Z8, Z9)
	VZEROUPPER
	RET

generic:
	JMP ·gfp6x8SubSubGeneric(SB)

// addCoordAt stores a + b, reduced (finish), at offC(DI), for a at
// offA(SI) and b at offB(CX).
#define addCoordAt(offC, offA, offB, r0, r1, r2, r3, r4) \
	load5(offA, SI, r0, r1, r2, r3, r4)                            \
	op5m(VPADDQ, offB, CX, r0, r1, r2, r3, r4, r0, r1, r2, r3, r4) \
	finish(r0, r1, r2, r3, r4, offC, DI)

// func gfp6x8MulTauAdd(c, a, b *gfP6x8)
//
// c = τ·a + b in F_p⁶, every lane: c.z = ξ·a.x + b.z, c.y = a.z + b.y and
// c.x = a.y + b.x, each output coordinate reduced once from a sum below
// 12p. Inputs within the invariant; c may alias b but not a.
TEXT ·gfp6x8MulTauAdd(SB), NOSPLIT, $0-24
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), CX
	VPBROADCASTQ mask52<>(SB), Z22
	load5(0, SI, Z0, Z1, Z2, Z3, Z4)
	load5(320, SI, Z5, Z6, Z7, Z8, Z9)
	xiX(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z24, Z25, Z26, Z27, Z28)
	op5m(VPADDQ, 1280, CX, Z24, Z25, Z26, Z27, Z28, Z24, Z25, Z26, Z27, Z28)
	finish(Z24, Z25, Z26, Z27, Z28, 1280, DI)
	xiY(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z24, Z25, Z26, Z27, Z28)
	op5m(VPADDQ, 1600, CX, Z24, Z25, Z26, Z27, Z28, Z24, Z25, Z26, Z27, Z28)
	addConst(twoP52, Z24, Z25, Z26, Z27, Z28, Z24, Z25, Z26, Z27, Z28)
	finish(Z24, Z25, Z26, Z27, Z28, 1600, DI)
	addCoordAt(640, 1280, 640, Z0, Z1, Z2, Z3, Z4)
	addCoordAt(960, 1600, 960, Z5, Z6, Z7, Z8, Z9)
	addCoordAt(0, 640, 0, Z0, Z1, Z2, Z3, Z4)
	addCoordAt(320, 960, 320, Z5, Z6, Z7, Z8, Z9)
	VZEROUPPER
	RET

generic:
	JMP ·gfp6x8MulTauAddGeneric(SB)

// The G1 point kernels: one complete a = 0 projective doubling and one
// complete addition (Renes–Costello–Batina, Algorithms 9 and 7) on eight
// points at a time, a g1x8Proj being three gfPx8, X at 0, Y at 320 and Z
// at 640. Products are reduced as gfpx8Mul's are, each sum of two products
// that meets in an output coordinate once (mulRound2), and the linear
// terms between them are limb-wise sums carried once and brought below 2p
// by one reduceWide where a product's bound needs it, and not at all where
// it does not. The multiplications by 3b = 9 and by 8 are shifts and adds
// of limbs. Temporaries live in a frame, 64-byte aligned in R8.

// clearAcc clears the accumulator a multiplication leaves its product in.
#define clearAcc() \
	VPXORQ Z21, Z21, Z21 \
	VPXORQ Z16, Z16, Z16 \
	VPXORQ Z17, Z17, Z17 \
	VPXORQ Z18, Z18, Z18 \
	VPXORQ Z19, Z19, Z19

// g1Mul stores the product of the values at aoff(abase) and boff(bbase),
// below 2p, at doff(dbase), five mulRounds as mul1 does, and leaves the
// accumulator clear. Limbs of both below 2⁵² and their product below
// 2²⁶⁰·p. mulInit must have run.
#define g1Mul(aoff, abase, boff, bbase, doff, dbase) \
	load5(aoff, abase, Z0, Z1, Z2, Z3, Z4)                          \
	VMOVDQU64 boff+0(bbase), Z29                                    \
	mulRound(Z29, Z0, Z1, Z2, Z3, Z4, Z16, Z17, Z18, Z19, Z20, Z21) \
	VMOVDQU64 boff+64(bbase), Z29                                   \
	mulRound(Z29, Z0, Z1, Z2, Z3, Z4, Z17, Z18, Z19, Z20, Z21, Z16) \
	VMOVDQU64 boff+128(bbase), Z29                                  \
	mulRound(Z29, Z0, Z1, Z2, Z3, Z4, Z18, Z19, Z20, Z21, Z16, Z17) \
	VMOVDQU64 boff+192(bbase), Z29                                  \
	mulRound(Z29, Z0, Z1, Z2, Z3, Z4, Z19, Z20, Z21, Z16, Z17, Z18) \
	VMOVDQU64 boff+256(bbase), Z29                                  \
	mulRound(Z29, Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z16, Z17, Z18, Z19) \
	mulFinish()                                                     \
	store5(Z21, Z16, Z17, Z18, Z19, doff, dbase)                    \
	clearAcc()

// g1Mul2 stores a·b + c·d, reduced once (mulRound2) and below 2p, at
// doff(DI): a and c in the frame at aoff and coff, b and d at boff and
// doff2 in the frame. The sum of the two products must be below 2²⁶⁰·p.
#define g1Mul2(aoff, boff, coff, doff2, doff) \
	load5(aoff, R8, Z0, Z1, Z2, Z3, Z4)                                                         \
	load5(coff, R8, Z5, Z6, Z7, Z8, Z9)                                                         \
	VMOVDQU64 boff+0(R8), Z29                                                                   \
	VMOVDQU64 doff2+0(R8), Z30                                                                  \
	mulRound2(Z29, Z0, Z1, Z2, Z3, Z4, Z30, Z5, Z6, Z7, Z8, Z9, Z16, Z17, Z18, Z19, Z20, Z21) \
	VMOVDQU64 boff+64(R8), Z29                                                                  \
	VMOVDQU64 doff2+64(R8), Z30                                                                 \
	mulRound2(Z29, Z0, Z1, Z2, Z3, Z4, Z30, Z5, Z6, Z7, Z8, Z9, Z17, Z18, Z19, Z20, Z21, Z16) \
	VMOVDQU64 boff+128(R8), Z29                                                                 \
	VMOVDQU64 doff2+128(R8), Z30                                                                \
	mulRound2(Z29, Z0, Z1, Z2, Z3, Z4, Z30, Z5, Z6, Z7, Z8, Z9, Z18, Z19, Z20, Z21, Z16, Z17) \
	VMOVDQU64 boff+192(R8), Z29                                                                 \
	VMOVDQU64 doff2+192(R8), Z30                                                                \
	mulRound2(Z29, Z0, Z1, Z2, Z3, Z4, Z30, Z5, Z6, Z7, Z8, Z9, Z19, Z20, Z21, Z16, Z17, Z18) \
	VMOVDQU64 boff+256(R8), Z29                                                                 \
	VMOVDQU64 doff2+256(R8), Z30                                                                \
	mulRound2(Z29, Z0, Z1, Z2, Z3, Z4, Z30, Z5, Z6, Z7, Z8, Z9, Z20, Z21, Z16, Z17, Z18, Z19) \
	mulFinish()                                                                                 \
	store5(Z21, Z16, Z17, Z18, Z19, doff, DI)                                                   \
	clearAcc()

// g1Reduce carries r, a signed sum of limbs whose value is in
// [0, 2²⁶²), brings it below 2p (reduceWide) and stores it at off(base).
// Z10–Z15 are scratch.
#define g1Reduce(r0, r1, r2, r3, r4, off, base) \
	normalize(VPSRAQ, r0, r1, r2, r3, r4)                        \
	reduceWide(r0, r1, r2, r3, r4, Z15, Z10, Z11, Z12, Z13, Z14) \
	store5(r0, r1, r2, r3, r4, off, base)

// g1Carry carries r, a non-negative sum of limbs, and stores it at
// off(R8), not reduced.
#define g1Carry(r0, r1, r2, r3, r4, off) \
	normalize(VPSRAQ, r0, r1, r2, r3, r4) \
	store5(r0, r1, r2, r3, r4, off, R8)

// g1Sum2 stores, at doff(R8), the sum of the values at aoff(abase) and
// boff(bbase), carried and not reduced.
#define g1Sum2(aoff, abase, boff, bbase, doff) \
	load5(aoff, abase, Z5, Z6, Z7, Z8, Z9)                          \
	op5m(VPADDQ, boff, bbase, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9) \
	g1Carry(Z5, Z6, Z7, Z8, Z9, doff)

// g1Cross sets the value at off(R8), a product (a + b)·(c + d), to
// ad + bc = (a + b)·(c + d) − ac − bd, with ac and bd at acOff and bdOff:
// 16p keeps the difference non-negative, and it is reduced below 2p.
#define g1Cross(off, acOff, bdOff) \
	load5(off, R8, Z5, Z6, Z7, Z8, Z9)                               \
	op5m(VPSUBQ, acOff, R8, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9)  \
	op5m(VPSUBQ, bdOff, R8, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9)  \
	addOff(Z5, Z6, Z7, Z8, Z9)                                       \
	g1Reduce(Z5, Z6, Z7, Z8, Z9, off, R8)

// g1Times9 sets the value at off(R8) to 9 times itself (8x + x, limb
// shifts and adds), reduced below 2p.
#define g1Times9(off) \
	load5(off, R8, Z5, Z6, Z7, Z8, Z9)                                          \
	op5(VPSLLQ, $3, $3, $3, $3, $3, Z5, Z6, Z7, Z8, Z9, Z24, Z25, Z26, Z27, Z28) \
	op5(VPADDQ, Z24, Z25, Z26, Z27, Z28, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9) \
	g1Reduce(Z5, Z6, Z7, Z8, Z9, off, R8)

// The frame of g1x8Double, offsets from R8.
#define dblXY 0
#define dblYY 320
#define dblYZ 640
#define dblZZ 960
#define dblY8 1280
#define dblX 1600
#define dblY 1920

// func g1x8Double(c, a *g1x8Proj)
//
// c = 2a, every lane, by Algorithm 9 with 3b = 9:
//
//	X3 = 2·XY·(Y² − 3·3bZ²)
//	Y3 = 8Y²·3bZ² + (Y² − 3·3bZ²)·(Y² + 3bZ²)
//	Z3 = 8Y²·YZ
//
// in the order of the algorithm: XY, Y², YZ and Z² (four products), 8Y²
// and 3bZ² (shifts and adds, reduced), X' = 3bZ²·8Y² and Z3 = YZ·8Y²,
// t = Y² − 3·3bZ² (reduced) and Y' = Y² + 3bZ² (below 4p, not reduced),
// Y3 = X' + t·Y' and X3 = 2·t·XY, the two reduced. Eight products where the
// composed formula takes nine. Inputs within the invariant; every read of
// a comes before the first write to c, so c may alias a.
TEXT ·g1x8Double(SB), 0, $2304-16
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ SP, R8
	ADDQ $63, R8
	ANDQ $~63, R8
	MOVQ a+8(FP), SI
	MOVQ c+0(FP), DI
	mulInit()

	g1Mul(0, SI, 320, SI, dblXY, R8)
	g1Mul(320, SI, 320, SI, dblYY, R8)
	g1Mul(320, SI, 640, SI, dblYZ, R8)
	g1Mul(640, SI, 640, SI, dblZZ, R8)

	// 8Y² and 3bZ², reduced.
	load5(dblYY, R8, Z5, Z6, Z7, Z8, Z9)
	op5(VPSLLQ, $3, $3, $3, $3, $3, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9)
	g1Reduce(Z5, Z6, Z7, Z8, Z9, dblY8, R8)
	g1Times9(dblZZ)

	g1Mul(dblZZ, R8, dblY8, R8, dblX, R8)
	g1Mul(dblYZ, R8, dblY8, R8, 640, DI)

	// Y' = Y² + 3bZ², below 4p; t = Y² − 3·3bZ² + 16p, reduced.
	load5(dblYY, R8, Z5, Z6, Z7, Z8, Z9)
	load5(dblZZ, R8, Z24, Z25, Z26, Z27, Z28)
	op5(VPADDQ, Z24, Z25, Z26, Z27, Z28, Z5, Z6, Z7, Z8, Z9, Z0, Z1, Z2, Z3, Z4)
	g1Carry(Z0, Z1, Z2, Z3, Z4, dblY)
	times3(Z24, Z25, Z26, Z27, Z28, Z0, Z1, Z2, Z3, Z4)
	op5(VPSUBQ, Z24, Z25, Z26, Z27, Z28, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9)
	addOff(Z5, Z6, Z7, Z8, Z9)
	g1Reduce(Z5, Z6, Z7, Z8, Z9, dblYY, R8)

	// Y3 = X' + t·Y', X3 = 2·t·XY.
	g1Mul(dblYY, R8, dblY, R8, dblY, R8)
	load5(dblX, R8, Z5, Z6, Z7, Z8, Z9)
	op5m(VPADDQ, dblY, R8, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9)
	g1Reduce(Z5, Z6, Z7, Z8, Z9, 320, DI)
	g1Mul(dblYY, R8, dblXY, R8, dblX, R8)
	load5(dblX, R8, Z5, Z6, Z7, Z8, Z9)
	op5(VPADDQ, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9)
	g1Reduce(Z5, Z6, Z7, Z8, Z9, 0, DI)
	VZEROUPPER
	RET

generic:
	RET ·g1x8DoubleGeneric(SB)

// The frame of g1x8Add, offsets from R8.
#define addXX 0
#define addYY 320
#define addZZ 640
#define addXY 960
#define addYZ 1280
#define addXZ 1600
#define addZ 1920
#define addN 2240
#define addS1 2560
#define addS2 2880

// func g1x8Add(c, a, b *g1x8Proj)
//
// c = a + b, every lane, by Algorithm 7 with 3b = 9:
//
//	X3 = XY·(YY − 3bZZ) − YZ·3bXZ
//	Y3 = (YY − 3bZZ)·(YY + 3bZZ) + 3bXZ·3XX
//	Z3 = (YY + 3bZZ)·YZ + 3XX·XY
//
// with XX = X1X2, YY = Y1Y2, ZZ = Z1Z2 and the cross terms XY = X1Y2 +
// X2Y1 = (X1 + Y1)(X2 + Y2) − XX − YY, YZ and XZ the same way: six
// products, then the three outputs, each a sum of two products reduced once
// (g1Mul2, twelve products in all where the composed formula takes
// fourteen). Bounds: the cross sums are below 4p and each cross term is
// reduced; 3XX, 3bZZ and 3bXZ are reduced; YY + 3bZZ and
// YY − 3bZZ + 2p are below 4p, not reduced, and 2p − YZ is at most 2p; so
// the three output sums are below 12p², 20p² and 12p², below 2²⁶⁰·p.
// Inputs within the invariant; every read of a and b comes before the first
// write to c, so c may alias either.
TEXT ·g1x8Add(SB), 0, $3264-24
	CMPB ·supportsIFMA(SB), $0
	JEQ  generic

	MOVQ SP, R8
	ADDQ $63, R8
	ANDQ $~63, R8
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), CX
	MOVQ c+0(FP), DI
	mulInit()

	g1Mul(0, SI, 0, CX, addXX, R8)
	g1Mul(320, SI, 320, CX, addYY, R8)
	g1Mul(640, SI, 640, CX, addZZ, R8)

	g1Sum2(0, SI, 320, SI, addS1)
	g1Sum2(0, CX, 320, CX, addS2)
	g1Mul(addS1, R8, addS2, R8, addXY, R8)
	g1Sum2(320, SI, 640, SI, addS1)
	g1Sum2(320, CX, 640, CX, addS2)
	g1Mul(addS1, R8, addS2, R8, addYZ, R8)
	g1Sum2(0, SI, 640, SI, addS1)
	g1Sum2(0, CX, 640, CX, addS2)
	g1Mul(addS1, R8, addS2, R8, addXZ, R8)
	g1Cross(addXY, addXX, addYY)
	g1Cross(addYZ, addYY, addZZ)
	g1Cross(addXZ, addXX, addZZ)

	// 3XX, 3bZZ and 3bXZ, reduced; YY + 3bZZ and YY − 3bZZ + 2p, and
	// 2p − YZ, carried.
	load5(addXX, R8, Z5, Z6, Z7, Z8, Z9)
	times3(Z5, Z6, Z7, Z8, Z9, Z0, Z1, Z2, Z3, Z4)
	g1Reduce(Z5, Z6, Z7, Z8, Z9, addXX, R8)
	g1Times9(addZZ)
	g1Times9(addXZ)
	load5(addYY, R8, Z5, Z6, Z7, Z8, Z9)
	load5(addZZ, R8, Z24, Z25, Z26, Z27, Z28)
	op5(VPADDQ, Z24, Z25, Z26, Z27, Z28, Z5, Z6, Z7, Z8, Z9, Z0, Z1, Z2, Z3, Z4)
	g1Carry(Z0, Z1, Z2, Z3, Z4, addZ)
	op5(VPSUBQ, Z24, Z25, Z26, Z27, Z28, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9)
	addConst(twoP52, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9)
	g1Carry(Z5, Z6, Z7, Z8, Z9, addYY)
	VPBROADCASTQ twoP52<>+0(SB), Z5
	VPBROADCASTQ twoP52<>+8(SB), Z6
	VPBROADCASTQ twoP52<>+16(SB), Z7
	VPBROADCASTQ twoP52<>+24(SB), Z8
	VPBROADCASTQ twoP52<>+32(SB), Z9
	op5m(VPSUBQ, addYZ, R8, Z5, Z6, Z7, Z8, Z9, Z5, Z6, Z7, Z8, Z9)
	g1Carry(Z5, Z6, Z7, Z8, Z9, addN)

	g1Mul2(addXY, addYY, addN, addXZ, 0)
	g1Mul2(addYY, addZ, addXZ, addXX, 320)
	g1Mul2(addZ, addYZ, addXX, addXY, 640)
	VZEROUPPER
	RET

generic:
	RET ·g1x8AddGeneric(SB)

// func cpuidIFMA() bool
//
// Reports whether the lane kernels can run: CPUID leaf 7 (sub-leaf 0) EBX
// has AVX512F (bit 16) and AVX512IFMA (bit 21), and the operating system
// saves the registers they use — CPUID leaf 1 ECX has OSXSAVE (bit 27) and
// XCR0 enables SSE, AVX, opmask and both ZMM state components (bits 1, 2,
// 5, 6, 7).
TEXT ·cpuidIFMA(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JCS  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x8000000, CX
	JEQ  done
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x210000, BX
	CMPL BX, $0x210000
	SETEQ ret+0(FP)
done:
	RET
