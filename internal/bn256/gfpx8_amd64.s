//go:build amd64 && !purego

#include "textflag.h"

// The lane kernels: F_p and F_p² arithmetic on eight independent values at
// a time, one per 64-bit lane of a ZMM register, in five limbs of 52 bits
// (see gfPx8 in gfpx8.go for the representation and the invariant). They
// need AVX-512F and AVX-512 IFMA; when supportsIFMA is false each one
// continues in its Generic twin, the way gfpMul does.
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
// p, 2p and 4p are read from RODATA with an embedded broadcast.

// Radix-2⁵² constants: the five 52-bit limbs of p, 2p and 4p, low limb
// first, and np = −p⁻¹ mod 2⁵². They are entered by hand — the Generic twins
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

// reduce adds m·p to the accumulator and divides it by 2⁵²: t0 becomes a
// multiple of 2⁵², what it holds above bit 52 moves to t1, and t0 is
// cleared to be the top limb of the next round (the caller rotates the
// names). A limb takes at most six 52-bit terms and one carry per round and
// lives for five rounds, so it stays below 2⁵⁷.
#define reduce(t0, t1, t2, t3, t4, t5) \
	VPMADD52LUQ.BCST p52<>+0(SB), Z15, t0  \
	VPMADD52LUQ.BCST p52<>+8(SB), Z15, t1  \
	VPMADD52LUQ.BCST p52<>+16(SB), Z15, t2 \
	VPMADD52LUQ.BCST p52<>+24(SB), Z15, t3 \
	VPMADD52LUQ.BCST p52<>+32(SB), Z15, t4 \
	VPMADD52HUQ.BCST p52<>+0(SB), Z15, t1  \
	VPMADD52HUQ.BCST p52<>+8(SB), Z15, t2  \
	VPMADD52HUQ.BCST p52<>+16(SB), Z15, t3 \
	VPMADD52HUQ.BCST p52<>+24(SB), Z15, t4 \
	VPMADD52HUQ.BCST p52<>+32(SB), Z15, t5 \
	VPSRLQ $52, t0, t0                     \
	VPADDQ t0, t1, t1                      \
	VPXORQ t0, t0, t0

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

	VMOVDQU64 0(CX), Z29
	mulRound(Z29, Z0, Z1, Z2, Z3, Z4, Z16, Z17, Z18, Z19, Z20, Z21)
	VMOVDQU64 64(CX), Z29
	mulRound(Z29, Z0, Z1, Z2, Z3, Z4, Z17, Z18, Z19, Z20, Z21, Z16)
	VMOVDQU64 128(CX), Z29
	mulRound(Z29, Z0, Z1, Z2, Z3, Z4, Z18, Z19, Z20, Z21, Z16, Z17)
	VMOVDQU64 192(CX), Z29
	mulRound(Z29, Z0, Z1, Z2, Z3, Z4, Z19, Z20, Z21, Z16, Z17, Z18)
	VMOVDQU64 256(CX), Z29
	mulRound(Z29, Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z16, Z17, Z18, Z19)

	mulFinish()
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
