package bn256

import "math/big"

// This file implements the optimal ate pairing
//
//	e(Q, P) = (f_{6u+2,Q}(P) · l_{[6u+2]Q, π(Q)}(P) · l_{[6u+2]Q+π(Q), −π²(Q)}(P))^((p¹²−1)/n)
//
// for Q in the order-n subgroup of the twist and P ∈ E(F_p). The Miller
// loop works on affine twist coordinates: the untwist map for our tower is
// (x', y') ↦ (x'·w², y'·w³) with w⁶ = ξ, so a line through untwisted points
// evaluated at P = (x_P, y_P) collapses to the sparse element
//
//	l(P) = y_P − λ'·x_P·w + (λ'·x'_S − y'_S)·w³,
//
// where λ' ∈ F_p² is the twist-coordinate slope and S is the point the line
// passes through. Vertical lines lie in the even subalgebra F_p⁶ and are
// eliminated by the final exponentiation, so they are omitted. The loop is
// the textbook one over the NAF digits of 6u+2 — deliberately not the limb
// core's flattened millerSchedule — so the differential tests also pin that
// table.

// refLineValue assembles the sparse line element from its three coefficients:
// c0 at w⁰ (a base-field scalar), c1 at w¹ and c3 at w³ (both F_p²).
func refLineValue(c0 *big.Int, c1, c3 *refGfP2) *refGfP12 {
	l := newRefGFp12()
	l.y.z.y.Set(c0) // w⁰
	l.x.z.Set(c1)   // w¹ = ω
	l.x.y.Set(c3)   // w³ = τ·ω
	return l.Minimal()
}

// refAffineTwist is a twist point in affine coordinates for the Miller loop.
type refAffineTwist struct {
	x, y *refGfP2
}

// doubleStep doubles r in place and returns the tangent-line coefficients
// at p (the sparse slots of refLineValue).
func (r *refAffineTwist) doubleStep(p *refCurvePoint) (*big.Int, *refGfP2, *refGfP2) {
	// λ' = 3x²/(2y)
	lam := newRefGFp2().Square(r.x)
	three := newRefGFp2().Double(lam)
	three.Add(three, lam)
	den := newRefGFp2().Double(r.y)
	den.Invert(den)
	lam.Mul(three, den)

	// Line: y_P − λ'x_P·w + (λ'x_R − y_R)·w³, using R before doubling.
	c1 := newRefGFp2().MulScalar(lam, p.x)
	c1.Neg(c1)
	c3 := newRefGFp2().Mul(lam, r.x)
	c3.Sub(c3, r.y)

	// x3 = λ'² − 2x, y3 = λ'(x − x3) − y.
	x3 := newRefGFp2().Square(lam)
	x3.Sub(x3, r.x)
	x3.Sub(x3, r.x)
	y3 := newRefGFp2().Sub(r.x, x3)
	y3.Mul(y3, lam)
	y3.Sub(y3, r.y)

	r.x.Set(x3)
	r.y.Set(y3)
	return p.y, c1, c3
}

// addStep adds q to r in place and returns the chord-line coefficients at p.
func (r *refAffineTwist) addStep(q *refAffineTwist, p *refCurvePoint) (*big.Int, *refGfP2, *refGfP2) {
	// λ' = (y_R − y_Q)/(x_R − x_Q)
	num := newRefGFp2().Sub(r.y, q.y)
	den := newRefGFp2().Sub(r.x, q.x)
	den.Invert(den)
	lam := newRefGFp2().Mul(num, den)

	c1 := newRefGFp2().MulScalar(lam, p.x)
	c1.Neg(c1)
	c3 := newRefGFp2().Mul(lam, q.x)
	c3.Sub(c3, q.y)

	x3 := newRefGFp2().Square(lam)
	x3.Sub(x3, r.x)
	x3.Sub(x3, q.x)
	y3 := newRefGFp2().Sub(r.x, x3)
	y3.Mul(y3, lam)
	y3.Sub(y3, r.y)

	r.x.Set(x3)
	r.y.Set(y3)
	return p.y, c1, c3
}

// refMiller computes the optimal ate Miller value of (Q, P).
func refMiller(q *refTwistPoint, p *refCurvePoint) *refGfP12 {
	qa := newRefTwistPoint().Set(q)
	qa.MakeAffine()
	pa := newRefCurvePoint().Set(p)
	pa.MakeAffine()

	base := &refAffineTwist{x: newRefGFp2().Set(qa.x), y: newRefGFp2().Set(qa.y)}
	negBase := &refAffineTwist{x: base.x, y: newRefGFp2().Neg(base.y)}
	r := &refAffineTwist{x: newRefGFp2().Set(qa.x), y: newRefGFp2().Set(qa.y)}

	f := newRefGFp12().SetOne()
	naf := sixuPlus2NAF
	for i := len(naf) - 2; i >= 0; i-- {
		f.Square(f)
		c0, c1, c3 := r.doubleStep(pa)
		f.MulLine(f, c0, c1, c3)
		switch naf[i] {
		case 1:
			c0, c1, c3 = r.addStep(base, pa)
		case -1:
			c0, c1, c3 = r.addStep(negBase, pa)
		default:
			continue
		}
		f.MulLine(f, c0, c1, c3)
	}

	// Q1 = π(Q) = (x̄·ξ^((p−1)/3), ȳ·ξ^((p−1)/2)) and
	// −Q2 = −π²(Q) = (x·ξ^((p²−1)/3), y).
	q1 := &refAffineTwist{
		x: newRefGFp2().Conjugate(base.x),
		y: newRefGFp2().Conjugate(base.y),
	}
	q1.x.Mul(q1.x, refXiToPMinus1Over3)
	q1.y.Mul(q1.y, refXiToPMinus1Over2)
	negQ2 := &refAffineTwist{
		x: newRefGFp2().Mul(base.x, refXiToPSquaredMinus1Over3),
		y: base.y,
	}
	c0, c1, c3 := r.addStep(q1, pa)
	f.MulLine(f, c0, c1, c3)
	c0, c1, c3 = r.addStep(negQ2, pa)
	f.MulLine(f, c0, c1, c3)
	return f
}

// refFinalExponentiationEasy computes f^((p⁶−1)(p²+1)), mapping f into the
// cyclotomic subgroup.
func refFinalExponentiationEasy(in *refGfP12) *refGfP12 {
	t1 := newRefGFp12().Conjugate(in) // in^(p⁶)
	inv := newRefGFp12().Invert(in)
	t1.Mul(t1, inv) // in^(p⁶−1)
	t2 := newRefGFp12().FrobeniusP2(t1)
	t1.Mul(t1, t2) // ^(p²+1)
	return t1
}

// refFinalExponentiation computes f^((p¹²−1)/n) using the Devegili–Scott–Dahab
// addition chain for BN curves in the hard part. After the easy part the
// value lies in the cyclotomic subgroup, so the three exponentiations by u
// and the chain's squarings use the cheaper cyclotomic arithmetic
// (Granger–Scott squaring, conjugation as inversion under NAF recoding).
func refFinalExponentiation(in *refGfP12) *refGfP12 {
	t1 := refFinalExponentiationEasy(in)

	fp := newRefGFp12().Frobenius(t1)
	fp2 := newRefGFp12().FrobeniusP2(t1)
	fp3 := newRefGFp12().Frobenius(fp2)

	fu := newRefGFp12().cyclotomicExp(t1, u)
	fu2 := newRefGFp12().cyclotomicExp(fu, u)
	fu3 := newRefGFp12().cyclotomicExp(fu2, u)

	y3 := newRefGFp12().Frobenius(fu)
	fu2p := newRefGFp12().Frobenius(fu2)
	fu3p := newRefGFp12().Frobenius(fu3)
	y2 := newRefGFp12().FrobeniusP2(fu2)

	y0 := newRefGFp12().Mul(fp, fp2)
	y0.Mul(y0, fp3)

	y1 := newRefGFp12().Conjugate(t1)
	y5 := newRefGFp12().Conjugate(fu2)
	y3.Conjugate(y3)
	y4 := newRefGFp12().Mul(fu, fu2p)
	y4.Conjugate(y4)
	y6 := newRefGFp12().Mul(fu3, fu3p)
	y6.Conjugate(y6)

	t0 := newRefGFp12().CyclotomicSquare(y6)
	t0.Mul(t0, y4)
	t0.Mul(t0, y5)
	t1b := newRefGFp12().Mul(y3, y5)
	t1b.Mul(t1b, t0)
	t0.Mul(t0, y2)
	t1b.CyclotomicSquare(t1b)
	t1b.Mul(t1b, t0)
	t1b.CyclotomicSquare(t1b)
	t0.Mul(t1b, y1)
	t1b.Mul(t1b, y0)
	t0.CyclotomicSquare(t0)
	t0.Mul(t0, t1b)
	return t0
}

// refFinalExponentiationGeneric computes f^((p¹²−1)/n) the slow, unambiguous
// way: the easy part followed by a plain exponentiation by (p⁴−p²+1)/n.
// The test suite asserts it agrees with refFinalExponentiation.
func refFinalExponentiationGeneric(in *refGfP12) *refGfP12 {
	t := refFinalExponentiationEasy(in)

	p2 := new(big.Int).Mul(P, P)
	p4 := new(big.Int).Mul(p2, p2)
	e := new(big.Int).Sub(p4, p2)
	e.Add(e, big.NewInt(1))
	e.Div(e, Order)
	return newRefGFp12().Exp(t, e)
}

// refAtePairing computes e(Q, P). If either input is the identity, the result
// is the identity of GT.
func refAtePairing(q *refTwistPoint, p *refCurvePoint) *refGfP12 {
	if q.IsInfinity() || p.IsInfinity() {
		return newRefGFp12().SetOne()
	}
	return refFinalExponentiation(refMiller(q, p))
}

// refTatePairing computes the reduced Tate pairing t(P, Q) = f_{n,P}(φ(Q))
// raised to (p¹²−1)/n, with a textbook Miller loop over the full group
// order and generic line evaluation in F_p¹². It is deliberately
// independent of the ate machinery above (different loop, different final
// exponentiation) and exists to cross-check it in tests.
func refTatePairing(p *refCurvePoint, q *refTwistPoint) *refGfP12 {
	if q.IsInfinity() || p.IsInfinity() {
		return newRefGFp12().SetOne()
	}

	pa := newRefCurvePoint().Set(p)
	pa.MakeAffine()
	qa := newRefTwistPoint().Set(q)
	qa.MakeAffine()

	// Untwist Q: x_Q = x'·w² (slot τ of the even part), y_Q = y'·w³
	// (slot τ·ω of the odd part).
	xQ := newRefGFp12()
	xQ.y.y.Set(qa.x)
	yQ := newRefGFp12()
	yQ.x.y.Set(qa.y)

	// Affine coordinates of the running point R, in F_p.
	rx := new(big.Int).Set(pa.x)
	ry := new(big.Int).Set(pa.y)
	bx := new(big.Int).Set(pa.x)
	by := new(big.Int).Set(pa.y)

	f := newRefGFp12().SetOne()
	l := newRefGFp12()

	evalLine := func(lam, sx, sy *big.Int) {
		// l(Q) = (y_Q − sy) − λ(x_Q − sx) where sy, sx, λ ∈ F_p.
		t := newRefGFp12()
		t.y.z.y.Sub(big.NewInt(0), sy)
		t.Add(t, yQ)

		t2 := newRefGFp12()
		t2.y.z.y.Sub(big.NewInt(0), sx)
		t2.Add(t2, xQ)
		lamNeg := new(big.Int).Neg(lam)
		lamNeg.Mod(lamNeg, P)
		t2.MulGFp(t2, lamNeg)

		l.Add(t, t2)
		l.Minimal()
	}

	n := Order
	for i := n.BitLen() - 2; i >= 0; i-- {
		f.Square(f)

		// Double R with tangent line.
		lam := new(big.Int).Mul(rx, rx)
		lam.Mul(lam, big.NewInt(3))
		den := new(big.Int).Lsh(ry, 1)
		den.ModInverse(den, P)
		lam.Mul(lam, den)
		lam.Mod(lam, P)
		evalLine(lam, rx, ry)
		f.Mul(f, l)

		x3 := new(big.Int).Mul(lam, lam)
		x3.Sub(x3, rx)
		x3.Sub(x3, rx)
		x3.Mod(x3, P)
		y3 := new(big.Int).Sub(rx, x3)
		y3.Mul(y3, lam)
		y3.Sub(y3, ry)
		y3.Mod(y3, P)
		rx.Set(x3)
		ry.Set(y3)

		if n.Bit(i) != 0 {
			// Add base with chord line. When R = −base (which happens only
			// at the very last addition, since the loop computes [n]P = O),
			// the chord degenerates to a vertical line, which lies in the
			// subfield F_p⁶ and is eliminated by the final exponentiation.
			den := new(big.Int).Sub(rx, bx)
			den.Mod(den, P)
			if den.Sign() == 0 {
				continue
			}
			lam := new(big.Int).Sub(ry, by)
			den.ModInverse(den, P)
			lam.Mul(lam, den)
			lam.Mod(lam, P)
			evalLine(lam, bx, by)
			f.Mul(f, l)

			x3 := new(big.Int).Mul(lam, lam)
			x3.Sub(x3, rx)
			x3.Sub(x3, bx)
			x3.Mod(x3, P)
			y3 := new(big.Int).Sub(rx, x3)
			y3.Mul(y3, lam)
			y3.Sub(y3, ry)
			y3.Mod(y3, P)
			rx.Set(x3)
			ry.Set(y3)
		}
	}
	return refFinalExponentiationGeneric(f)
}
