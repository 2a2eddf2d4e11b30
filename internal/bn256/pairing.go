package bn256

import "math/big"

// This file implements the optimal ate pairing (Vercauteren)
//
//	e(Q, P) = (f_{6u+2,Q}(P) · l_{[6u+2]Q, π(Q)}(P) · l_{[6u+2]Q+π(Q), −π²(Q)}(P))^((p¹²−1)/n)
//
// for Q in the order-n subgroup of the twist and P ∈ E(F_p), where π is the
// p-power Frobenius carried over to the twist. The loop walks the 66-digit
// NAF of 6u+2 (±Q additions) instead of the 128-bit T = t − 1 = 6u² of the
// plain ate pairing, and closes with two Frobenius line additions: 65
// doublings + 18 additions + 2 Frobenius lines, 64 squarings of the
// accumulator. The value is a fixed power of the plain ate pairing's, so it
// is bilinear and non-degenerate on the same groups.
//
// The Miller loop uses the inversion-free projective line functions of
// Costello et al. ("Faster Computation of the Tate Pairing",
// arXiv:0904.0854): the running point R stays in Jacobian coordinates on the
// twist (with t caching z²) and every doubling/addition step emits the three
// F_p² coefficients of the sparse line element
//
//	l(P) = c0·y_P + c1·x_P·w + c3·w³,
//
// where w⁶ = ξ is the untwist generator. The projective formulas scale the
// line by an overall F_p² factor relative to the affine chord/tangent; that
// factor lies in a proper subfield of F_p¹² and is erased by the final
// exponentiation.
//
// Line coefficients depend only on Q, so the schedule can be computed once
// per Q and replayed against many P — that is exactly what PreparedG2 does.
// miller() itself is just prepareLines + evalMiller.

// millerOp is one step of the Miller schedule. Every step moves the running
// twist point R and emits exactly one line.
type millerOp uint8

const (
	opDouble millerOp = iota // R ← 2R, tangent line; the accumulator is squared first
	opAddQ                   // R ← R + Q, chord line (NAF digit +1)
	opSubQ                   // R ← R − Q, chord line (NAF digit −1)
	opAddQ1                  // R ← R + π(Q), first Frobenius line
	opSubQ2                  // R ← R − π²(Q), second Frobenius line
)

// millerSchedule is the optimal ate loop flattened into one op per line, in
// evaluation order. prepareLines emits the i-th line for the i-th op and
// evalMiller / MillerCombined consume them in the same order, so the
// schedule exists in one place only.
var millerSchedule = buildMillerSchedule()

func buildMillerSchedule() []millerOp {
	naf := sixuPlus2NAF
	ops := make([]millerOp, 0, 2*len(naf))
	// The top NAF digit is always 1: it is the initial R = Q.
	for i := len(naf) - 2; i >= 0; i-- {
		ops = append(ops, opDouble)
		switch naf[i] {
		case 1:
			ops = append(ops, opAddQ)
		case -1:
			ops = append(ops, opSubQ)
		}
	}
	return append(ops, opAddQ1, opSubQ2)
}

// preparedLine holds the P-independent coefficients of one Miller-loop line.
// At evaluation time c1 is scaled by x_P and c0 by y_P (both base-field
// scalars), then the sparse product f·(c0 + c1·ω + c3·τω) is formed.
type preparedLine struct {
	c3, c1, c0 gfP2
}

// lineDouble doubles r in place (Jacobian, r.t = r.z²) and returns the
// tangent-line coefficients at r before doubling.
func lineDouble(r *twistPoint) preparedLine {
	var A, B, C, D, E, G, t gfP2
	A.Square(&r.x)
	B.Square(&r.y)
	C.Square(&B)

	D.Add(&r.x, &B)
	D.Square(&D)
	D.Sub(&D, &A)
	D.Sub(&D, &C)
	D.Double(&D)

	E.Double(&A)
	E.Add(&E, &A)
	G.Square(&E)

	var rx, ry, rz, rt gfP2
	rx.Sub(&G, &D)
	rx.Sub(&rx, &D)

	rz.Add(&r.y, &r.z)
	rz.Square(&rz)
	rz.Sub(&rz, &B)
	rz.Sub(&rz, &r.t)

	ry.Sub(&D, &rx)
	ry.Mul(&ry, &E)
	t.Double(&C)
	t.Double(&t)
	t.Double(&t)
	ry.Sub(&ry, &t)

	rt.Square(&rz)

	var line preparedLine
	// c1·x_P with c1 = −2·E·z_R².
	t.Mul(&E, &r.t)
	t.Double(&t)
	line.c1.Neg(&t)

	// c3 = (x_R + E)² − A − G − 4B.
	line.c3.Add(&r.x, &E)
	line.c3.Square(&line.c3)
	line.c3.Sub(&line.c3, &A)
	line.c3.Sub(&line.c3, &G)
	t.Double(&B)
	t.Double(&t)
	line.c3.Sub(&line.c3, &t)

	// c0·y_P with c0 = 2·z_out·z_R².
	line.c0.Mul(&rz, &r.t)
	line.c0.Double(&line.c0)

	r.x = rx
	r.y = ry
	r.z = rz
	r.t = rt
	return line
}

// lineAdd mixed-adds the affine point q (z = t = 1) to r in place and
// returns the chord-line coefficients. qy2 must be q.y², precomputed once
// per Miller loop.
func lineAdd(r, q *twistPoint, qy2 *gfP2) preparedLine {
	var B, D, H, I, E, J, L1, V, t, t2 gfP2
	B.Mul(&q.x, &r.t)

	D.Add(&q.y, &r.z)
	D.Square(&D)
	D.Sub(&D, qy2)
	D.Sub(&D, &r.t)
	D.Mul(&D, &r.t) // 2·y_Q·z_R³

	H.Sub(&B, &r.x)
	I.Square(&H)

	E.Double(&I)
	E.Double(&E)

	J.Mul(&H, &E)

	L1.Sub(&D, &r.y)
	L1.Sub(&L1, &r.y)

	V.Mul(&r.x, &E)

	var rx, ry, rz, rt gfP2
	rx.Square(&L1)
	rx.Sub(&rx, &J)
	rx.Sub(&rx, &V)
	rx.Sub(&rx, &V)

	rz.Add(&r.z, &H)
	rz.Square(&rz)
	rz.Sub(&rz, &r.t)
	rz.Sub(&rz, &I)

	t.Sub(&V, &rx)
	t.Mul(&t, &L1)
	t2.Mul(&r.y, &J)
	t2.Double(&t2)
	ry.Sub(&t, &t2)

	rt.Square(&rz)

	var line preparedLine
	// c3 = 2·L1·x_Q − ((y_Q + z_out)² − y_Q² − z_out²).
	t.Add(&q.y, &rz)
	t.Square(&t)
	t.Sub(&t, qy2)
	t.Sub(&t, &rt)
	t2.Mul(&L1, &q.x)
	t2.Double(&t2)
	line.c3.Sub(&t2, &t)

	// c1·x_P with c1 = −2·L1.
	line.c1.Neg(&L1)
	line.c1.Double(&line.c1)

	// c0·y_P with c0 = 2·z_out.
	line.c0.Double(&rz)

	r.x = rx
	r.y = ry
	r.z = rz
	r.t = rt
	return line
}

// frobeniusTwist returns π(Q) for an affine twist point Q: the p-power
// Frobenius of the untwisted point (x·w², y·w³), twisted back. Conjugation
// is the Frobenius of F_p², and w^(2(p−1)) = ξ^((p−1)/3), w^(3(p−1)) =
// ξ^((p−1)/2) absorb the powers of w. π(Q) = [p]Q on G2.
func frobeniusTwist(q *twistPoint) *twistPoint {
	r := newTwistPoint()
	r.x.Conjugate(&q.x)
	r.x.Mul(&r.x, xiToPMinus1Over3)
	r.y.Conjugate(&q.y)
	r.y.Mul(&r.y, xiToPMinus1Over2)
	r.z.SetOne()
	r.t.SetOne()
	return r
}

// negFrobeniusP2Twist returns −π²(Q) for an affine twist point Q. The two
// conjugations cancel; x picks up ξ^((p²−1)/3) and y picks up
// ξ^((p²−1)/2) = −1, which the negation cancels.
func negFrobeniusP2Twist(q *twistPoint) *twistPoint {
	r := newTwistPoint()
	r.x.Mul(&q.x, xiToPSquaredMinus1Over3)
	r.y.Set(&q.y)
	r.z.SetOne()
	r.t.SetOne()
	return r
}

// prepareLines walks millerSchedule over q alone, recording one
// preparedLine per op.
func prepareLines(q *twistPoint) []preparedLine {
	qa := newTwistPoint().Set(q)
	qa.MakeAffine()
	negQ := newTwistPoint().Negative(qa)
	q1 := frobeniusTwist(qa)
	negQ2 := negFrobeniusP2Twist(qa)
	qy2 := newGFp2().Square(&qa.y) // also (−y_Q)² and the y² of −π²(Q)
	q1y2 := newGFp2().Square(&q1.y)

	r := newTwistPoint().Set(qa)
	steps := make([]preparedLine, len(millerSchedule))
	for i, op := range millerSchedule {
		switch op {
		case opDouble:
			steps[i] = lineDouble(r)
		case opAddQ:
			steps[i] = lineAdd(r, qa, qy2)
		case opSubQ:
			steps[i] = lineAdd(r, negQ, qy2)
		case opAddQ1:
			steps[i] = lineAdd(r, q1, q1y2)
		case opSubQ2:
			steps[i] = lineAdd(r, negQ2, qy2)
		}
	}
	return steps
}

// mulPreparedLine multiplies f by the line s evaluated at the affine G1
// point (x, y).
func (f *gfP12) mulPreparedLine(s *preparedLine, x, y *gfP) {
	var c0, c1 gfP2
	c1.MulScalar(&s.c1, x)
	c0.MulScalar(&s.c0, y)
	f.MulLine(f, &c0, &c1, &s.c3)
}

// evalMiller computes the optimal ate Miller value of (Q, P) from Q's
// precomputed lines.
func evalMiller(steps []preparedLine, p *curvePoint) *gfP12 {
	pa := newCurvePoint().Set(p)
	pa.MakeAffine()

	f := newGFp12().SetOne()
	for i, op := range millerSchedule {
		if op == opDouble && i > 0 { // the first squaring would square 1
			f.Square(f)
		}
		f.mulPreparedLine(&steps[i], &pa.x, &pa.y)
	}
	return f
}

// miller computes the optimal ate Miller value of (Q, P).
func miller(q *twistPoint, p *curvePoint) *gfP12 {
	return evalMiller(prepareLines(q), p)
}

// finalExponentiationEasy computes f^((p⁶−1)(p²+1)), mapping f into the
// cyclotomic subgroup.
func finalExponentiationEasy(in *gfP12) *gfP12 {
	t1 := newGFp12().Conjugate(in) // in^(p⁶)
	inv := newGFp12().Invert(in)
	t1.Mul(t1, inv) // in^(p⁶−1)
	t2 := newGFp12().FrobeniusP2(t1)
	t1.Mul(t1, t2) // ^(p²+1)
	return t1
}

// finalExponentiation computes f^((p¹²−1)/n) using the Devegili–Scott–Dahab
// addition chain for BN curves in the hard part. After the easy part the
// value lies in the cyclotomic subgroup, so the three exponentiations by u
// and the chain's squarings use the cheaper cyclotomic arithmetic
// (Granger–Scott squaring, conjugation as inversion under NAF recoding).
func finalExponentiation(in *gfP12) *gfP12 {
	t1 := finalExponentiationEasy(in)

	fp := newGFp12().Frobenius(t1)
	fp2 := newGFp12().FrobeniusP2(t1)
	fp3 := newGFp12().Frobenius(fp2)

	fu := newGFp12().cyclotomicExp(t1, u)
	fu2 := newGFp12().cyclotomicExp(fu, u)
	fu3 := newGFp12().cyclotomicExp(fu2, u)

	y3 := newGFp12().Frobenius(fu)
	fu2p := newGFp12().Frobenius(fu2)
	fu3p := newGFp12().Frobenius(fu3)
	y2 := newGFp12().FrobeniusP2(fu2)

	y0 := newGFp12().Mul(fp, fp2)
	y0.Mul(y0, fp3)

	y1 := newGFp12().Conjugate(t1)
	y5 := newGFp12().Conjugate(fu2)
	y3.Conjugate(y3)
	y4 := newGFp12().Mul(fu, fu2p)
	y4.Conjugate(y4)
	y6 := newGFp12().Mul(fu3, fu3p)
	y6.Conjugate(y6)

	t0 := newGFp12().CyclotomicSquare(y6)
	t0.Mul(t0, y4)
	t0.Mul(t0, y5)
	t1b := newGFp12().Mul(y3, y5)
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

// finalExponentiationGeneric computes f^((p¹²−1)/n) the slow, unambiguous
// way: the easy part followed by a plain exponentiation by (p⁴−p²+1)/n.
// The test suite asserts it agrees with finalExponentiation.
func finalExponentiationGeneric(in *gfP12) *gfP12 {
	t := finalExponentiationEasy(in)

	p2 := new(big.Int).Mul(P, P)
	p4 := new(big.Int).Mul(p2, p2)
	e := new(big.Int).Sub(p4, p2)
	e.Add(e, big.NewInt(1))
	e.Div(e, Order)
	return newGFp12().Exp(t, e)
}

// atePairing computes e(Q, P). If either input is the identity, the result
// is the identity of GT.
func atePairing(q *twistPoint, p *curvePoint) *gfP12 {
	if q.IsInfinity() || p.IsInfinity() {
		return newGFp12().SetOne()
	}
	return finalExponentiation(miller(q, p))
}
