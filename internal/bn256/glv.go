package bn256

import (
	"math/big"
	"sync"
)

// GLV scalar decomposition for G1 (Gallant–Lambert–Vanstone). BN curves
// have j-invariant 0, so E(F_p) carries the efficient endomorphism
// φ(x, y) = (β·x, y) with β a primitive cube root of unity in F_p. E(F_p)
// is cyclic of prime order n, so φ acts as multiplication by a fixed scalar
// λ with λ² + λ + 1 ≡ 0 (mod n). Splitting k ≡ k₁ + k₂·λ (mod n) with
// |k₁|, |k₂| ≈ √n turns one 256-bit scalar multiplication into two
// half-length ones sharing a single doubling chain — the doubling chain is
// the dominant cost, so variable-base multiplication runs in roughly half
// the time.
type glvConstants struct {
	beta    *big.Int // cube root of unity in F_p matching λ on the curve
	betaGfP gfP      // beta in Montgomery limb form, for the endomorphism map
	lambda  *big.Int // eigenvalue of φ modulo the group order

	// Short lattice basis for {(a, b) : a + b·λ ≡ 0 (mod n)}, from the
	// extended Euclidean algorithm on (n, λ).
	a1, b1, a2, b2 *big.Int
}

var (
	glvOnce sync.Once
	glvC    *glvConstants
)

func glv() *glvConstants {
	glvOnce.Do(func() { glvC = computeGLVConstants() })
	return glvC
}

func computeGLVConstants() *glvConstants {
	half := func(m *big.Int) *big.Int {
		// (−1 + √−3)/2 mod m: a primitive cube root of unity.
		s := new(big.Int).ModSqrt(new(big.Int).Mod(big.NewInt(-3), m), m)
		if s == nil {
			panic("bn256: −3 is not a square — not a BN field")
		}
		r := new(big.Int).Sub(s, big.NewInt(1))
		r.Mul(r, new(big.Int).ModInverse(big.NewInt(2), m))
		return r.Mod(r, m)
	}

	lambda := half(Order)
	// φ's eigenvalue is one of the two primitive cube roots of unity mod n;
	// fix the choice by testing against the generator. The matching β is
	// then determined the same way mod p.
	beta := half(P)
	betaGfP := gfPFromBig(beta)
	phi := newCurvePoint().Set(curveGen)
	phi.MakeAffine()
	gfpMul(&phi.x, &phi.x, &betaGfP)
	want := newCurvePoint().mulGeneric(curveGen, lambda)
	if !phi.Equal(want) {
		lambda.Sub(Order, lambda)
		lambda.Sub(lambda, big.NewInt(1)) // the other root is λ² = −λ−1
		if !phi.Equal(newCurvePoint().mulGeneric(curveGen, lambda)) {
			panic("bn256: GLV eigenvalue does not match the endomorphism")
		}
	}

	// Extended Euclid on (n, λ): every row satisfies r ≡ t·λ (mod n), so
	// (r, −t) lies in the lattice. Stop at the first remainder below √n
	// and keep the surrounding rows as basis candidates (GLV §4).
	sqrtN := new(big.Int).Sqrt(Order)
	r0, r1 := new(big.Int).Set(Order), new(big.Int).Set(lambda)
	t0, t1 := big.NewInt(0), big.NewInt(1)
	for r1.Cmp(sqrtN) >= 0 {
		q := new(big.Int).Div(r0, r1)
		r0, r1 = r1, new(big.Int).Sub(r0, new(big.Int).Mul(q, r1))
		t0, t1 = t1, new(big.Int).Sub(t0, new(big.Int).Mul(q, t1))
	}
	a1, b1 := new(big.Int).Set(r1), new(big.Int).Neg(t1)
	// Second basis vector: the previous row, or the next one if shorter.
	q := new(big.Int).Div(r0, r1)
	r2 := new(big.Int).Sub(r0, new(big.Int).Mul(q, r1))
	t2 := new(big.Int).Sub(t0, new(big.Int).Mul(q, t1))
	normSq := func(a, b *big.Int) *big.Int {
		n2 := new(big.Int).Mul(a, a)
		return n2.Add(n2, new(big.Int).Mul(b, b))
	}
	a2, b2 := new(big.Int).Set(r0), new(big.Int).Neg(t0)
	if normSq(r2, t2).Cmp(normSq(a2, b2)) < 0 {
		a2, b2 = r2, new(big.Int).Neg(t2)
	}

	return &glvConstants{beta: beta, betaGfP: betaGfP, lambda: lambda, a1: a1, b1: b1, a2: a2, b2: b2}
}

// roundedDiv returns the nearest integer to x/n for n > 0 (ties away from
// zero).
func roundedDiv(x, n *big.Int) *big.Int {
	q := new(big.Int)
	roundedDivInto(q, new(big.Int), x, n)
	return q
}

// roundedDivInto sets q to roundedDiv(x, n), with r as scratch.
func roundedDivInto(q, r, x, n *big.Int) {
	q.QuoRem(x, n, r)
	r.Lsh(r, 1)
	switch {
	case r.CmpAbs(n) >= 0 && r.Sign() > 0:
		q.Add(q, bigOne)
	case r.CmpAbs(n) >= 0 && r.Sign() < 0:
		q.Sub(q, bigOne)
	}
}

var bigOne = big.NewInt(1)

// glvDecomposeInto splits 0 ≤ k < n into (k1, k2) with k ≡ k1 + k2·λ
// (mod n) and |k1|, |k2| = O(√n), by Babai rounding against the short
// basis. k1 and k2 must not be k; tmp is scratch, and the call allocates
// nothing once they have grown.
func glvDecomposeInto(k1, k2, k *big.Int, tmp *[3]big.Int) {
	g := glv()
	c1, c2, t := &tmp[0], &tmp[1], &tmp[2]
	roundedDivInto(c1, k1, t.Mul(g.b2, k), Order)
	t.Mul(g.b1, k)
	roundedDivInto(c2, k1, t.Neg(t), Order)

	k1.Sub(k, t.Mul(c1, g.a1))
	k1.Sub(k1, t.Mul(c2, g.a2))
	k2.Mul(c1, g.b1)
	k2.Neg(k2)
	k2.Sub(k2, t.Mul(c2, g.b2))
}

// mulGLV computes c = k·a via the endomorphism split: two half-length
// width-4 wNAF ladders sharing one doubling chain. Valid for any point of
// E(F_p) (the curve group has prime order, so φ acts as ·λ everywhere) and
// any k ≥ 0: the decomposition is taken modulo the group order, which every
// point's order divides.
func (c *curvePoint) mulGLV(a *curvePoint, k *big.Int) *curvePoint {
	return c.mulGLVSum([]*curvePoint{a}, []*big.Int{k})
}

// glvLadder is one half-length ladder of mulGLVSum: its odd multiples 1P,
// 3P, 5P, 7P and the width-4 wNAF digits of its half-scalar.
type glvLadder struct {
	odd    [4]curvePoint
	digits []int8
}

// glvScratch is the working memory of one mulGLVSum call, reused through
// glvPool so that a call allocates nothing once the pool holds grown
// scratch: the ladders with their digit buffers, and the integers of the
// decomposition.
type glvScratch struct {
	ladders   []glvLadder
	k, k1, k2 big.Int
	tmp       [3]big.Int
}

var glvPool = sync.Pool{New: func() any { return new(glvScratch) }}

// mulGLVSum computes c = Σ kᵢ·aᵢ for k ≥ 0 with every scalar split as in
// mulGLV: 2·len(a) half-length width-4 wNAF ladders over aᵢ and φ(aᵢ), all
// on one doubling chain, so a second base costs its additions only.
func (c *curvePoint) mulGLVSum(a []*curvePoint, k []*big.Int) *curvePoint {
	g := glv()
	w := glvPool.Get().(*glvScratch)
	defer glvPool.Put(w)
	if len(w.ladders) < 2*len(a) {
		w.ladders = append(w.ladders, make([]glvLadder, 2*len(a)-len(w.ladders))...)
	}
	ls := w.ladders[:2*len(a)]
	n := 0
	for i, p := range a {
		w.k.Mod(k[i], Order)
		glvDecomposeInto(&w.k1, &w.k2, &w.k, &w.tmp)
		base, phi := &ls[2*i], &ls[2*i+1]
		base.odd[0].Set(p)
		phi.odd[0].Set(p)
		gfpMul(&phi.odd[0].x, &phi.odd[0].x, &g.betaGfP)
		base.init(&w.k1)
		phi.init(&w.k2)
		n = max(n, len(base.digits), len(phi.digits))
	}

	var sum, neg curvePoint
	sum.SetInfinity()
	for i := n - 1; i >= 0; i-- {
		sum.Double(&sum)
		for j := range ls {
			l := &ls[j]
			if i >= len(l.digits) {
				continue
			}
			switch d := l.digits[i]; {
			case d > 0:
				sum.Add(&sum, &l.odd[(d-1)/2])
			case d < 0:
				sum.Add(&sum, neg.Negative(&l.odd[(-d-1)/2]))
			}
		}
	}
	return c.Set(&sum)
}

// init completes a ladder whose odd[0] holds its base P for the
// half-scalar s, which it takes as |s| (negating P where s < 0): the odd
// multiples and the digits.
func (l *glvLadder) init(s *big.Int) {
	if s.Sign() < 0 {
		l.odd[0].Negative(&l.odd[0])
		s.Neg(s)
	}
	var twoP curvePoint
	twoP.Double(&l.odd[0])
	for i := 1; i < 4; i++ {
		l.odd[i].Add(&l.odd[i-1], &twoP)
	}
	l.digits = appendWNAF(l.digits[:0], s, 4)
}
