package bn256

import "sync"

// This file is the lane-parallel tower: F_p⁶ and F_p¹² over gfP2x8, eight
// independent field elements per value, with the same construction and the
// same formulas as gfp6.go, gfp12.go, cyclo.go and pairing.go. It exists for
// two computations of lanes.go, eight pairing products over the same
// prepared G2 points (PairProductLanes) and eight Miller products over eight
// points' own lines (MillerLanes, whose lines linesx8.go walks), and
// holds only the operations they perform:
// nothing here is exported, printed, marshaled, square-rooted or raised to a
// general power, and the scalar tower remains the implementation of
// everything else.
//
// The hot composites are one kernel each (gfpx8_amd64.s): the F_p⁶
// product, the sparse F_p⁶ product of a line, one coordinate pair of the
// cyclotomic square, and the F_p⁶ fix-ups a − b − d and τa + b of the
// Karatsuba and complex-squaring products. Each reduces a sum once per
// output coordinate, so a pass pays for its products and little for its
// additions; what is left here is their schedule.
//
// Methods follow the scalar tower's convention: e.Op(a, b) sets e, and e
// may alias a or b unless a comment says otherwise. Operations that need
// temporaries on the hot path take them from a laneWork.

// laneWork is the working memory of one pass: the accumulator and the
// temporaries of the operations a pass repeats, one group per operation, so
// that none is shared between an operation and one it calls. It is a heap
// object for two things the Go stack does not give. Its fields are 64-byte
// aligned (an allocation this large is page aligned, and every field is a
// multiple of 320 bytes), so no ZMM load or store straddles a cache line,
// which a result forwarded from one kernel's store to the next kernel's
// load otherwise pays for. And it is never cleared — every operation writes
// a temporary before it reads it — where stack temporaries are zeroed on
// every call. Together that was a seventh of a pass (0.88 → 0.75 ms).
type laneWork struct {
	f, scale gfP12x8

	tau     gfP2x8
	mul12   struct{ tx, t, v0, v1 gfP6x8 }
	square  struct{ v0, t, ty gfP6x8 }
	line    struct{ v0, v1, t gfP6x8 }
	coeff   struct{ c0, c1, c3, z2 gfP2x8 }
	cyclo   [2]gfP2x8
	expU    struct{ base, inv gfP12x8 }
	finalEx struct {
		t1, t2, fp, fp2, fp3, fu, fu2, fu3 gfP12x8
		y0, y1, y2, y3, y4, y5, y6         gfP12x8
	}
}

var laneWorkPool = sync.Pool{New: func() any { return new(laneWork) }}

var (
	zeroFp2x8 gfP2x8

	fp2Zero gfP2
	fp2One  = gfP2{y: rOne}
)

func (e *gfP2x8) Add(a, b *gfP2x8) { gfp2x8Add(e, a, b) }
func (e *gfP2x8) Sub(a, b *gfP2x8) { gfp2x8Sub(e, a, b) }
func (e *gfP2x8) Mul(a, b *gfP2x8) { gfp2x8Mul(e, a, b) }
func (e *gfP2x8) Square(a *gfP2x8) { gfp2x8Square(e, a) }
func (e *gfP2x8) MulXi(a *gfP2x8)  { gfp2x8MulXi(e, a) }
func (e *gfP2x8) Double(a *gfP2x8) { gfp2x8Add(e, a, a) }
func (e *gfP2x8) Neg(a *gfP2x8)    { gfp2x8Sub(e, &zeroFp2x8, a) }

func (e *gfP2x8) Conjugate(a *gfP2x8) {
	y := a.y
	e.Neg(a)
	e.y = y
}

// MulScalar sets e = a·b for eight base-field elements b.
func (e *gfP2x8) MulScalar(a *gfP2x8, b *gfPx8) {
	gfpx8Mul(&e.x, &a.x, b)
	gfpx8Mul(&e.y, &a.y, b)
}

// Invert sets e = a⁻¹ = ā/(a·ā). The eight norms a·ā ∈ F_p are inverted
// together in the scalar field (invertLanes).
func (e *gfP2x8) Invert(a *gfP2x8) {
	var conj, norm gfP2x8
	conj.Conjugate(a)
	norm.Mul(a, &conj)
	norm.y.invertLanes()
	e.MulScalar(&conj, &norm.y)
}

// invertLanes replaces every lane by its inverse (zero stays zero) with one
// gfP inversion for all eight, run in the scalar field because a Fermat
// inversion has nothing for lanes to share.
func (e *gfPx8) invertLanes() {
	var v, prefix [8]gfP
	for i := range v {
		v[i] = e.lane(i)
	}
	invertAll(v[:], prefix[:])
	for i := range v {
		e.setLane(i, &v[i])
	}
}

// invertAll replaces every element of v by its inverse (zero stays zero)
// with one Fermat inversion for all of them, Montgomery's trick: prefix[i]
// (scratch, as long as v) is the product of the non-zero elements before
// v[i], the whole product is inverted, and a walk back peels one inverse
// off at a time.
//
// The inversion is Fermat's and not invertVartime's because not every value
// it inverts is public: the network operator's audit (sgs.OpenCounted)
// pairs the secret group tokens in lane passes, whose norms come here, and
// the router's Diffie–Hellman pass (MultiScalarMultLanes) normalizes points
// that carry its secret r_R.
func invertAll(v, prefix []gfP) {
	acc := rOne
	for i := range v {
		prefix[i] = acc
		if !v[i].IsZero() {
			gfpMul(&acc, &acc, &v[i])
		}
	}
	acc.Invert(&acc)
	for i := len(v) - 1; i >= 0; i-- {
		if v[i].IsZero() {
			continue
		}
		var inv gfP
		gfpMul(&inv, &acc, &prefix[i])
		gfpMul(&acc, &acc, &v[i])
		v[i] = inv
	}
}

// gfP6x8 is eight elements x·τ² + y·τ + z of F_p⁶.
type gfP6x8 struct {
	x, y, z gfP2x8
}

func (e *gfP6x8) Neg(a *gfP6x8) {
	e.x.Neg(&a.x)
	e.y.Neg(&a.y)
	e.z.Neg(&a.z)
}

func (e *gfP6x8) Add(a, b *gfP6x8) {
	e.x.Add(&a.x, &b.x)
	e.y.Add(&a.y, &b.y)
	e.z.Add(&a.z, &b.z)
}

func (e *gfP6x8) Sub(a, b *gfP6x8) {
	e.x.Sub(&a.x, &b.x)
	e.y.Sub(&a.y, &b.y)
	e.z.Sub(&a.z, &b.z)
}

// Mul sets e = a·b with gfP6.Mul's six-multiplication schedule, in one
// kernel (gfp6x8Mul).
func (e *gfP6x8) Mul(a, b *gfP6x8) { gfp6x8Mul(e, a, b) }

func (e *gfP6x8) MulScalar(a *gfP6x8, b *gfP2x8) {
	e.x.Mul(&a.x, b)
	e.y.Mul(&a.y, b)
	e.z.Mul(&a.z, b)
}

// MulSparse2 sets e = a·(y2·τ + z2) in one kernel (gfp6x8MulSparse2). e
// must not alias a.
func (e *gfP6x8) MulSparse2(a *gfP6x8, y2, z2 *gfP2x8) { gfp6x8MulSparse2(e, a, y2, z2) }

// MulTau sets e = a·τ = y·τ² + z·τ + x·ξ.
func (e *gfP6x8) MulTau(a *gfP6x8, w *laneWork) {
	w.tau.MulXi(&a.x)
	e.x, e.y = a.y, a.z
	e.z = w.tau
}

// Invert sets e = a⁻¹ with gfP6.Invert's formulas.
func (e *gfP6x8) Invert(a *gfP6x8) {
	a0, a1, a2 := &a.z, &a.y, &a.x

	var c0, c1, c2, f, t gfP2x8
	c0.Square(a0)
	t.Mul(a1, a2)
	t.MulXi(&t)
	c0.Sub(&c0, &t)

	c1.Square(a2)
	c1.MulXi(&c1)
	t.Mul(a0, a1)
	c1.Sub(&c1, &t)

	c2.Square(a1)
	t.Mul(a0, a2)
	c2.Sub(&c2, &t)

	f.Mul(a2, &c1)
	t.Mul(a1, &c2)
	f.Add(&f, &t)
	f.MulXi(&f)
	t.Mul(a0, &c0)
	f.Add(&f, &t)
	f.Invert(&f)

	e.z.Mul(&c0, &f)
	e.y.Mul(&c1, &f)
	e.x.Mul(&c2, &f)
}

// gfP12x8 is eight elements x·ω + y of F_p¹².
type gfP12x8 struct {
	x, y gfP6x8
}

func (e *gfP12x8) splat(a *gfP12) {
	e.x.x.splat(&a.x.x)
	e.x.y.splat(&a.x.y)
	e.x.z.splat(&a.x.z)
	e.y.x.splat(&a.y.x)
	e.y.y.splat(&a.y.y)
	e.y.z.splat(&a.y.z)
}

// lane returns lane i in the scalar tower's form, reduced.
func (e *gfP12x8) lane(i int) *gfP12 {
	return &gfP12{
		x: gfP6{x: e.x.x.lane(i), y: e.x.y.lane(i), z: e.x.z.lane(i)},
		y: gfP6{x: e.y.x.lane(i), y: e.y.y.lane(i), z: e.y.z.lane(i)},
	}
}

// Conjugate sets e = ā, the inverse in the cyclotomic subgroup.
func (e *gfP12x8) Conjugate(a *gfP12x8) {
	e.x.Neg(&a.x)
	e.y = a.y
}

// Mul sets e = a·b by Karatsuba over gfP6x8.
func (e *gfP12x8) Mul(a, b *gfP12x8, w *laneWork) {
	t := &w.mul12
	t.tx.Add(&a.x, &a.y)
	t.t.Add(&b.x, &b.y)
	t.tx.Mul(&t.tx, &t.t)

	t.v0.Mul(&a.y, &b.y)
	t.v1.Mul(&a.x, &b.x)

	gfp6x8SubSub(&e.x, &t.tx, &t.v0, &t.v1)
	gfp6x8MulTauAdd(&e.y, &t.v1, &t.v0)
}

// MulLine sets e = a·(c0 + c1·ω + c3·τω), the sparse product of
// gfP12.MulLine.
func (e *gfP12x8) MulLine(a *gfP12x8, c0, c1, c3 *gfP2x8, w *laneWork) {
	t := &w.line
	z2 := &w.coeff.z2
	t.v0.MulScalar(&a.y, c0)
	t.v1.MulSparse2(&a.x, c3, c1)

	z2.Add(c1, c0)
	t.t.Add(&a.x, &a.y)
	e.x.MulSparse2(&t.t, c3, z2) // a is not read again
	gfp6x8SubSub(&e.x, &e.x, &t.v0, &t.v1)
	gfp6x8MulTauAdd(&e.y, &t.v1, &t.v0)
}

// mulPreparedLine multiplies f by the line s, the same in every lane,
// evaluated at the lanes' affine G1 points (evalLine).
func (f *gfP12x8) mulPreparedLine(s *preparedLine, p *g1x8, w *laneWork) {
	c := &w.coeff
	c.c3.splat(&s.c3)
	c.c1.splat(&s.c1)
	c.c0.splat(&s.c0)
	f.evalLine(&c.c3, &c.c1, &c.c0, p, &p.infinity, w)
}

// mulLaneLine is mulPreparedLine for a line held in lane form: lane i of s
// is broadcast to every lane.
func (f *gfP12x8) mulLaneLine(s *preparedLinex8, i int, p *g1x8, w *laneWork) {
	c := &w.coeff
	c.c3.broadcast(&s.c3, i)
	c.c1.broadcast(&s.c1, i)
	c.c0.broadcast(&s.c0, i)
	f.evalLine(&c.c3, &c.c1, &c.c0, p, &p.infinity, w)
}

// evalLine multiplies f by the lines c0 + c1·ω + c3·τω with c1 scaled by
// the lanes' x_P and c0 by their y_P. In a lane marked in skip (a lane whose
// point, on either side, is the identity) the line is 1, so that lane of f
// stays what it was: the identity drops out of a lane's product as it does
// out of MillerCombined's. c3 may be w.coeff.c3; c1 and c0 may be
// w.coeff's own.
func (f *gfP12x8) evalLine(c3, c1, c0 *gfP2x8, p *g1x8, skip *[Lanes]bool, w *laneWork) {
	c := &w.coeff
	c.c1.MulScalar(c1, &p.x)
	c.c0.MulScalar(c0, &p.y)
	if *skip != [Lanes]bool{} {
		if c3 != &c.c3 {
			c.c3, c3 = *c3, &c.c3
		}
		for i, s := range skip {
			if s {
				c.c0.setLane(i, &fp2One)
				c.c1.setLane(i, &fp2Zero)
				c.c3.setLane(i, &fp2Zero)
			}
		}
	}
	f.MulLine(f, &c.c0, &c.c1, c3, w)
}

// Square sets e = a² by complex squaring, as gfP12.Square does.
func (e *gfP12x8) Square(a *gfP12x8, w *laneWork) {
	t := &w.square
	t.v0.Mul(&a.x, &a.y)

	gfp6x8MulTauAdd(&t.t, &a.x, &a.y)
	t.ty.Add(&a.x, &a.y)
	t.ty.Mul(&t.ty, &t.t)
	t.t.MulTau(&t.v0, w)
	gfp6x8SubSub(&e.y, &t.ty, &t.v0, &t.t)
	e.x.Add(&t.v0, &t.v0)
}

// Invert sets e = a⁻¹ = (−x·ω + y)/(y² − x²·τ).
func (e *gfP12x8) Invert(a *gfP12x8, w *laneWork) {
	var t1, t2 gfP6x8
	t1.Mul(&a.x, &a.x)
	t1.MulTau(&t1, w)
	t2.Mul(&a.y, &a.y)
	t2.Sub(&t2, &t1)
	t2.Invert(&t2)

	e.x.Neg(&a.x)
	e.x.Mul(&e.x, &t2)
	e.y.Mul(&a.y, &t2)
}

// frobX8 holds γ_j = ξ^(j(pᵏ−1)/6) for j = 1..5 and k = 1, 2, 3, in every
// lane: with w = ω (w⁶ = ξ) an element is Σ a_j·wʲ over F_p², and its
// pᵏ-power Frobenius is Σ a_j^(pᵏ)·γ_j·wʲ, which is what gfP12.Frobenius
// and FrobeniusP2 compute a factor at a time.
var frobX8 = buildFrobX8()

func buildFrobX8() (out [3][5]gfP2x8) {
	// (p³−1)/6 = p·(p²−1)/6 + (p−1)/6, and ξ^((p²−1)/6) lies in F_p.
	g3 := newGFp2().Mul(xiToPSquaredMinus1Over6, xiToPMinus1Over6)
	for k, g := range []*gfP2{xiToPMinus1Over6, xiToPSquaredMinus1Over6, g3} {
		acc := newGFp2().SetOne()
		for j := range out[k] {
			acc.Mul(acc, g)
			out[k][j].splat(acc)
		}
	}
	return
}

// Frobenius sets e = a^(pᵏ) for k = 1, 2 or 3.
func (e *gfP12x8) Frobenius(a *gfP12x8, k int) {
	g := &frobX8[k-1]
	// In order of the power of w: y.z, x.z, y.y, x.y, y.x, x.x.
	src := [6]*gfP2x8{&a.y.z, &a.x.z, &a.y.y, &a.x.y, &a.y.x, &a.x.x}
	dst := [6]*gfP2x8{&e.y.z, &e.x.z, &e.y.y, &e.x.y, &e.y.x, &e.x.x}
	for j := range src {
		if k == 2 {
			*dst[j] = *src[j] // a^(p²) = a in F_p²
		} else {
			dst[j].Conjugate(src[j])
		}
		if j > 0 {
			dst[j].Mul(dst[j], &g[j-1])
		}
	}
}

// CyclotomicSquare sets e = a² for a in the cyclotomic subgroup
// (Granger–Scott, see gfP12.CyclotomicSquare): one gfp4x8CycloSquare per
// coordinate pair.
func (e *gfP12x8) CyclotomicSquare(a *gfP12x8, w *laneWork) {
	x0, x1, x2 := &a.y.z, &a.y.y, &a.y.x
	x3, x4, x5 := &a.x.z, &a.x.y, &a.x.x

	// The pair (x5, x1) writes where the pair (x2, x3) reads when e is a.
	t := &w.cyclo
	t[0], t[1] = *x2, *x3
	gfp4x8CycloSquare(&e.y.z, &e.x.y, x4, x0, x0, x4, false)
	gfp4x8CycloSquare(&e.y.x, &e.x.z, x5, x1, x2, x3, true)
	gfp4x8CycloSquare(&e.y.y, &e.x.x, &t[0], &t[1], x1, x5, false)
}

// expU sets e = a^u for a in the cyclotomic subgroup: three walks over
// NAF(∛u), as gfP12.cyclotomicExp does for k = u. e must not alias a.
func (e *gfP12x8) expU(a *gfP12x8, w *laneWork) {
	t := &w.expU
	*e = *a
	for walk := 0; walk < 3; walk++ {
		t.base = *e
		t.inv.Conjugate(&t.base)
		for i := len(uCubeRootNAF) - 2; i >= 0; i-- {
			e.CyclotomicSquare(e, w)
			switch uCubeRootNAF[i] {
			case 1:
				e.Mul(e, &t.base, w)
			case -1:
				e.Mul(e, &t.inv, w)
			}
		}
	}
}

// finalExponentiation sets e = in^((p¹²−1)/n) in every lane: the easy part
// and the Devegili–Scott–Dahab chain of finalExponentiation in pairing.go.
// No lane of in may be zero.
func (e *gfP12x8) finalExponentiation(in *gfP12x8, w *laneWork) {
	t := &w.finalEx
	t.t2.Invert(in, w)
	t.t1.Conjugate(in)
	t.t1.Mul(&t.t1, &t.t2, w) // in^(p⁶−1)
	t.t2.Frobenius(&t.t1, 2)
	t.t1.Mul(&t.t1, &t.t2, w) // ^(p²+1)

	t.fp.Frobenius(&t.t1, 1)
	t.fp2.Frobenius(&t.t1, 2)
	t.fp3.Frobenius(&t.t1, 3)

	t.fu.expU(&t.t1, w)
	t.fu2.expU(&t.fu, w)
	t.fu3.expU(&t.fu2, w)

	t.y3.Frobenius(&t.fu, 1)
	t.y4.Frobenius(&t.fu2, 1) // fu2^p
	t.y6.Frobenius(&t.fu3, 1) // fu3^p
	t.y2.Frobenius(&t.fu2, 2)

	t.y0.Mul(&t.fp, &t.fp2, w)
	t.y0.Mul(&t.y0, &t.fp3, w)

	t.y1.Conjugate(&t.t1)
	t.y5.Conjugate(&t.fu2)
	t.y3.Conjugate(&t.y3)
	t.y4.Mul(&t.fu, &t.y4, w)
	t.y4.Conjugate(&t.y4)
	t.y6.Mul(&t.fu3, &t.y6, w)
	t.y6.Conjugate(&t.y6)

	t0, t1 := &t.fp, &t.fp2 // fp, fp2 and fp3 are spent
	t0.CyclotomicSquare(&t.y6, w)
	t0.Mul(t0, &t.y4, w)
	t0.Mul(t0, &t.y5, w)
	t1.Mul(&t.y3, &t.y5, w)
	t1.Mul(t1, t0, w)
	t0.Mul(t0, &t.y2, w)
	t1.CyclotomicSquare(t1, w)
	t1.Mul(t1, t0, w)
	t1.CyclotomicSquare(t1, w)
	t0.Mul(t1, &t.y1, w)
	t1.Mul(t1, &t.y0, w)
	t0.CyclotomicSquare(t0, w)
	e.Mul(t0, t1, w)
}
