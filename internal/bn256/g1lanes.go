package bn256

import (
	"math/big"
	"math/bits"
	"sync"
)

// This file is G1 multi-scalar multiplication on the lane kernels: eight
// sums Σₖ kᵢₖ·Pᵢₖ to a pass, one per lane, every lane on one doubling
// chain. Each scalar is GLV-split (glv.go) into two half-length ones over P
// and φ(P), each half is recoded into signed radix-16 digits in [−8, 8),
// and for every digit position the pass adds, ladder by ladder, the
// multiple each lane's digit selects from that ladder's table of 1P…8P.
// The digits differ from lane to lane and so do the points, which is what
// the formulas must take without a branch: the complete a = 0 projective
// formulas of Renes, Costello and Batina (https://eprint.iacr.org/2015/1060,
// Algorithms 7 and 9) add and double any two points of E(F_p), the
// identity (0:1:0), equal and opposite points included, by one sequence of
// field operations. A lane whose digit is zero adds the identity. The
// doubling and the addition are one kernel each (g1x8Double, g1x8Add in
// gfpx8_amd64.s), eight and twelve products with the linear terms between
// them reduced only where a product's bound needs it.

// g1x8Proj is eight G1 points in homogeneous projective coordinates
// (X : Y : Z), the affine point being (X/Z, Y/Z) and the identity
// (0 : 1 : 0).
type g1x8Proj struct {
	x, y, z gfPx8
}

// g1Work is the working memory of one MultiScalarMultLanes call, reused
// through g1WorkPool: the accumulator and the addend, and per ladder its
// table, −Y of every entry (so that a negative digit costs no field
// operation) and its digits.
type g1Work struct {
	acc, addend g1x8Proj
	tabs        [][8]g1x8Proj // tabs[j][m] = (m+1)·base of ladder j
	negY        [][8]gfPx8
	digits      []int8 // digit n of ladder j, lane i at (j·g1Windows + n)·Lanes + i
	zs, scratch [Lanes]gfP
	k, k1, k2   big.Int
	tmp         [3]big.Int
}

// g1Windows is the number of signed radix-16 digits a half-scalar may
// take: halves are below 2¹²⁸ (TestGLVHalvesFit), 32 digits and a carry.
const g1Windows = 33

var g1WorkPool = sync.Pool{New: func() any { return new(g1Work) }}

var (
	// g1Onex8 is 1 in every lane, and zeroFpx8 0.
	g1Onex8 = func() (e gfPx8) {
		e.splat(&rOne)
		return
	}()
	zeroFpx8 gfPx8

	// g1B3 is 3b = 9, the constant of the formulas.
	g1B3 = newGfP(9)
)

// The point kernels' Generic twins run Algorithms 9 and 7 lane by lane on
// the scalar field, as the formulas are written.

// rcbDouble is Algorithm 9 on one point.
func rcbDouble(x, y, z *gfP) (x3, y3, z3 gfP) {
	var t0, t1, t2 gfP
	gfpMul(&t0, y, y)
	gfpAdd(&z3, &t0, &t0)
	gfpAdd(&z3, &z3, &z3)
	gfpAdd(&z3, &z3, &z3)
	gfpMul(&t1, y, z)
	gfpMul(&t2, z, z)
	gfpMul(&t2, &t2, &g1B3)
	gfpMul(&x3, &t2, &z3)
	gfpAdd(&y3, &t0, &t2)
	gfpMul(&z3, &t1, &z3)
	gfpAdd(&t1, &t2, &t2)
	gfpAdd(&t2, &t1, &t2)
	gfpSub(&t0, &t0, &t2)
	gfpMul(&y3, &t0, &y3)
	gfpAdd(&y3, &x3, &y3)
	gfpMul(&t1, x, y)
	gfpMul(&x3, &t0, &t1)
	gfpAdd(&x3, &x3, &x3)
	return
}

// rcbAdd is Algorithm 7 on one pair of points.
func rcbAdd(x1, y1, z1, x2, y2, z2 *gfP) (x3, y3, z3 gfP) {
	var t0, t1, t2, t3, t4 gfP
	gfpMul(&t0, x1, x2)
	gfpMul(&t1, y1, y2)
	gfpMul(&t2, z1, z2)
	gfpAdd(&t3, x1, y1)
	gfpAdd(&t4, x2, y2)
	gfpMul(&t3, &t3, &t4)
	gfpAdd(&t4, &t0, &t1)
	gfpSub(&t3, &t3, &t4)
	gfpAdd(&t4, y1, z1)
	gfpAdd(&x3, y2, z2)
	gfpMul(&t4, &t4, &x3)
	gfpAdd(&x3, &t1, &t2)
	gfpSub(&t4, &t4, &x3)
	gfpAdd(&x3, x1, z1)
	gfpAdd(&y3, x2, z2)
	gfpMul(&x3, &x3, &y3)
	gfpAdd(&y3, &t0, &t2)
	gfpSub(&y3, &x3, &y3)
	gfpAdd(&x3, &t0, &t0)
	gfpAdd(&t0, &x3, &t0)
	gfpMul(&t2, &t2, &g1B3)
	gfpAdd(&z3, &t1, &t2)
	gfpSub(&t1, &t1, &t2)
	gfpMul(&y3, &y3, &g1B3)
	gfpMul(&x3, &t4, &y3)
	gfpMul(&t2, &t3, &t1)
	gfpSub(&x3, &t2, &x3)
	gfpMul(&y3, &y3, &t0)
	gfpMul(&t1, &t1, &z3)
	gfpAdd(&y3, &t1, &y3)
	gfpMul(&t0, &t0, &t3)
	gfpMul(&z3, &z3, &t4)
	gfpAdd(&z3, &z3, &t0)
	return
}

func g1x8DoubleGeneric(c, a *g1x8Proj) {
	for i := 0; i < 8; i++ {
		x, y, z := a.x.lane(i), a.y.lane(i), a.z.lane(i)
		x3, y3, z3 := rcbDouble(&x, &y, &z)
		c.x.setLane(i, &x3)
		c.y.setLane(i, &y3)
		c.z.setLane(i, &z3)
	}
}

func g1x8AddGeneric(c, a, b *g1x8Proj) {
	for i := 0; i < 8; i++ {
		x1, y1, z1 := a.x.lane(i), a.y.lane(i), a.z.lane(i)
		x2, y2, z2 := b.x.lane(i), b.y.lane(i), b.z.lane(i)
		x3, y3, z3 := rcbAdd(&x1, &y1, &z1, &x2, &y2, &z2)
		c.x.setLane(i, &x3)
		c.y.setLane(i, &y3)
		c.z.setLane(i, &z3)
	}
}

// MultiScalarMultLanes sets out[i] = Σₖ ks[i][k]·ps[i][k] for every i, each
// equal to what MultiScalarMult(ps[i], ks[i]) gives, in affine form. The
// sums go Lanes to a pass of the lane kernels; a pass costs what its
// longest sum does, whatever the number of occupied lanes. Scalars may be
// any integers (they are reduced mod Order), points any of G1, the
// identity included. Whether the lanes are the faster way is the caller's
// to ask G1LanesPay; on a CPU without the kernels this runs, correct and
// slow, on their Generic twins.
//
// The points are not modified. out[i] may be one of ps[i] but not a point
// of another sum. It panics if the slices differ in length.
func MultiScalarMultLanes(out []*G1, ps [][]*G1, ks [][]*big.Int) {
	if len(out) != len(ps) || len(out) != len(ks) {
		panic("bn256: MultiScalarMultLanes slice length mismatch")
	}
	for i := range ps {
		if len(ps[i]) != len(ks[i]) {
			panic("bn256: MultiScalarMultLanes slice length mismatch")
		}
	}
	w := g1WorkPool.Get().(*g1Work)
	defer g1WorkPool.Put(w)
	for lo := 0; lo < len(out); lo += Lanes {
		hi := min(lo+Lanes, len(out))
		w.pass(out[lo:hi], ps[lo:hi], ks[lo:hi])
	}
}

// pass computes up to Lanes sums, sum i in lane i.
func (w *g1Work) pass(out []*G1, ps [][]*G1, ks [][]*big.Int) {
	terms := 0
	for _, p := range ps {
		terms = max(terms, len(p))
	}
	ladders := 2 * terms
	if cap(w.tabs) < ladders {
		w.tabs = make([][8]g1x8Proj, ladders)
		w.negY = make([][8]gfPx8, ladders)
		w.digits = make([]int8, ladders*g1Windows*Lanes)
	}
	w.tabs, w.negY = w.tabs[:ladders], w.negY[:ladders]
	w.digits = w.digits[:ladders*g1Windows*Lanes]
	clear(w.digits)

	// Each term becomes two ladders: its point and φ of it, each negated
	// where its half of the scalar is negative, and the halves' digits.
	g := glv()
	top := 0
	for k := 0; k < terms; k++ {
		for i := 0; i < Lanes; i++ {
			var p *curvePoint
			if i < len(ps) && k < len(ps[i]) {
				p = ps[i][k].p
			}
			if p == nil || p.IsInfinity() {
				w.setBase(2*k, i, nil)
				w.setBase(2*k+1, i, nil)
				continue
			}
			// Jacobian (X, Y, Z) is homogeneous (XZ : Y : Z³), and φ
			// multiplies the first coordinate by β.
			var base [2]curvePoint
			base[0] = *p
			if !p.z.Equal(&rOne) {
				gfpMul(&base[0].x, &p.x, &p.z)
				gfpMul(&base[0].z, &p.z, &p.z)
				gfpMul(&base[0].z, &base[0].z, &p.z)
			}
			base[1] = base[0]
			gfpMul(&base[1].x, &base[1].x, &g.betaGfP)
			w.k.Mod(ks[i][k], Order)
			glvDecomposeInto(&w.k1, &w.k2, &w.k, &w.tmp)
			for h, s := range [2]*big.Int{&w.k1, &w.k2} {
				if s.Sign() < 0 {
					gfpNeg(&base[h].y, &base[h].y)
					s.Neg(s)
				}
				w.setBase(2*k+h, i, &base[h])
				top = max(top, recodeRadix16(s, w.digits, (2*k+h)*g1Windows, i))
			}
		}
	}

	// The tables: 1P…8P per ladder, in lane form, and −Y of each.
	for j := range w.tabs {
		t := &w.tabs[j]
		for m := 1; m < 8; m++ {
			if m%2 == 1 { // (m+1)P = 2·((m+1)/2)P
				g1x8Double(&t[m], &t[(m+1)/2-1])
			} else { // (m+1)P = mP + P
				g1x8Add(&t[m], &t[m-1], &t[0])
			}
			gfpx8Sub(&w.negY[j][m], &zeroFpx8, &t[m].y)
		}
	}

	// The chain, from the top digit down: four doublings, then each
	// ladder's digits added. Digit positions where every lane of a ladder
	// holds 0 add nothing; until the first addition the accumulator is the
	// identity and is not doubled.
	started := false
	for d := top - 1; d >= 0; d-- {
		if started {
			for r := 0; r < 4; r++ {
				g1x8Double(&w.acc, &w.acc)
			}
		}
		for j := 0; j < ladders; j++ {
			dig := (*[Lanes]int8)(w.digits[(j*g1Windows+d)*Lanes:])
			if *dig == [Lanes]int8{} {
				continue
			}
			if !started {
				w.gather(&w.acc, j, dig)
				started = true
				continue
			}
			w.gather(&w.addend, j, dig)
			g1x8Add(&w.acc, &w.acc, &w.addend)
		}
	}

	// Affine outputs under one inversion.
	if !started {
		w.acc = g1x8Proj{y: g1Onex8}
	}
	for i := range out {
		w.zs[i] = w.acc.z.lane(i)
	}
	invertAll(w.zs[:len(out)], w.scratch[:len(out)])
	for i, o := range out {
		if o.p == nil {
			o.p = newCurvePoint()
		}
		if w.zs[i].IsZero() {
			o.p.SetInfinity()
			continue
		}
		x, y := w.acc.x.lane(i), w.acc.y.lane(i)
		gfpMul(&o.p.x, &x, &w.zs[i])
		gfpMul(&o.p.y, &y, &w.zs[i])
		o.p.z, o.p.t = rOne, rOne
	}
}

// setBase stores p, homogeneous (nil for the identity), as lane i of ladder
// j's first table entry.
func (w *g1Work) setBase(j, i int, p *curvePoint) {
	e, negY := &w.tabs[j][0], &w.negY[j][0]
	if p == nil {
		var zero gfP
		e.x.setLane(i, &zero)
		e.y.setLane(i, &rOne)
		negY.setLane(i, &rOne)
		e.z.setLane(i, &zero)
		return
	}
	var ny gfP
	gfpNeg(&ny, &p.y)
	e.x.setLane(i, &p.x)
	e.y.setLane(i, &p.y)
	negY.setLane(i, &ny)
	e.z.setLane(i, &p.z)
}

// gather sets a, lane by lane, to the multiple of ladder j's base that the
// lane's digit selects: d·P for d > 0, −|d|·P for d < 0, the identity for 0.
func (w *g1Work) gather(a *g1x8Proj, j int, dig *[Lanes]int8) {
	t, negY := &w.tabs[j], &w.negY[j]
	for i, d := range dig {
		if d == 0 {
			for l := range a.x {
				a.x[l][i], a.y[l][i], a.z[l][i] = 0, g1Onex8[l][i], 0
			}
			continue
		}
		m := int(d)
		if m < 0 {
			m = -m
		}
		e, y := &t[m-1], &t[m-1].y
		if d < 0 {
			y = &negY[m-1]
		}
		for l := range a.x {
			a.x[l][i], a.y[l][i], a.z[l][i] = e.x[l][i], y[l][i], e.z[l][i]
		}
	}
}

// recodeRadix16 writes 0 ≤ k < 2¹²⁸ as signed radix-16 digits in [−8, 8),
// k = Σ dₙ·16ⁿ, digit n at digits[(base+n)·Lanes + lane], and returns the
// number of digits, at most g1Windows.
func recodeRadix16(k *big.Int, digits []int8, base, lane int) int {
	if k.BitLen() > 128 {
		panic("bn256: GLV half-scalar beyond 2^128")
	}
	words := k.Bits()
	nibble := func(n int) int {
		bit := 4 * n
		wi, sh := bit/bits.UintSize, uint(bit%bits.UintSize)
		if wi >= len(words) {
			return 0
		}
		return int(uint(words[wi])>>sh) & 15
	}
	n := (k.BitLen() + 3) / 4
	carry := 0
	for i := 0; i < n; i++ {
		v := nibble(i) + carry
		carry = 0
		if v >= 8 {
			v -= 16
			carry = 1
		}
		digits[(base+i)*Lanes+lane] = int8(v)
	}
	if carry != 0 {
		digits[(base+n)*Lanes+lane] = 1
		n++
	}
	return n
}
