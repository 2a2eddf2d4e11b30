package bn256

import (
	"fmt"
	"math/big"
	"math/bits"
)

// curvePoint implements the elliptic curve E: y² = x³ + 3 over F_p in
// Jacobian projective coordinates: (x, y, z) represents the affine point
// (x/z², y/z³). The point at infinity has z = 0. The t field caches z²
// during mixed operations (kept for parity with classic implementations;
// it always mirrors z² when set via MakeAffine). Coordinates are gfP limb
// values in Montgomery form.
type curvePoint struct {
	x, y, z, t gfP
}

func newCurvePoint() *curvePoint {
	return &curvePoint{}
}

func (c *curvePoint) String() string {
	c.MakeAffine()
	return fmt.Sprintf("(%s, %s)", c.x.String(), c.y.String())
}

func (c *curvePoint) Set(a *curvePoint) *curvePoint {
	*c = *a
	return c
}

// SetInfinity sets c to the point at infinity.
func (c *curvePoint) SetInfinity() *curvePoint {
	c.x.SetOne()
	c.y.SetOne()
	c.z.SetZero()
	c.t.SetZero()
	return c
}

func (c *curvePoint) IsInfinity() bool {
	return c.z.IsZero()
}

// IsOnCurve reports whether the affine form of c satisfies y² = x³ + 3.
// The point at infinity is considered on the curve.
func (c *curvePoint) IsOnCurve() bool {
	if c.IsInfinity() {
		return true
	}
	c.MakeAffine()
	var yy, xxx gfP
	gfpMul(&yy, &c.y, &c.y)
	gfpMul(&xxx, &c.x, &c.x)
	gfpMul(&xxx, &xxx, &c.x)
	gfpSub(&yy, &yy, &xxx)
	gfpSub(&yy, &yy, &curveBGfP)
	return yy.IsZero()
}

func (c *curvePoint) Equal(a *curvePoint) bool {
	if c.IsInfinity() || a.IsInfinity() {
		return c.IsInfinity() == a.IsInfinity()
	}
	// Compare cross-multiplied coordinates to avoid affine conversion:
	// x1·z2² == x2·z1² and y1·z2³ == y2·z1³.
	var z1z1, z2z2, l, r gfP
	gfpMul(&z1z1, &c.z, &c.z)
	gfpMul(&z2z2, &a.z, &a.z)

	gfpMul(&l, &c.x, &z2z2)
	gfpMul(&r, &a.x, &z1z1)
	if !l.Equal(&r) {
		return false
	}

	gfpMul(&z1z1, &z1z1, &c.z)
	gfpMul(&z2z2, &z2z2, &a.z)
	gfpMul(&l, &c.y, &z2z2)
	gfpMul(&r, &a.y, &z1z1)
	return l.Equal(&r)
}

// Add sets c = a + b using the add-2007-bl Jacobian formulas, falling back
// to Double when a == b.
func (c *curvePoint) Add(a, b *curvePoint) *curvePoint {
	if a.IsInfinity() {
		return c.Set(b)
	}
	if b.IsInfinity() {
		return c.Set(a)
	}

	var z1z1, z2z2, u1, u2, s1, s2, h, r gfP
	gfpMul(&z1z1, &a.z, &a.z)
	gfpMul(&z2z2, &b.z, &b.z)

	gfpMul(&u1, &a.x, &z2z2)
	gfpMul(&u2, &b.x, &z1z1)

	gfpMul(&s1, &a.y, &b.z)
	gfpMul(&s1, &s1, &z2z2)
	gfpMul(&s2, &b.y, &a.z)
	gfpMul(&s2, &s2, &z1z1)

	gfpSub(&h, &u2, &u1)
	gfpSub(&r, &s2, &s1)

	if h.IsZero() {
		if r.IsZero() {
			return c.Double(a)
		}
		return c.SetInfinity()
	}
	gfpDouble(&r, &r)

	var i, j, v, x3, y3, z3, t gfP
	gfpDouble(&i, &h)
	gfpMul(&i, &i, &i)
	gfpMul(&j, &h, &i)

	gfpMul(&v, &u1, &i)

	gfpMul(&x3, &r, &r)
	gfpSub(&x3, &x3, &j)
	gfpSub(&x3, &x3, &v)
	gfpSub(&x3, &x3, &v)

	gfpSub(&y3, &v, &x3)
	gfpMul(&y3, &y3, &r)
	gfpMul(&t, &s1, &j)
	gfpDouble(&t, &t)
	gfpSub(&y3, &y3, &t)

	gfpAdd(&z3, &a.z, &b.z)
	gfpMul(&z3, &z3, &z3)
	gfpSub(&z3, &z3, &z1z1)
	gfpSub(&z3, &z3, &z2z2)
	gfpMul(&z3, &z3, &h)

	c.x = x3
	c.y = y3
	c.z = z3
	return c
}

// Double sets c = 2a using the dbl-2009-l Jacobian formulas.
func (c *curvePoint) Double(a *curvePoint) *curvePoint {
	if a.IsInfinity() {
		return c.SetInfinity()
	}

	var aa, bb, cc, d, e, f, x3, y3, z3, t gfP
	gfpMul(&aa, &a.x, &a.x)
	gfpMul(&bb, &a.y, &a.y)
	gfpMul(&cc, &bb, &bb)

	gfpAdd(&d, &a.x, &bb)
	gfpMul(&d, &d, &d)
	gfpSub(&d, &d, &aa)
	gfpSub(&d, &d, &cc)
	gfpDouble(&d, &d)

	gfpDouble(&e, &aa)
	gfpAdd(&e, &e, &aa)
	gfpMul(&f, &e, &e)

	gfpDouble(&x3, &d)
	gfpSub(&x3, &f, &x3)

	gfpSub(&y3, &d, &x3)
	gfpMul(&y3, &y3, &e)
	gfpDouble(&t, &cc)
	gfpDouble(&t, &t)
	gfpDouble(&t, &t)
	gfpSub(&y3, &y3, &t)

	gfpMul(&z3, &a.y, &a.z)
	gfpDouble(&z3, &z3)

	c.x = x3
	c.y = y3
	c.z = z3
	return c
}

// wnafDigits expands k > 0 into width-w non-adjacent form: a little-endian
// digit string where every non-zero digit is odd, |digit| < 2^(w−1), and
// any two non-zero digits are separated by at least w−1 zeros. Compared to
// a fixed window this roughly halves the precomputation (only odd
// multiples are needed) and cuts the expected addition count to one per
// w+1 bits. Shared by the limb and reference cores.
func wnafDigits(k *big.Int, w uint) []int8 {
	return appendWNAF(make([]int8, 0, k.BitLen()+1), k, w)
}

// appendWNAF is wnafDigits appending to out: with room in out for
// k.BitLen()+1 digits and k below 2³²⁰ it allocates nothing.
func appendWNAF(out []int8, k *big.Int, w uint) []int8 {
	// |k| as little-endian 64-bit words, with a spare word for the carry a
	// negative digit pushes up.
	n := k.BitLen()/64 + 2
	var words [6]uint64
	d := words[:]
	if n > len(words) {
		d = make([]uint64, n)
	}
	d = d[:n]
	for i, x := range k.Bits() {
		d[i*bits.UintSize/64] |= uint64(x) << (i * bits.UintSize % 64)
	}
	mask := uint64(1)<<w - 1
	half := int64(1) << (w - 1)
	for top := n - 1; ; {
		for top >= 0 && d[top] == 0 {
			top--
		}
		if top < 0 {
			return out
		}
		v := int64(0)
		if d[0]&1 == 1 {
			v = int64(d[0] & mask)
			if v >= half {
				v -= int64(mask + 1)
			}
			// d −= v, carrying through the words.
			var carry uint64
			if v > 0 {
				d[0], carry = bits.Sub64(d[0], uint64(v), 0)
				for i := 1; carry != 0; i++ {
					d[i], carry = bits.Sub64(d[i], 0, carry)
				}
			} else {
				d[0], carry = bits.Add64(d[0], uint64(-v), 0)
				for i := 1; carry != 0; i++ {
					d[i], carry = bits.Add64(d[i], 0, carry)
				}
				top = n - 1
			}
		}
		out = append(out, int8(v))
		for i := 0; i < top; i++ {
			d[i] = d[i]>>1 | d[i+1]<<63
		}
		d[top] >>= 1
	}
}

// Mul sets c = k·a. Long scalars (beyond half the order's bit length) go
// through the GLV endomorphism split in mulGLV — E(F_p) has prime order,
// so the decomposition is valid for every point and every k. Short scalars
// use width-5 wNAF (odd-multiple table of 8 points, one addition per ~6
// bits). mulGeneric remains as the cross-check reference for tests. The
// tables and digits live on the stack or in mulGLV's pooled scratch, so a
// non-negative k costs no allocation.
func (c *curvePoint) Mul(a *curvePoint, k *big.Int) *curvePoint {
	if k.Sign() < 0 {
		neg := newCurvePoint().Negative(a)
		kAbs := new(big.Int).Neg(k)
		return c.Mul(neg, kAbs)
	}
	if k.BitLen() <= 16 {
		return c.mulGeneric(a, k)
	}
	if k.BitLen() > Order.BitLen()/2+8 {
		return c.mulGLV(a, k)
	}

	// odd[i] = (2i+1)·a for i in 0..7.
	var odd [8]curvePoint
	var twoA, neg, sum curvePoint
	odd[0].Set(a)
	twoA.Double(a)
	for i := 1; i < 8; i++ {
		odd[i].Add(&odd[i-1], &twoA)
	}

	var buf [wnafShortDigits]int8
	digits := appendWNAF(buf[:0], k, 5)
	sum.SetInfinity()
	for i := len(digits) - 1; i >= 0; i-- {
		sum.Double(&sum)
		switch d := digits[i]; {
		case d > 0:
			sum.Add(&sum, &odd[(d-1)/2])
		case d < 0:
			sum.Add(&sum, neg.Negative(&odd[(-d-1)/2]))
		}
	}
	return c.Set(&sum)
}

// wnafShortDigits holds the width-5 wNAF of any scalar Mul does not split:
// at most Order.BitLen()/2 + 8 bits, and one digit more.
const wnafShortDigits = 256/2 + 8 + 1

// mulGeneric is the textbook double-and-add ladder.
func (c *curvePoint) mulGeneric(a *curvePoint, k *big.Int) *curvePoint {
	sum := newCurvePoint().SetInfinity()
	t := newCurvePoint()
	for i := k.BitLen(); i >= 0; i-- {
		t.Double(sum)
		if k.Bit(i) != 0 {
			sum.Add(t, a)
		} else {
			sum.Set(t)
		}
	}
	return c.Set(sum)
}

// makeAffineBatch normalizes every point of pts to z = 1 with one field
// inversion (Montgomery's trick). Identity points are left as they are.
func makeAffineBatch(pts []*curvePoint) {
	prefix := make([]gfP, len(pts)+1) // product of the non-identity z before i
	prefix[0].SetOne()
	for i, p := range pts {
		prefix[i+1] = prefix[i]
		if !p.IsInfinity() {
			gfpMul(&prefix[i+1], &prefix[i], &p.z)
		}
	}
	var inv, zInv, zInv2 gfP
	inv.invertVartime(&prefix[len(pts)])
	for i := len(pts) - 1; i >= 0; i-- {
		p := pts[i]
		if p.IsInfinity() {
			continue
		}
		gfpMul(&zInv, &inv, &prefix[i])
		gfpMul(&inv, &inv, &p.z)
		gfpMul(&zInv2, &zInv, &zInv)
		gfpMul(&p.x, &p.x, &zInv2)
		gfpMul(&p.y, &p.y, &zInv2)
		gfpMul(&p.y, &p.y, &zInv)
		p.z.SetOne()
		p.t.SetOne()
	}
}

func (c *curvePoint) Negative(a *curvePoint) *curvePoint {
	c.x = a.x
	gfpNeg(&c.y, &a.y)
	c.z = a.z
	c.t.SetZero()
	return c
}

// MakeAffine normalizes c to z = 1 (or the canonical infinity encoding).
func (c *curvePoint) MakeAffine() *curvePoint {
	if c.z.IsZero() {
		return c.SetInfinity()
	}
	if c.z.Equal(&rOne) {
		c.t.SetOne()
		return c
	}

	var zInv, zInv2, t gfP
	zInv.Invert(&c.z)
	gfpMul(&t, &c.y, &zInv)
	gfpMul(&zInv2, &zInv, &zInv)

	gfpMul(&c.y, &t, &zInv2)
	gfpMul(&t, &c.x, &zInv2)
	c.x = t
	c.z.SetOne()
	c.t.SetOne()
	return c
}
