package bn256

import "math/big"

// This file implements arithmetic that is valid only in the cyclotomic
// subgroup G_{Φ₆(p²)} of F_p¹²ˣ — the subgroup every element lands in after
// the easy part of the final exponentiation, and which contains all pairing
// values. Two structural facts make it cheaper than the generic field:
// squaring decomposes into three independent F_p⁴ squarings (Granger–Scott),
// and inversion is the p⁶-power Frobenius, i.e. a sign flip. The final
// exponentiation's hard part — three exponentiations by the curve parameter
// u plus an addition chain — spends almost all of its time in exactly these
// two operations.

// CyclotomicSquare sets e = a² assuming a lies in the cyclotomic subgroup.
// It is NOT valid for general field elements (the derivation uses
// a^(p⁶+1)·a^(p²(p²-1)) = 1 to eliminate half the coordinates).
//
// Writing a = (x0 + x1·τ + x2·τ²) + (x3 + x4·τ + x5·τ²)·ω, the compressed
// squaring of Granger–Scott "Faster squaring in the cyclotomic subgroup of
// sixth degree extensions" gives
//
//	z0 = 3(ξ·x4² + x0²) − 2·x0      z3 = 3·2ξ·x1·x5 + 2·x3
//	z1 = 3(ξ·x2² + x3²) − 2·x1      z4 = 3·2·x0·x4   + 2·x4
//	z2 = 3(ξ·x5² + x1²) − 2·x2      z5 = 3·2·x2·x3   + 2·x5
//
// for a total of nine F_p² squarings against the twelve F_p² multiplications
// of the generic Square.
func (e *refGfP12) CyclotomicSquare(a *refGfP12) *refGfP12 {
	x0, x1, x2 := a.y.z, a.y.y, a.y.x
	x3, x4, x5 := a.x.z, a.x.y, a.x.x

	t0 := newRefGFp2().Square(x4)
	t1 := newRefGFp2().Square(x0)
	t6 := newRefGFp2().Add(x4, x0)
	t6.Square(t6)
	t6.Sub(t6, t0)
	t6.Sub(t6, t1) // 2·x4·x0

	t2 := newRefGFp2().Square(x2)
	t3 := newRefGFp2().Square(x3)
	t7 := newRefGFp2().Add(x2, x3)
	t7.Square(t7)
	t7.Sub(t7, t2)
	t7.Sub(t7, t3) // 2·x2·x3

	t4 := newRefGFp2().Square(x5)
	t5 := newRefGFp2().Square(x1)
	t8 := newRefGFp2().Add(x5, x1)
	t8.Square(t8)
	t8.Sub(t8, t4)
	t8.Sub(t8, t5)
	t8.MulXi(t8) // 2·ξ·x5·x1

	t0.MulXi(t0)
	t0.Add(t0, t1) // ξ·x4² + x0²
	t2.MulXi(t2)
	t2.Add(t2, t3) // ξ·x2² + x3²
	t4.MulXi(t4)
	t4.Add(t4, t5) // ξ·x5² + x1²

	z0 := newRefGFp2().Sub(t0, x0)
	z0.Double(z0)
	z0.Add(z0, t0)
	z1 := newRefGFp2().Sub(t2, x1)
	z1.Double(z1)
	z1.Add(z1, t2)
	z2 := newRefGFp2().Sub(t4, x2)
	z2.Double(z2)
	z2.Add(z2, t4)

	z3 := newRefGFp2().Add(t8, x3)
	z3.Double(z3)
	z3.Add(z3, t8)
	z4 := newRefGFp2().Add(t6, x4)
	z4.Double(z4)
	z4.Add(z4, t6)
	z5 := newRefGFp2().Add(t7, x5)
	z5.Double(z5)
	z5.Add(z5, t7)

	e.y.z.Set(z0)
	e.y.y.Set(z1)
	e.y.x.Set(z2)
	e.x.z.Set(z3)
	e.x.y.Set(z4)
	e.x.x.Set(z5)
	return e
}

// uNAF is the NAF recoding of the curve parameter u (64 digits, weight 23).
// The reference core walks it whole; the limb core's chain of three
// exponentiations by ∛u must produce the same bytes.
var uNAF = nafDigits(u)

// cyclotomicExp sets e = a^k for a in the cyclotomic subgroup and k ≥ 0,
// combining Granger–Scott squarings with NAF recoding (conjugate in place
// of inverse for the negative digits).
func (e *refGfP12) cyclotomicExp(a *refGfP12, k *big.Int) *refGfP12 {
	if k == u {
		return e.cyclotomicExpNAF(a, uNAF)
	}
	return e.cyclotomicExpNAF(a, nafDigits(k))
}

// cyclotomicExpNAF is cyclotomicExp over a precomputed NAF digit string
// (least significant digit first).
func (e *refGfP12) cyclotomicExpNAF(a *refGfP12, digits []int8) *refGfP12 {
	if len(digits) == 0 {
		return e.SetOne()
	}
	aInv := newRefGFp12().Conjugate(a)
	sum := newRefGFp12().Set(a) // top digit of a NAF is always 1
	for i := len(digits) - 2; i >= 0; i-- {
		sum.CyclotomicSquare(sum)
		switch digits[i] {
		case 1:
			sum.Mul(sum, a)
		case -1:
			sum.Mul(sum, aInv)
		}
	}
	return e.Set(sum)
}
