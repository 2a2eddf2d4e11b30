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
func (e *gfP12) CyclotomicSquare(a *gfP12) *gfP12 {
	x0, x1, x2 := a.y.z, a.y.y, a.y.x
	x3, x4, x5 := a.x.z, a.x.y, a.x.x

	var t0, t1, t2, t3, t4, t5, t6, t7, t8 gfP2
	t0.Square(&x4)
	t1.Square(&x0)
	t6.Add(&x4, &x0)
	t6.Square(&t6)
	t6.Sub(&t6, &t0)
	t6.Sub(&t6, &t1) // 2·x4·x0

	t2.Square(&x2)
	t3.Square(&x3)
	t7.Add(&x2, &x3)
	t7.Square(&t7)
	t7.Sub(&t7, &t2)
	t7.Sub(&t7, &t3) // 2·x2·x3

	t4.Square(&x5)
	t5.Square(&x1)
	t8.Add(&x5, &x1)
	t8.Square(&t8)
	t8.Sub(&t8, &t4)
	t8.Sub(&t8, &t5)
	t8.MulXi(&t8) // 2·ξ·x5·x1

	t0.MulXi(&t0)
	t0.Add(&t0, &t1) // ξ·x4² + x0²
	t2.MulXi(&t2)
	t2.Add(&t2, &t3) // ξ·x2² + x3²
	t4.MulXi(&t4)
	t4.Add(&t4, &t5) // ξ·x5² + x1²

	var z0, z1, z2, z3, z4, z5 gfP2
	z0.Sub(&t0, &x0)
	z0.Double(&z0)
	z0.Add(&z0, &t0)
	z1.Sub(&t2, &x1)
	z1.Double(&z1)
	z1.Add(&z1, &t2)
	z2.Sub(&t4, &x2)
	z2.Double(&z2)
	z2.Add(&z2, &t4)

	z3.Add(&t8, &x3)
	z3.Double(&z3)
	z3.Add(&z3, &t8)
	z4.Add(&t6, &x4)
	z4.Double(&z4)
	z4.Add(&z4, &t6)
	z5.Add(&t7, &x5)
	z5.Double(&z5)
	z5.Add(&z5, &t7)

	e.y.z = z0
	e.y.y = z1
	e.y.x = z2
	e.x.z = z3
	e.x.y = z4
	e.x.x = z5
	return e
}

// nafDigits returns the non-adjacent form of k (least significant digit
// first), digits in {−1, 0, 1}. The NAF has minimal Hamming weight among
// signed-binary recodings — about one third of the digits are non-zero —
// and in the cyclotomic subgroup a −1 digit costs only a conjugation.
// Shared by the limb and reference cores.
func nafDigits(k *big.Int) []int8 {
	n := new(big.Int).Set(k)
	digits := make([]int8, 0, n.BitLen()+1)
	four := big.NewInt(4)
	mod := new(big.Int)
	for n.Sign() > 0 {
		if n.Bit(0) == 1 {
			mod.Mod(n, four)
			d := int8(2 - mod.Int64()) // 1 if n ≡ 1, −1 if n ≡ 3 (mod 4)
			digits = append(digits, d)
			if d > 0 {
				n.Sub(n, big.NewInt(1))
			} else {
				n.Add(n, big.NewInt(1))
			}
		} else {
			digits = append(digits, 0)
		}
		n.Rsh(n, 1)
	}
	return digits
}

// uCubeRootNAF is the NAF of 1868033 = 2²¹ − 2¹⁸ + 2¹⁵ + 2⁸ + 1. The final
// exponentiation raises to the power u = 1868033³ three times per
// invocation, and three walks over these 22 digits (weight 5) cost
// 63 squarings + 12 multiplications against the 63 + 22 of one walk over
// the 64 digits of NAF(u) (weight 23).
var uCubeRootNAF = nafDigits(big.NewInt(uCubeRoot))

// cyclotomicExp sets e = a^k for a in the cyclotomic subgroup and k ≥ 0,
// combining Granger–Scott squarings with NAF recoding (conjugate in place
// of inverse for the negative digits).
func (e *gfP12) cyclotomicExp(a *gfP12, k *big.Int) *gfP12 {
	if k == u {
		e.cyclotomicExpNAF(a, uCubeRootNAF)
		e.cyclotomicExpNAF(e, uCubeRootNAF)
		return e.cyclotomicExpNAF(e, uCubeRootNAF)
	}
	return e.cyclotomicExpNAF(a, nafDigits(k))
}

// cyclotomicExpNAF is cyclotomicExp over a precomputed NAF digit string
// (least significant digit first).
func (e *gfP12) cyclotomicExpNAF(a *gfP12, digits []int8) *gfP12 {
	if len(digits) == 0 {
		return e.SetOne()
	}
	aInv := newGFp12().Conjugate(a)
	sum := newGFp12().Set(a) // top digit of a NAF is always 1
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
