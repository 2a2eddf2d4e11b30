package bn256

import "math/big"

// uCubeRoot is the integer the BN parameter is the cube of.
const uCubeRoot = 1868033

// u is the BN parameter that determines the prime: u = 1868033³.
// Every other constant in this file is derived from it.
var u = new(big.Int).Exp(big.NewInt(uCubeRoot), big.NewInt(3), nil)

// P is the prime over which the base field is formed: 36u⁴+36u³+24u²+6u+1.
var P = bnPrime()

// Order is the number of elements in G1, G2 and GT: 36u⁴+36u³+18u²+6u+1.
var Order = bnOrder()

// sixuPlus2NAF is the non-adjacent form of 6u+2, the Miller loop length of
// the optimal ate pairing, least significant digit first: 66 digits, 19 of
// them non-zero (6 negative). Shared by the limb and reference cores.
var sixuPlus2NAF = nafDigits(bnPoly(0, 0, 0, 6, 2))

// curveB is the constant of E: y² = x³ + curveB over F_p.
var curveB = big.NewInt(3)

// curveBGfP is curveB in Montgomery limb form.
var curveBGfP = newGfP(3)

// xi is ξ = i + 3 ∈ F_p², the sextic non-residue defining the tower
// F_p¹² = F_p²[w]/(w⁶ − ξ) and the twist E': y² = x³ + 3/ξ.
var xi = &gfP2{x: newGfP(1), y: newGfP(3)}

// twistB = 3/ξ is the constant of the sextic twist.
var twistB = computeTwistB()

func computeTwistB() *gfP2 {
	inv := newGFp2().Invert(xi)
	return inv.MulScalar(inv, &curveBGfP)
}

// Frobenius twist factors, all computed from ξ and p. The names follow the
// exponents: xiToPMinus1Over6 = ξ^((p−1)/6) and so on. They are elements of
// F_p² (several of them in fact lie in F_p).
var (
	xiToPMinus1Over6 = frobConst(6, 1)
	xiToPMinus1Over3 = frobConst(3, 1)
	xiToPMinus1Over2 = frobConst(2, 1)

	xiToPSquaredMinus1Over6 = frobConst(6, 2)
	xiToPSquaredMinus1Over3 = frobConst(3, 2)
	xiToPSquaredMinus1Over2 = frobConst(2, 2)
)

// curveGen is the canonical generator of G1: the point (1, 2). E(F_p) has
// prime order n, so any non-identity point generates the group.
var curveGen = &curvePoint{
	x: newGfP(1),
	y: newGfP(2),
	z: newGfP(1),
	t: newGfP(1),
}

// twistGen is a generator of G2, derived deterministically by hashing to
// the twist and clearing the cofactor (see makeTwistGen in twist.go).
var twistGen = makeTwistGen()

// gtGen is e(g1, g2), the canonical generator of GT.
var gtGen = atePairing(twistGen, curveGen)

func bnPrime() *big.Int {
	// 36u⁴ + 36u³ + 24u² + 6u + 1
	return bnPoly(36, 36, 24, 6, 1)
}

func bnOrder() *big.Int {
	// 36u⁴ + 36u³ + 18u² + 6u + 1
	return bnPoly(36, 36, 18, 6, 1)
}

// bnPoly evaluates c4·u⁴ + c3·u³ + c2·u² + c1·u + c0.
func bnPoly(c4, c3, c2, c1, c0 int64) *big.Int {
	acc := big.NewInt(c4)
	for _, c := range []int64{c3, c2, c1, c0} {
		acc.Mul(acc, u)
		acc.Add(acc, big.NewInt(c))
	}
	return acc
}

// frobConst computes ξ^((p^power − 1)/div) in F_p².
func frobConst(div int64, power int) *gfP2 {
	pk := new(big.Int).Exp(P, big.NewInt(int64(power)), nil)
	e := new(big.Int).Sub(pk, big.NewInt(1))
	e.Div(e, big.NewInt(div))
	return newGFp2().Exp(xi, e)
}
