package bn256

import "math/big"

// Constants for the retained big.Int reference core (ref_*.go). They mirror
// the limb core's constants exactly: the shared big.Int parameters (u, P,
// Order, sixuPlus2NAF, curveB) live in constants.go, and the generators are
// converted from the limb core so both cores agree on every canonical point
// by construction — the differential tests then verify the arithmetic on
// top of them.

// refXi is ξ = i + 3 ∈ F_p² in reference representation.
var refXi = &refGfP2{x: big.NewInt(1), y: big.NewInt(3)}

// refTwistB = 3/ξ, the constant of the sextic twist.
var refTwistB = computeRefTwistB()

func computeRefTwistB() *refGfP2 {
	inv := newRefGFp2().Invert(refXi)
	return inv.MulScalar(inv, curveB).Minimal()
}

// Frobenius twist factors ξ^((p^power−1)/div) for the reference tower.
var (
	refXiToPMinus1Over6 = refFrobConst(6, 1)
	refXiToPMinus1Over3 = refFrobConst(3, 1)
	refXiToPMinus1Over2 = refFrobConst(2, 1)

	refXiToPSquaredMinus1Over6 = refFrobConst(6, 2)
	refXiToPSquaredMinus1Over3 = refFrobConst(3, 2)
	refXiToPSquaredMinus1Over2 = refFrobConst(2, 2)
)

func refFrobConst(div int64, power int) *refGfP2 {
	pk := new(big.Int).Exp(P, big.NewInt(int64(power)), nil)
	e := new(big.Int).Sub(pk, big.NewInt(1))
	e.Div(e, big.NewInt(div))
	return newRefGFp2().Exp(refXi, e)
}

// refCurveGen is the canonical generator of G1: the point (1, 2).
var refCurveGen = &refCurvePoint{
	x: big.NewInt(1),
	y: big.NewInt(2),
	z: big.NewInt(1),
	t: big.NewInt(1),
}

// refTwistGen is the limb core's G2 generator converted to reference form;
// converting avoids re-running cofactor clearing on the slow core and pins
// both cores to the same point.
var refTwistGen = refTwistPointFromLimb(twistGen)

// Conversions between the limb core and the reference core, used by the
// differential tests and the field-core benchmark comparison.

func refGfP2FromLimb(a *gfP2) *refGfP2 {
	x, y := a.BigInts()
	return &refGfP2{x: x, y: y}
}

func gfP2FromRef(a *refGfP2) *gfP2 {
	b := newRefGFp2().Set(a).Minimal()
	return gfP2FromBigs(b.x, b.y)
}

func refTwistPointFromLimb(a *twistPoint) *refTwistPoint {
	aa := newTwistPoint().Set(a)
	if aa.IsInfinity() {
		return newRefTwistPoint().SetInfinity()
	}
	aa.MakeAffine()
	out := newRefTwistPoint()
	out.x = refGfP2FromLimb(&aa.x)
	out.y = refGfP2FromLimb(&aa.y)
	out.z.SetOne()
	out.t.SetOne()
	return out
}

func twistPointFromRef(a *refTwistPoint) *twistPoint {
	ra := newRefTwistPoint().Set(a)
	if ra.IsInfinity() {
		return newTwistPoint().SetInfinity()
	}
	ra.MakeAffine()
	out := newTwistPoint()
	out.x.Set(gfP2FromRef(ra.x))
	out.y.Set(gfP2FromRef(ra.y))
	out.z.SetOne()
	out.t.SetOne()
	return out
}

func refCurvePointFromLimb(a *curvePoint) *refCurvePoint {
	aa := newCurvePoint().Set(a)
	if aa.IsInfinity() {
		return newRefCurvePoint().SetInfinity()
	}
	aa.MakeAffine()
	out := newRefCurvePoint()
	out.x.Set(aa.x.BigInt())
	out.y.Set(aa.y.BigInt())
	out.z.SetInt64(1)
	out.t.SetInt64(1)
	return out
}

func curvePointFromRef(a *refCurvePoint) *curvePoint {
	ra := newRefCurvePoint().Set(a)
	if ra.IsInfinity() {
		return newCurvePoint().SetInfinity()
	}
	ra.MakeAffine()
	out := newCurvePoint()
	out.x = gfPFromBig(ra.x)
	out.y = gfPFromBig(ra.y)
	out.z.SetOne()
	out.t.SetOne()
	return out
}

func refGfP12FromLimb(a *gfP12) *refGfP12 {
	out := newRefGFp12()
	out.x.x.Set(refGfP2FromLimb(&a.x.x))
	out.x.y.Set(refGfP2FromLimb(&a.x.y))
	out.x.z.Set(refGfP2FromLimb(&a.x.z))
	out.y.x.Set(refGfP2FromLimb(&a.y.x))
	out.y.y.Set(refGfP2FromLimb(&a.y.y))
	out.y.z.Set(refGfP2FromLimb(&a.y.z))
	return out
}

func gfP12FromRef(a *refGfP12) *gfP12 {
	out := newGFp12()
	out.x.x.Set(gfP2FromRef(a.x.x))
	out.x.y.Set(gfP2FromRef(a.x.y))
	out.x.z.Set(gfP2FromRef(a.x.z))
	out.y.x.Set(gfP2FromRef(a.y.x))
	out.y.y.Set(gfP2FromRef(a.y.y))
	out.y.z.Set(gfP2FromRef(a.y.z))
	return out
}
