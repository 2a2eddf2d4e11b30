package bn256

import (
	"math/big"
	"testing"
)

// This file measures the retained big.Int reference core against the
// Montgomery limb core on the primitives that dominate protocol cost.

// refHashToG1 is the pre-limb-core HashToG1: identical hash schedule, but
// with big.Int modular arithmetic for the curve equation and square root.
// It produces the same point as HashToG1 (p ≡ 3 mod 4 gives both square
// roots the same principal value).
func refHashToG1(msg []byte) *refCurvePoint {
	three := big.NewInt(3)
	for ctr := uint32(0); ; ctr++ {
		d := hashWithTag("g1", ctr, msg)
		x := new(big.Int).SetBytes(d[:])
		x.Mod(x, P)

		yy := new(big.Int).Mul(x, x)
		yy.Mul(yy, x)
		yy.Add(yy, three)
		yy.Mod(yy, P)

		y := new(big.Int).ModSqrt(yy, P)
		if y == nil {
			continue
		}
		if d[31]&1 == 1 {
			y.Neg(y).Mod(y, P)
		}
		pt := newRefCurvePoint()
		pt.x.Set(x)
		pt.y.Set(y)
		pt.z.SetInt64(1)
		pt.t.SetInt64(1)
		return pt
	}
}

// BenchmarkFieldCore times pairing, group exponentiations and
// hash-to-G1 on the big.Int reference core ("ref") and the Montgomery
// limb core ("limb"): go test ./internal/bn256/ -run '^$' -bench
// FieldCore. The ratio of a primitive's two rows is the limb core's
// speedup.
func BenchmarkFieldCore(b *testing.B) {
	k := HashToScalar([]byte("fieldcore probe"))
	msg := []byte("fieldcore hash probe")
	refGT := refGfP12FromLimb(gtGen)
	for _, row := range []struct {
		name      string
		ref, limb func()
	}{
		{"pairing",
			func() { refAtePairing(refTwistGen, refCurveGen) },
			func() { atePairing(twistGen, curveGen) }},
		{"G1-exp",
			func() { newRefCurvePoint().Mul(refCurveGen, k) },
			func() { newCurvePoint().Mul(curveGen, k) }},
		{"G2-exp",
			func() { newRefTwistPoint().Mul(refTwistGen, k) },
			func() { newTwistPoint().Mul(twistGen, k) }},
		{"GT-exp",
			func() { newRefGFp12().Exp(refGT, k) },
			func() { newGFp12().cyclotomicExp(gtGen, k) }},
		{"hash-to-G1",
			func() { refHashToG1(msg) },
			func() { HashToG1(msg) }},
	} {
		for _, side := range []struct {
			name string
			fn   func()
		}{{"ref", row.ref}, {"limb", row.limb}} {
			b.Run(row.name+"/"+side.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					side.fn()
				}
			})
		}
	}
}
