package bn256

import (
	"math/big"
	"testing"
)

// FuzzGfPvsBigInt differentially fuzzes the Montgomery limb core against
// big.Int arithmetic mod P. The op selector picks mul/add/sub/inv (mul also
// compares gfpMul, the assembly kernel on amd64, with gfpMulGeneric), and
// one expensive branch cross-checks a full pairing against the reference
// core.
// Run as a short smoke in CI: go test -run=^$ -fuzz=FuzzGfPvsBigInt -fuzztime=10s
func FuzzGfPvsBigInt(f *testing.F) {
	f.Add([]byte{1}, []byte{2}, byte(0))
	f.Add([]byte{0xff, 0xff}, []byte{0x01}, byte(1))
	f.Add(P.Bytes(), P.Bytes(), byte(2))
	f.Add([]byte{7}, []byte{11}, byte(3))
	f.Add([]byte{3}, []byte{5}, byte(4))
	// The Miller schedule is the same for every input, so any op-4 seed walks
	// the six −1 digits of the 6u+2 NAF and both Frobenius lines; this one
	// uses multi-limb scalars so Q, −Q, π(Q) and −π²(Q) are all generic.
	f.Add(Order.Bytes()[1:], P.Bytes()[2:], byte(4))
	// Largest operands, and R mod p whose Montgomery form is R² mod p.
	pMinus1 := new(big.Int).Sub(P, big.NewInt(1)).Bytes()
	f.Add(pMinus1, pMinus1, byte(0))
	f.Add(pMinus1, []byte{1}, byte(0))
	f.Add(new(big.Int).Mod(montR(), P).Bytes(), pMinus1, byte(0))

	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte, op byte) {
		if len(aRaw) > 64 || len(bRaw) > 64 {
			return
		}
		a := new(big.Int).Mod(new(big.Int).SetBytes(aRaw), P)
		b := new(big.Int).Mod(new(big.Int).SetBytes(bRaw), P)
		ga := gfPFromBig(a)
		gb := gfPFromBig(b)

		var r gfP
		var want *big.Int
		switch op % 5 {
		case 0:
			gfpMul(&r, &ga, &gb)
			want = new(big.Int).Mod(new(big.Int).Mul(a, b), P)
			var gen gfP
			gfpMulGeneric(&gen, &ga, &gb)
			if gen != r {
				t.Fatalf("gfpMul=%x gfpMulGeneric=%x (a=%v b=%v)", r, gen, a, b)
			}
		case 1:
			gfpAdd(&r, &ga, &gb)
			want = new(big.Int).Mod(new(big.Int).Add(a, b), P)
		case 2:
			gfpSub(&r, &ga, &gb)
			want = new(big.Int).Mod(new(big.Int).Sub(a, b), P)
		case 3:
			if a.Sign() == 0 {
				return
			}
			r.Invert(&ga)
			want = new(big.Int).ModInverse(a, P)
		case 4:
			// Full-pipeline check: the optimal ate pairing on scalar multiples
			// of the generators must agree between the limb and reference
			// cores.
			ka := new(big.Int).Mod(a, Order)
			kb := new(big.Int).Mod(b, Order)
			lp := newCurvePoint().Mul(curveGen, ka)
			lq := newTwistPoint().Mul(twistGen, kb)
			limb := atePairing(lq, lp)
			ref := refAtePairing(refTwistPointFromLimb(lq), refCurvePointFromLimb(lp))
			if !refGfP12FromLimb(limb).Equal(ref) {
				t.Fatalf("pairing mismatch: ka=%v kb=%v", ka, kb)
			}
			return
		}
		if r.BigInt().Cmp(want) != 0 {
			t.Fatalf("op %d mismatch: limb=%v bigint=%v (a=%v b=%v)", op%5, r.BigInt(), want, a, b)
		}
	})
}
