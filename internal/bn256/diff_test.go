package bn256

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

// The diff tests pin the Montgomery limb core to the retained big.Int
// reference implementation (ref_*.go): every operation is executed on both
// cores with the same inputs and the results must match exactly.

// randBigMod returns a uniform element of [0, m).
func randBigMod(t *testing.T, m *big.Int) *big.Int {
	t.Helper()
	v, err := rand.Int(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDiffGfPArithmetic(t *testing.T) {
	for i := 0; i < 50; i++ {
		a := randBigMod(t, P)
		b := randBigMod(t, P)
		ga := gfPFromBig(a)
		gb := gfPFromBig(b)

		check := func(name string, got *gfP, want *big.Int) {
			t.Helper()
			if got.BigInt().Cmp(want) != 0 {
				t.Fatalf("%s mismatch: limb=%v ref=%v (a=%v b=%v)", name, got.BigInt(), want, a, b)
			}
		}

		var r gfP
		gfpMul(&r, &ga, &gb)
		check("mul", &r, new(big.Int).Mod(new(big.Int).Mul(a, b), P))

		gfpAdd(&r, &ga, &gb)
		check("add", &r, new(big.Int).Mod(new(big.Int).Add(a, b), P))

		gfpSub(&r, &ga, &gb)
		check("sub", &r, new(big.Int).Mod(new(big.Int).Sub(a, b), P))

		gfpNeg(&r, &ga)
		check("neg", &r, new(big.Int).Mod(new(big.Int).Neg(a), P))

		gfpDouble(&r, &ga)
		check("double", &r, new(big.Int).Mod(new(big.Int).Lsh(a, 1), P))

		if a.Sign() != 0 {
			r.Invert(&ga)
			check("inv", &r, new(big.Int).ModInverse(a, P))
		}

		yy := new(big.Int).Mod(new(big.Int).Mul(a, a), P)
		gyy := gfPFromBig(yy)
		if !r.Sqrt(&gyy) {
			t.Fatal("Sqrt failed on a perfect square")
		}
		want := new(big.Int).ModSqrt(yy, P)
		check("sqrt", &r, want)
	}
}

func TestDiffGfPMarshal(t *testing.T) {
	for i := 0; i < 20; i++ {
		a := randBigMod(t, P)
		ga := gfPFromBig(a)
		var out [32]byte
		ga.Marshal(out[:])
		var want [32]byte
		a.FillBytes(want[:])
		if !bytes.Equal(out[:], want[:]) {
			t.Fatalf("Marshal bytes differ from big-endian big.Int encoding: %x vs %x", out, want)
		}
		var back gfP
		if err := back.Unmarshal(out[:]); err != nil {
			t.Fatal(err)
		}
		if !back.Equal(&ga) {
			t.Fatal("Unmarshal(Marshal(a)) != a")
		}
	}
}

func randRefGFp2(t *testing.T) *refGfP2 {
	t.Helper()
	return &refGfP2{x: randBigMod(t, P), y: randBigMod(t, P)}
}

func TestDiffGfP2Ops(t *testing.T) {
	for i := 0; i < 25; i++ {
		ra := randRefGFp2(t)
		rb := randRefGFp2(t)
		la := gfP2FromRef(ra)
		lb := gfP2FromRef(rb)

		check := func(name string, limb *gfP2, ref *refGfP2) {
			t.Helper()
			if !refGfP2FromLimb(limb).Equal(ref) {
				t.Fatalf("gfP2 %s mismatch (iteration %d)", name, i)
			}
		}

		check("mul", newGFp2().Mul(la, lb), newRefGFp2().Mul(ra, rb))
		check("square", newGFp2().Square(la), newRefGFp2().Square(ra))
		check("add", newGFp2().Add(la, lb), newRefGFp2().Add(ra, rb))
		check("sub", newGFp2().Sub(la, lb), newRefGFp2().Sub(ra, rb))
		check("mulXi", newGFp2().MulXi(la), newRefGFp2().MulXi(ra))
		check("conj", newGFp2().Conjugate(la), newRefGFp2().Conjugate(ra))
		if !ra.IsZero() {
			check("invert", newGFp2().Invert(la), newRefGFp2().Invert(ra))
		}
	}
}

func TestDiffGfP12Ops(t *testing.T) {
	for i := 0; i < 10; i++ {
		la := randGFp12(t)
		lb := randGFp12(t)
		ra := refGfP12FromLimb(la)
		rb := refGfP12FromLimb(lb)

		check := func(name string, limb *gfP12, ref *refGfP12) {
			t.Helper()
			if !refGfP12FromLimb(limb).Equal(ref) {
				t.Fatalf("gfP12 %s mismatch (iteration %d)", name, i)
			}
		}

		check("mul", newGFp12().Mul(la, lb), newRefGFp12().Mul(ra, rb))
		check("square", newGFp12().Square(la), newRefGFp12().Square(ra))
		check("invert", newGFp12().Invert(la), newRefGFp12().Invert(ra))
		check("frobenius", newGFp12().Frobenius(la), newRefGFp12().Frobenius(ra))
		check("frobeniusP2", newGFp12().FrobeniusP2(la), newRefGFp12().FrobeniusP2(ra))
	}
}

func TestDiffCyclotomic(t *testing.T) {
	// Cyclotomic operations are only defined on pairing outputs, so start
	// from random GT elements rather than arbitrary gfP12 values.
	for i := 0; i < 5; i++ {
		a := randBigMod(t, Order)
		k := randBigMod(t, Order)
		lz := newGFp12().Exp(gtGen, a)
		rz := refGfP12FromLimb(lz)

		lsq := newGFp12().CyclotomicSquare(lz)
		rsq := newRefGFp12().CyclotomicSquare(rz)
		if !refGfP12FromLimb(lsq).Equal(rsq) {
			t.Fatalf("CyclotomicSquare mismatch (iteration %d)", i)
		}

		lexp := newGFp12().cyclotomicExp(lz, k)
		rexp := newRefGFp12().cyclotomicExp(rz, k)
		if !refGfP12FromLimb(lexp).Equal(rexp) {
			t.Fatalf("cyclotomicExp mismatch (iteration %d)", i)
		}

		// The final exponentiation's x^u: the limb core cubes x^∛u, the
		// reference walks NAF(u).
		lu := newGFp12().cyclotomicExp(lz, u)
		ru := newRefGFp12().cyclotomicExp(rz, u)
		if !refGfP12FromLimb(lu).Equal(ru) {
			t.Fatalf("cyclotomicExp by u mismatch (iteration %d)", i)
		}
	}
}

func TestDiffCurveOps(t *testing.T) {
	for i := 0; i < 5; i++ {
		a := randBigMod(t, Order)
		b := randBigMod(t, Order)

		lp := newCurvePoint().Mul(curveGen, a)
		rp := newRefCurvePoint().Mul(refCurveGen, a)
		if !refCurvePointFromLimb(lp).Equal(rp) {
			t.Fatalf("G1 scalar mult mismatch (iteration %d)", i)
		}

		lq := newCurvePoint().Mul(curveGen, b)
		rq := newRefCurvePoint().Mul(refCurveGen, b)

		lsum := newCurvePoint().Add(lp, lq)
		rsum := newRefCurvePoint().Add(rp, rq)
		if !refCurvePointFromLimb(lsum).Equal(rsum) {
			t.Fatalf("G1 add mismatch (iteration %d)", i)
		}

		ldbl := newCurvePoint().Double(lp)
		rdbl := newRefCurvePoint().Double(rp)
		if !refCurvePointFromLimb(ldbl).Equal(rdbl) {
			t.Fatalf("G1 double mismatch (iteration %d)", i)
		}
	}
}

func TestDiffTwistOps(t *testing.T) {
	for i := 0; i < 3; i++ {
		a := randBigMod(t, Order)
		b := randBigMod(t, Order)

		lp := newTwistPoint().Mul(twistGen, a)
		rp := newRefTwistPoint().Mul(refTwistGen, a)
		if !refTwistPointFromLimb(lp).Equal(rp) {
			t.Fatalf("G2 scalar mult mismatch (iteration %d)", i)
		}

		lq := newTwistPoint().Mul(twistGen, b)
		rq := newRefTwistPoint().Mul(refTwistGen, b)

		lsum := newTwistPoint().Add(lp, lq)
		rsum := newRefTwistPoint().Add(rp, rq)
		if !refTwistPointFromLimb(lsum).Equal(rsum) {
			t.Fatalf("G2 add mismatch (iteration %d)", i)
		}
	}
}

func TestDiffPairing(t *testing.T) {
	// The limb core's projective Miller loop and the reference core's affine
	// Miller loop produce raw values differing by F_p² scale factors, which
	// the final exponentiation kills — so the comparison is on the full
	// pairing, not the raw Miller output.
	for i := 0; i < 2; i++ {
		a := randBigMod(t, Order)
		b := randBigMod(t, Order)

		lp := newCurvePoint().Mul(curveGen, a)
		lq := newTwistPoint().Mul(twistGen, b)

		limb := atePairing(lq, lp)
		ref := refAtePairing(refTwistPointFromLimb(lq), refCurvePointFromLimb(lp))
		if !refGfP12FromLimb(limb).Equal(ref) {
			t.Fatalf("ate pairing mismatch between limb and reference core (iteration %d)", i)
		}
	}

	// Generators themselves.
	limb := atePairing(twistGen, curveGen)
	ref := refAtePairing(refTwistGen, refCurveGen)
	if !refGfP12FromLimb(limb).Equal(ref) {
		t.Fatal("e(g1, g2) differs between limb and reference core")
	}
}

func TestDiffHashToG1(t *testing.T) {
	// HashToG1 must land on identical points in both representations, since
	// its output feeds protocol transcripts byte-for-byte.
	for _, msg := range []string{"", "peace", "metropolitan mesh"} {
		h := HashToG1([]byte(msg))
		rp := refCurvePointFromLimb(h.p)
		if !rp.IsOnCurve() {
			t.Fatalf("HashToG1(%q) not on curve under reference check", msg)
		}
		if !newRefCurvePoint().Mul(rp, Order).IsInfinity() {
			t.Fatalf("HashToG1(%q) not in the order-n subgroup under reference check", msg)
		}
		// The pure big.Int hash path must land on the identical point.
		if !refHashToG1([]byte(msg)).Equal(rp) {
			t.Fatalf("refHashToG1(%q) differs from limb HashToG1", msg)
		}
	}
}

// TestScalarMultCycloMatchesScalarMult pins the cyclotomic GT exponentiation
// (used by the sgs verifier) to the generic square-and-multiply path.
func TestScalarMultCycloMatchesScalarMult(t *testing.T) {
	for i := 0; i < 5; i++ {
		a := randBigMod(t, Order)
		k := randBigMod(t, Order)
		z := new(GT).ScalarBaseMult(a)

		fast := new(GT).ScalarMultCyclo(z, k)
		slow := new(GT).ScalarMult(z, k)
		if !fast.Equal(slow) {
			t.Fatalf("ScalarMultCyclo disagrees with ScalarMult (iteration %d)", i)
		}

		viaExp := &GT{p: newGFp12().Exp(z.p, k)}
		if !fast.Equal(viaExp) {
			t.Fatalf("ScalarMultCyclo disagrees with generic Exp (iteration %d)", i)
		}
	}

	// Edge scalars.
	z := new(GT).Base()
	if !new(GT).ScalarMultCyclo(z, big.NewInt(0)).IsOne() {
		t.Fatal("z^0 != 1")
	}
	if !new(GT).ScalarMultCyclo(z, big.NewInt(1)).Equal(z) {
		t.Fatal("z^1 != z")
	}
	if !new(GT).ScalarMultCyclo(z, Order).IsOne() {
		t.Fatal("z^n != 1")
	}
}
