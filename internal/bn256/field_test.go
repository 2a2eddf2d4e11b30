package bn256

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

// randGFp2 returns a uniform element of F_p² for property tests.
func randGFp2(t *testing.T) *gfP2 {
	t.Helper()
	x, err := rand.Int(rand.Reader, P)
	if err != nil {
		t.Fatal(err)
	}
	y, err := rand.Int(rand.Reader, P)
	if err != nil {
		t.Fatal(err)
	}
	return gfP2FromBigs(x, y)
}

func randGFp6(t *testing.T) *gfP6 {
	t.Helper()
	return &gfP6{x: *randGFp2(t), y: *randGFp2(t), z: *randGFp2(t)}
}

func randGFp12(t *testing.T) *gfP12 {
	t.Helper()
	return &gfP12{x: *randGFp6(t), y: *randGFp6(t)}
}

func TestGFp2FieldAxioms(t *testing.T) {
	for i := 0; i < 50; i++ {
		a, b, c := randGFp2(t), randGFp2(t), randGFp2(t)

		// Commutativity and associativity of multiplication.
		ab := newGFp2().Mul(a, b)
		ba := newGFp2().Mul(b, a)
		if !ab.Equal(ba) {
			t.Fatal("gfp2 mul not commutative")
		}
		abc1 := newGFp2().Mul(ab, c)
		bc := newGFp2().Mul(b, c)
		abc2 := newGFp2().Mul(a, bc)
		if !abc1.Equal(abc2) {
			t.Fatal("gfp2 mul not associative")
		}

		// Distributivity.
		apb := newGFp2().Add(a, b)
		l := newGFp2().Mul(apb, c)
		r := newGFp2().Add(newGFp2().Mul(a, c), newGFp2().Mul(b, c))
		if !l.Equal(r) {
			t.Fatal("gfp2 not distributive")
		}

		// Square consistency.
		sq := newGFp2().Square(a)
		aa := newGFp2().Mul(a, a)
		if !sq.Equal(aa) {
			t.Fatal("gfp2 Square != Mul(a,a)")
		}

		// Inverse.
		if !a.IsZero() {
			inv := newGFp2().Invert(a)
			one := newGFp2().Mul(a, inv)
			if !one.IsOne() {
				t.Fatal("gfp2 a·a⁻¹ != 1")
			}
		}

		// Conjugation is an automorphism: conj(ab) = conj(a)·conj(b).
		cab := newGFp2().Conjugate(ab)
		cacb := newGFp2().Mul(newGFp2().Conjugate(a), newGFp2().Conjugate(b))
		if !cab.Equal(cacb) {
			t.Fatal("gfp2 conjugation not multiplicative")
		}
	}
}

func TestGFp2Sqrt(t *testing.T) {
	for i := 0; i < 25; i++ {
		a := randGFp2(t)
		sq := newGFp2().Square(a)
		root := newGFp2()
		if !root.Sqrt(sq) {
			t.Fatal("square of an element reported as non-square")
		}
		rootSq := newGFp2().Square(root)
		if !rootSq.Equal(sq) {
			t.Fatal("Sqrt returned a non-root")
		}
	}
}

func TestGFp2SqrtNonSquare(t *testing.T) {
	// Exactly half of F_p²* is square; find a non-square and check Sqrt
	// rejects it.
	found := false
	for i := 0; i < 100 && !found; i++ {
		a := randGFp2(t)
		if a.IsZero() {
			continue
		}
		root := newGFp2()
		if !root.Sqrt(a) {
			found = true
		}
	}
	if !found {
		t.Fatal("no non-square found in 100 samples (astronomically unlikely)")
	}
}

func TestGFp6FieldAxioms(t *testing.T) {
	for i := 0; i < 25; i++ {
		a, b, c := randGFp6(t), randGFp6(t), randGFp6(t)

		ab := newGFp6().Mul(a, b)
		ba := newGFp6().Mul(b, a)
		if !ab.Equal(ba) {
			t.Fatal("gfp6 mul not commutative")
		}
		abc1 := newGFp6().Mul(ab, c)
		abc2 := newGFp6().Mul(a, newGFp6().Mul(b, c))
		if !abc1.Equal(abc2) {
			t.Fatal("gfp6 mul not associative")
		}

		if !a.IsZero() {
			inv := newGFp6().Invert(a)
			one := newGFp6().Mul(a, inv)
			if !one.IsOne() {
				t.Fatal("gfp6 a·a⁻¹ != 1")
			}
		}

		// τ³ = ξ: multiplying by τ three times equals scaling by ξ.
		tau3 := newGFp6().MulTau(newGFp6().MulTau(newGFp6().MulTau(a)))
		xiA := newGFp6().MulScalar(a, xi)
		if !tau3.Equal(xiA) {
			t.Fatal("gfp6 τ³ != ξ")
		}
	}
}

func TestGFp12FieldAxioms(t *testing.T) {
	for i := 0; i < 10; i++ {
		a, b, c := randGFp12(t), randGFp12(t), randGFp12(t)

		ab := newGFp12().Mul(a, b)
		ba := newGFp12().Mul(b, a)
		if !ab.Equal(ba) {
			t.Fatal("gfp12 mul not commutative")
		}
		abc1 := newGFp12().Mul(ab, c)
		abc2 := newGFp12().Mul(a, newGFp12().Mul(b, c))
		if !abc1.Equal(abc2) {
			t.Fatal("gfp12 mul not associative")
		}

		sq := newGFp12().Square(a)
		aa := newGFp12().Mul(a, a)
		if !sq.Equal(aa) {
			t.Fatal("gfp12 Square != Mul(a,a)")
		}

		if !a.IsZero() {
			inv := newGFp12().Invert(a)
			one := newGFp12().Mul(a, inv)
			if !one.IsOne() {
				t.Fatal("gfp12 a·a⁻¹ != 1")
			}
		}
	}
}

func TestGFp12FrobeniusIsAutomorphism(t *testing.T) {
	a, b := randGFp12(t), randGFp12(t)
	ab := newGFp12().Mul(a, b)
	l := newGFp12().Frobenius(ab)
	r := newGFp12().Mul(newGFp12().Frobenius(a), newGFp12().Frobenius(b))
	if !l.Equal(r) {
		t.Fatal("Frobenius not multiplicative")
	}
	// π² must equal FrobeniusP2.
	pp := newGFp12().Frobenius(newGFp12().Frobenius(a))
	p2 := newGFp12().FrobeniusP2(a)
	if !pp.Equal(p2) {
		t.Fatal("Frobenius∘Frobenius != FrobeniusP2")
	}
}

func TestGFp12ExpHomomorphism(t *testing.T) {
	a := randGFp12(t)
	k1, _ := RandomScalar(rand.Reader)
	k2, _ := RandomScalar(rand.Reader)
	sum := new(big.Int).Add(k1, k2)

	l := newGFp12().Mul(newGFp12().Exp(a, k1), newGFp12().Exp(a, k2))
	r := newGFp12().Exp(a, sum)
	if !l.Equal(r) {
		t.Fatal("a^k1 · a^k2 != a^(k1+k2)")
	}
}

func TestScalarArithmeticProperties(t *testing.T) {
	// quick-check that exponent arithmetic mod Order matches group
	// behaviour in G1.
	f := func(aRaw, bRaw int64) bool {
		a := new(big.Int).Mod(big.NewInt(aRaw), Order)
		b := new(big.Int).Mod(big.NewInt(bRaw), Order)
		sum := new(big.Int).Add(a, b)

		ga := newCurvePoint().Mul(curveGen, a)
		gb := newCurvePoint().Mul(curveGen, b)
		l := newCurvePoint().Add(ga, gb)
		r := newCurvePoint().Mul(curveGen, sum)
		return l.Equal(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBNConstantSanity(t *testing.T) {
	// p and n must be prime, p ≡ 3 (mod 4), p ≡ 1 (mod 6).
	if !P.ProbablyPrime(32) {
		t.Error("p not prime")
	}
	if !Order.ProbablyPrime(32) {
		t.Error("n not prime")
	}
	if new(big.Int).Mod(P, big.NewInt(4)).Int64() != 3 {
		t.Error("p % 4 != 3 (breaks sqrt algorithms)")
	}
	if new(big.Int).Mod(P, big.NewInt(6)).Int64() != 1 {
		t.Error("p % 6 != 1 (breaks tower Frobenius)")
	}
	// Trace of Frobenius: p + 1 − n = 6u² + 1.
	tr := new(big.Int).Add(P, big.NewInt(1))
	tr.Sub(tr, Order)
	want := bnPoly(0, 0, 6, 0, 1)
	if tr.Cmp(want) != 0 {
		t.Error("trace != 6u² + 1")
	}
}

func TestGFp2SqrtZeroAndOne(t *testing.T) {
	zero := newGFp2()
	root := newGFp2()
	if !root.Sqrt(zero) || !root.IsZero() {
		t.Fatal("sqrt(0) != 0")
	}
	one := newGFp2().SetOne()
	if !root.Sqrt(one) {
		t.Fatal("1 reported non-square")
	}
	sq := newGFp2().Square(root)
	if !sq.IsOne() {
		t.Fatal("sqrt(1)² != 1")
	}
}

func TestGFp2ExpEdges(t *testing.T) {
	a := randGFp2(t)
	if !newGFp2().Exp(a, big.NewInt(0)).IsOne() {
		t.Fatal("a^0 != 1")
	}
	if !newGFp2().Exp(a, big.NewInt(1)).Equal(a) {
		t.Fatal("a^1 != a")
	}
	// Fermat in F_p²: a^(p²−1) = 1 for a ≠ 0.
	p2m1 := new(big.Int).Mul(P, P)
	p2m1.Sub(p2m1, big.NewInt(1))
	if !newGFp2().Exp(a, p2m1).IsOne() {
		t.Fatal("a^(p²−1) != 1")
	}
}

func TestGFp6FrobeniusOrder(t *testing.T) {
	// π^6 = identity on F_p⁶.
	a := randGFp6(t)
	cur := newGFp6().Set(a)
	for i := 0; i < 6; i++ {
		cur.Frobenius(cur)
	}
	if !cur.Equal(a) {
		t.Fatal("Frobenius^6 != identity on gfp6")
	}
}

func TestGFp12FrobeniusOrder(t *testing.T) {
	// π^12 = identity on F_p¹².
	a := randGFp12(t)
	cur := newGFp12().Set(a)
	for i := 0; i < 12; i++ {
		cur.Frobenius(cur)
	}
	if !cur.Equal(a) {
		t.Fatal("Frobenius^12 != identity on gfp12")
	}
}
