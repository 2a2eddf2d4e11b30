package bn256

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// randomCyclotomic returns a random element of the cyclotomic subgroup by
// pushing a random field element through the easy part of the final
// exponentiation.
func randomCyclotomic(t *testing.T) *gfP12 {
	t.Helper()
	k1, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	g1 := new(G1).ScalarBaseMult(k1)
	g2 := new(G2).ScalarBaseMult(k2)
	return finalExponentiationEasy(miller(g2.p, g1.p))
}

func TestCyclotomicSquareMatchesSquare(t *testing.T) {
	a := randomCyclotomic(t)
	want := newGFp12().Square(a)
	got := newGFp12().CyclotomicSquare(a)
	if !got.Minimal().Equal(want.Minimal()) {
		t.Fatal("CyclotomicSquare disagrees with generic Square on a cyclotomic element")
	}

	// In-place aliasing.
	aliased := newGFp12().Set(a)
	aliased.CyclotomicSquare(aliased)
	if !aliased.Minimal().Equal(want) {
		t.Fatal("in-place CyclotomicSquare disagrees")
	}

	one := newGFp12().SetOne()
	if !newGFp12().CyclotomicSquare(one).Minimal().IsOne() {
		t.Fatal("CyclotomicSquare(1) != 1")
	}
}

func TestCyclotomicExpMatchesExp(t *testing.T) {
	a := randomCyclotomic(t)
	for _, k := range []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(3),
		new(big.Int).Set(u), // one walk over NAF(u)
		u,                   // the variable itself: three walks over NAF(∛u)
		new(big.Int).Sub(Order, big.NewInt(1)),
	} {
		want := newGFp12().Exp(a, k).Minimal()
		got := newGFp12().cyclotomicExp(a, k).Minimal()
		if !got.Equal(want) {
			t.Fatalf("cyclotomicExp(a, %v) disagrees with Exp", k)
		}
	}
}

func TestNAFDigits(t *testing.T) {
	for _, k := range []int64{0, 1, 2, 3, 7, 255, 1 << 20, 123456789} {
		digits := nafDigits(big.NewInt(k))
		// Recompose MSB-first: digits are stored LSB-first.
		acc := big.NewInt(0)
		for i := len(digits) - 1; i >= 0; i-- {
			acc.Lsh(acc, 1)
			acc.Add(acc, big.NewInt(int64(digits[i])))
			if i > 0 && digits[i] != 0 && digits[i-1] != 0 {
				t.Fatalf("k=%d: adjacent non-zero NAF digits", k)
			}
		}
		if acc.Int64() != k {
			t.Fatalf("k=%d: NAF recomposes to %v", k, acc)
		}
	}
}

// TestUCubeRootNAF pins the digit string the final exponentiation walks
// three times: 2²¹ − 2¹⁸ + 2¹⁵ + 2⁸ + 1.
func TestUCubeRootNAF(t *testing.T) {
	want := make([]int8, 22)
	want[21], want[18], want[15], want[8], want[0] = 1, -1, 1, 1, 1
	if len(uCubeRootNAF) != len(want) {
		t.Fatalf("NAF(∛u) has %d digits, want %d", len(uCubeRootNAF), len(want))
	}
	for i := range want {
		if uCubeRootNAF[i] != want[i] {
			t.Fatalf("NAF(∛u) digit %d is %d, want %d", i, uCubeRootNAF[i], want[i])
		}
	}
}

func BenchmarkCyclotomicSquare(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	g1 := new(G1).ScalarBaseMult(k)
	a := finalExponentiationEasy(miller(new(G2).Base().p, g1.p))
	out := newGFp12()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.CyclotomicSquare(a)
	}
}
