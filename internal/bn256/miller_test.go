package bn256

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func TestMillerFinalizeMatchesPair(t *testing.T) {
	_, ga, _ := RandomG1(rand.Reader)
	_, gb, _ := RandomG2(rand.Reader)

	direct := Pair(ga, gb)
	split := Miller(ga, gb).Finalize()
	if !direct.Equal(split) {
		t.Fatal("Miller+Finalize != Pair")
	}
}

func TestPairingCheckProduct(t *testing.T) {
	// e(aP, Q) · e(−aP, Q) = 1.
	a, _ := RandomScalar(rand.Reader)
	p := new(G1).ScalarBaseMult(a)
	pNeg := new(G1).Neg(p)
	q := new(G2).Base()

	if !PairingCheck([]*G1{p, pNeg}, []*G2{q, q}) {
		t.Fatal("PairingCheck rejected a true product")
	}

	// e(aP, Q) · e(P, Q) ≠ 1 for generic a.
	base := new(G1).Base()
	if PairingCheck([]*G1{p, base}, []*G2{q, q}) {
		t.Fatal("PairingCheck accepted a false product")
	}
}

// TestSharedFinalExpDecidesProduct decides the Eq.3 token test's shape,
// e(P, Q)·e(−P, Q) = 1, two ways: as two pairings (each a Miller loop and
// a final exponentiation, as Pair is) multiplied in GT, and as two Miller
// loops into one accumulator with one final exponentiation. Both reach the
// same verdict, the second from half the final exponentiations.
func TestSharedFinalExpDecidesProduct(t *testing.T) {
	a, _ := RandomScalar(rand.Reader)
	p := new(G1).ScalarBaseMult(a)
	pNeg := new(G1).Neg(p)
	q := new(G2).Base()

	finalExps := 0
	finalize := func(acc *GT) *GT {
		finalExps++
		return acc.Finalize()
	}

	e1, e2 := finalize(Miller(p, q)), finalize(Miller(pNeg, q))
	if !e1.Equal(Pair(p, q)) || !e2.Equal(Pair(pNeg, q)) {
		t.Fatal("Miller+Finalize != Pair")
	}
	if !e1.Add(e1, e2).IsOne() {
		t.Error("two pairings: e(P,Q)·e(−P,Q) != 1")
	}
	if finalExps != 2 {
		t.Fatalf("two pairings ran %d final exponentiations, want 2", finalExps)
	}

	finalExps = 0
	acc := Miller(p, q)
	acc.Add(acc, Miller(pNeg, q))
	if !finalize(acc).IsOne() {
		t.Error("shared accumulator: e(P,Q)·e(−P,Q) != 1")
	}
	if finalExps != 1 {
		t.Fatalf("shared accumulator ran %d final exponentiations, want 1", finalExps)
	}
}

func TestPairingCheckDHTriple(t *testing.T) {
	// The classic co-DDH check: e(g1^a, g2^b) == e(g1^(ab), g2), phrased as
	// a product: e(g1^a, g2^b)·e(g1^(−ab), g2) = 1.
	a, _ := RandomScalar(rand.Reader)
	b, _ := RandomScalar(rand.Reader)
	ga := new(G1).ScalarBaseMult(a)
	gb := new(G2).ScalarBaseMult(b)

	ab := new(G1).ScalarMult(ga, b)
	abNeg := new(G1).Neg(ab)
	g2 := new(G2).Base()

	if !PairingCheck([]*G1{ga, abNeg}, []*G2{gb, g2}) {
		t.Fatal("co-DDH product check failed")
	}
}

func TestPairingCheckSkipsIdentity(t *testing.T) {
	inf := new(G1).SetInfinity()
	q := new(G2).Base()
	if !PairingCheck([]*G1{inf}, []*G2{q}) {
		t.Fatal("e(O, Q) should be 1")
	}
}

// TestFrobeniusTwist pins the three Frobenius constants the optimal ate
// loop closes with: on G2 the twisted p-power Frobenius π acts as
// multiplication by p, so π(Q) = [p]Q and −π²(Q) = −[p²]Q, both on the twist.
func TestFrobeniusTwist(t *testing.T) {
	p2 := new(big.Int).Mul(P, P)
	for i := 0; i < 3; i++ {
		_, g, err := RandomG2(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		q := newTwistPoint().Set(g.p)
		q.MakeAffine()

		q1 := newTwistPoint().psi(q)
		if !q1.IsOnCurve() {
			t.Fatal("π(Q) is not on the twist")
		}
		if !q1.Equal(newTwistPoint().Mul(q, P)) {
			t.Fatal("π(Q) != [p]Q")
		}

		negQ2 := negFrobeniusP2Twist(q)
		if !negQ2.IsOnCurve() {
			t.Fatal("−π²(Q) is not on the twist")
		}
		want := newTwistPoint().Mul(q, p2)
		if !negQ2.Equal(want.Negative(want)) {
			t.Fatal("−π²(Q) != −[p²]Q")
		}
	}
}

// TestMillerScheduleShape pins the loop length: the NAF of 6u+2 recomposes,
// is non-adjacent, and flattens to 65 doublings + 18 additions (6 of them
// −Q) + the two Frobenius lines, in that order.
func TestMillerScheduleShape(t *testing.T) {
	acc := new(big.Int)
	for i := len(sixuPlus2NAF) - 1; i >= 0; i-- {
		acc.Lsh(acc, 1)
		acc.Add(acc, big.NewInt(int64(sixuPlus2NAF[i])))
		if i > 0 && sixuPlus2NAF[i] != 0 && sixuPlus2NAF[i-1] != 0 {
			t.Fatal("adjacent non-zero digits in the 6u+2 NAF")
		}
	}
	want := new(big.Int).Mul(big.NewInt(6), u)
	want.Add(want, big.NewInt(2))
	if acc.Cmp(want) != 0 {
		t.Fatalf("NAF recomposes to %v, want 6u+2 = %v", acc, want)
	}

	counts := map[millerOp]int{}
	for _, op := range millerSchedule {
		counts[op]++
	}
	if counts[opDouble] != 65 || counts[opAddQ] != 12 || counts[opSubQ] != 6 ||
		counts[opAddQ1] != 1 || counts[opSubQ2] != 1 || len(millerSchedule) != 85 {
		t.Fatalf("schedule shape %v (len %d), want 65 doublings + 12/6 ±Q additions + 2 Frobenius lines", counts, len(millerSchedule))
	}
	n := len(millerSchedule)
	if millerSchedule[0] != opDouble || millerSchedule[n-2] != opAddQ1 || millerSchedule[n-1] != opSubQ2 {
		t.Fatal("schedule must open with a doubling and close with the Frobenius lines")
	}
	if got := len(PrepareG2(new(G2).Base()).steps); got != n {
		t.Fatalf("PrepareG2 recorded %d lines, want %d", got, n)
	}
}

// TestMillerPathsAgree checks that the three Miller entry points — the
// one-shot loop, a replayed PreparedG2 and MillerCombined — finalize to the
// same pairing value.
func TestMillerPathsAgree(t *testing.T) {
	_, ga, _ := RandomG1(rand.Reader)
	_, gb, _ := RandomG2(rand.Reader)
	pq := PrepareG2(gb)

	want := finalExponentiation(miller(gb.p, ga.p))
	if want.IsOne() {
		t.Fatal("pairing of random points is degenerate")
	}
	if got := pq.Miller(ga).Finalize(); !got.p.Equal(want) {
		t.Fatal("PreparedG2.Miller disagrees with miller")
	}
	if got := MillerCombined([]*PreparedG2{pq}, []*G1{ga}).Finalize(); !got.p.Equal(want) {
		t.Fatal("MillerCombined disagrees with miller")
	}
}
