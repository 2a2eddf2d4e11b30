package bn256

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func randomScalarT(t *testing.T) *big.Int {
	t.Helper()
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestBaseTablesMatchGenericMul cross-checks the fixed-base window tables
// against the generic ladder for both generators across edge-case and
// random scalars.
func TestBaseTablesMatchGenericMul(t *testing.T) {
	scalars := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(15),
		big.NewInt(16),
		big.NewInt(65535),
		new(big.Int).Sub(Order, big.NewInt(1)),
		new(big.Int).Set(Order),
		new(big.Int).Add(Order, big.NewInt(7)),
		new(big.Int).Neg(big.NewInt(5)),
		randomScalarT(t),
		randomScalarT(t),
	}
	for i, k := range scalars {
		wantG1 := &G1{p: newCurvePoint().mulGeneric(curveGen, new(big.Int).Mod(k, Order))}
		gotG1 := new(G1).ScalarBaseMult(k)
		if !gotG1.Equal(wantG1) {
			t.Errorf("scalar %d: G1 table mul mismatch for k=%v", i, k)
		}
		wantG2 := &G2{p: newTwistPoint().mulGeneric(twistGen, new(big.Int).Mod(k, Order))}
		gotG2 := new(G2).ScalarBaseMult(k)
		if !gotG2.Equal(wantG2) {
			t.Errorf("scalar %d: G2 table mul mismatch for k=%v", i, k)
		}
	}
}

// TestWNAFDigits checks that the digit expansion reconstructs the scalar
// and respects the non-adjacency/oddness invariants.
func TestWNAFDigits(t *testing.T) {
	for _, k := range []*big.Int{
		big.NewInt(1 << 20),
		big.NewInt(0xdeadbeef),
		randomScalarT(t),
		new(big.Int).Sub(Order, big.NewInt(1)),
	} {
		digits := wnafDigits(k, 5)
		recon := new(big.Int)
		for i := len(digits) - 1; i >= 0; i-- {
			recon.Lsh(recon, 1)
			recon.Add(recon, big.NewInt(int64(digits[i])))
		}
		if recon.Cmp(k) != 0 {
			t.Fatalf("wNAF reconstruction mismatch for %v", k)
		}
		for i, d := range digits {
			if d == 0 {
				continue
			}
			if d%2 == 0 {
				t.Fatalf("even non-zero wNAF digit %d at %d", d, i)
			}
			if d > 15 || d < -15 {
				t.Fatalf("wNAF digit %d out of range at %d", d, i)
			}
		}
	}
}

// TestPreparedG2MatchesMiller checks prepared evaluation against the
// reference Miller loop and the full pairing.
func TestPreparedG2MatchesMiller(t *testing.T) {
	a := randomScalarT(t)
	b := randomScalarT(t)
	p := new(G1).ScalarBaseMult(a)
	q := new(G2).ScalarBaseMult(b)

	pq := PrepareG2(q)
	if got, want := pq.Miller(p), Miller(p, q); !got.Equal(want) {
		t.Fatal("PreparedG2.Miller disagrees with Miller")
	}
	if got, want := pq.Pair(p), Pair(p, q); !got.Equal(want) {
		t.Fatal("PreparedG2.Pair disagrees with Pair")
	}

	// Identity handling on both sides.
	inf1 := new(G1).SetInfinity()
	if !pq.Miller(inf1).IsOne() {
		t.Error("prepared Miller at G1 identity should be one")
	}
	pinf := PrepareG2(new(G2).SetInfinity())
	if !pinf.Miller(p).IsOne() {
		t.Error("prepared Miller of G2 identity should be one")
	}
	if !pinf.Pair(p).IsOne() {
		t.Error("prepared Pair of G2 identity should be one")
	}
}

// TestPreparedG2ConcurrentUse exercises a shared PreparedG2 from several
// goroutines (run under -race in make ci).
func TestPreparedG2ConcurrentUse(t *testing.T) {
	q := new(G2).ScalarBaseMult(randomScalarT(t))
	pq := PrepareG2(q)
	p := new(G1).ScalarBaseMult(randomScalarT(t))
	want := Pair(p, q)

	done := make(chan bool, 8)
	for i := 0; i < 8; i++ {
		go func() {
			done <- pq.Pair(p).Equal(want)
		}()
	}
	for i := 0; i < 8; i++ {
		if !<-done {
			t.Fatal("concurrent prepared pairing mismatch")
		}
	}
}

// TestMillerCombinedMatchesProduct checks the shared-squaring multi-Miller
// evaluation against the product of independent prepared Miller loops.
func TestMillerCombinedMatchesProduct(t *testing.T) {
	preps := make([]*PreparedG2, 3)
	points := make([]*G1, 3)
	want := new(GT).SetOne()
	for i := range preps {
		p := new(G1).ScalarBaseMult(randomScalarT(t))
		q := new(G2).ScalarBaseMult(randomScalarT(t))
		preps[i] = PrepareG2(q)
		points[i] = p
		want.Add(want, Miller(p, q))
	}
	if got := MillerCombined(preps, points); !got.Equal(want) {
		t.Fatal("MillerCombined disagrees with product of Miller loops")
	}

	// Identity entries on either side are skipped.
	withInf := append([]*PreparedG2{PrepareG2(new(G2).SetInfinity())}, preps...)
	ptsInf := append([]*G1{new(G1).Base()}, points...)
	if got := MillerCombined(withInf, ptsInf); !got.Equal(want) {
		t.Fatal("MillerCombined should skip prepared identities")
	}
	ptsInf[0] = new(G1).SetInfinity()
	withInf[0] = PrepareG2(new(G2).Base())
	if got := MillerCombined(withInf, ptsInf); !got.Equal(want) {
		t.Fatal("MillerCombined should skip G1 identities")
	}

	// Empty input finalizes to one.
	if !MillerCombined(nil, nil).Finalize().IsOne() {
		t.Fatal("empty MillerCombined should be one")
	}
}

// TestPairBatchMatchesProduct checks that the shared-final-exponentiation
// product equals the product of individually finalized pairings.
func TestPairBatchMatchesProduct(t *testing.T) {
	pairs := make([]Pairing, 4)
	want := new(GT).SetOne()
	for i := range pairs {
		p := new(G1).ScalarBaseMult(randomScalarT(t))
		q := new(G2).ScalarBaseMult(randomScalarT(t))
		pairs[i] = Pairing{G1: p, G2: q}
		want.Add(want, Pair(p, q))
	}
	if got := PairBatch(pairs); !got.Equal(want) {
		t.Fatal("PairBatch disagrees with product of Pair calls")
	}

	// Identity pairs contribute nothing.
	withIdentity := append([]Pairing{{G1: new(G1).SetInfinity(), G2: new(G2).Base()}}, pairs...)
	if got := PairBatch(withIdentity); !got.Equal(want) {
		t.Fatal("PairBatch should skip identity pairs")
	}

	// Empty batch is the identity.
	if !PairBatch(nil).IsOne() {
		t.Fatal("empty PairBatch should be one")
	}

	// A pairing and its inverse cancel under one final exponentiation.
	p := new(G1).ScalarBaseMult(randomScalarT(t))
	q := new(G2).ScalarBaseMult(randomScalarT(t))
	cancel := []Pairing{{G1: p, G2: q}, {G1: new(G1).Neg(p), G2: q}}
	if !PairBatch(cancel).IsOne() {
		t.Fatal("e(P,Q)·e(−P,Q) should finalize to one")
	}
}
