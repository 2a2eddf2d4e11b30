package bn256

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func TestGLVConstants(t *testing.T) {
	g := glv()
	// β³ = 1 in F_p, β ≠ 1.
	b3 := new(big.Int).Exp(g.beta, big.NewInt(3), P)
	if b3.Cmp(big.NewInt(1)) != 0 || g.beta.Cmp(big.NewInt(1)) == 0 {
		t.Fatal("beta is not a primitive cube root of unity")
	}
	// λ² + λ + 1 ≡ 0 mod n.
	l := new(big.Int).Mul(g.lambda, g.lambda)
	l.Add(l, g.lambda)
	l.Add(l, big.NewInt(1))
	if l.Mod(l, Order).Sign() != 0 {
		t.Fatal("lambda is not a primitive cube root of unity mod Order")
	}
	// Basis rows lie in the lattice: a + b·λ ≡ 0 mod n.
	for _, row := range [][2]*big.Int{{g.a1, g.b1}, {g.a2, g.b2}} {
		v := new(big.Int).Mul(row[1], g.lambda)
		v.Add(v, row[0])
		if v.Mod(v, Order).Sign() != 0 {
			t.Fatalf("basis row (%v, %v) not in the GLV lattice", row[0], row[1])
		}
	}
}

// glvDecompose is glvDecomposeInto into fresh integers.
func glvDecompose(k *big.Int) (*big.Int, *big.Int) {
	k1, k2 := new(big.Int), new(big.Int)
	glvDecomposeInto(k1, k2, k, new([3]big.Int))
	return k1, k2
}

func TestGLVDecompose(t *testing.T) {
	g := glv()
	// Sub-scalars must stay near √n: allow a few bits of slack over half
	// the order's length.
	maxBits := Order.BitLen()/2 + 4
	for i := 0; i < 50; i++ {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		k1, k2 := glvDecompose(k)
		if k1.BitLen() > maxBits || k2.BitLen() > maxBits {
			t.Fatalf("decomposition too long: |k1|=%d |k2|=%d bits", k1.BitLen(), k2.BitLen())
		}
		// k1 + k2·λ ≡ k mod n.
		v := new(big.Int).Mul(k2, g.lambda)
		v.Add(v, k1)
		v.Mod(v, Order)
		if v.Cmp(k) != 0 {
			t.Fatalf("decomposition does not recompose: k=%v", k)
		}
	}
}

func TestMulGLVMatchesGeneric(t *testing.T) {
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p := newCurvePoint().mulGeneric(curveGen, k)

	scalars := []*big.Int{
		new(big.Int).Sub(Order, big.NewInt(1)),
		new(big.Int).Sub(Order, big.NewInt(2)),
		new(big.Int).Add(Order, big.NewInt(12345)), // unreduced input
	}
	for i := 0; i < 20; i++ {
		s, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		scalars = append(scalars, s)
	}
	for _, s := range scalars {
		want := newCurvePoint().mulGeneric(p, s)
		got := newCurvePoint().mulGLV(p, s)
		if !got.Equal(want) {
			t.Fatalf("mulGLV(%v) disagrees with mulGeneric", s)
		}
	}
}

func BenchmarkG1MulGLV(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	p := newCurvePoint().mulGeneric(curveGen, k)
	s, _ := RandomScalar(rand.Reader)
	out := newCurvePoint()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.mulGLV(p, s)
	}
}

// TestMultiScalarMultMatchesGeneric pins the one-chain product of powers to
// the textbook ladder, on the scalar edges and on random scalars.
func TestMultiScalarMultMatchesGeneric(t *testing.T) {
	a, b := randomScalarT(t), randomScalarT(t)
	pa := newCurvePoint().mulGeneric(curveGen, a)
	pb := newCurvePoint().mulGeneric(curveGen, b)
	edges := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(Order, big.NewInt(1)), big.NewInt(-3)}
	for i := 0; i < 10; i++ {
		ka, kb := edges[i%len(edges)], randomScalarT(t)
		if i >= len(edges) {
			ka = randomScalarT(t)
		}
		got := new(G1).MultiScalarMult([]*G1{{p: pa}, {p: pb}}, []*big.Int{ka, kb})
		want := newCurvePoint().mulGeneric(pa, new(big.Int).Mod(ka, Order))
		want.Add(want, newCurvePoint().mulGeneric(pb, kb))
		if !got.p.Equal(want) {
			t.Fatalf("MultiScalarMult(%v, %v) disagrees with the ladder", ka, kb)
		}
	}
	// The same base twice, and a base with its negation: the sum's
	// doubling and cancellation cases.
	k := randomScalarT(t)
	twice := new(G1).MultiScalarMult([]*G1{{p: pa}, {p: pa}}, []*big.Int{k, k})
	if !twice.p.Equal(newCurvePoint().mulGeneric(pa, new(big.Int).Mod(new(big.Int).Lsh(k, 1), Order))) {
		t.Fatal("k·P + k·P ≠ 2k·P")
	}
	cancel := new(G1).MultiScalarMult([]*G1{{p: pa}, {p: pa}}, []*big.Int{k, new(big.Int).Sub(Order, k)})
	if !cancel.IsInfinity() {
		t.Fatal("k·P + (n−k)·P ≠ ∞")
	}
}

// TestNormalizeG1 checks that the shared-inversion normalization keeps
// every point's value, leaves the identity alone and leaves z = 1.
func TestNormalizeG1(t *testing.T) {
	var pts []*G1
	var want []*curvePoint
	for i := 0; i < 5; i++ {
		p := newCurvePoint().mulGeneric(curveGen, randomScalarT(t)) // Jacobian, z ≠ 1
		pts = append(pts, &G1{p: p})
		want = append(want, newCurvePoint().Set(p))
	}
	pts = append(pts, new(G1).SetInfinity(), new(G1).Base())
	want = append(want, newCurvePoint().SetInfinity(), newCurvePoint().Set(curveGen))
	NormalizeG1(pts...)
	for i, p := range pts {
		if !p.p.Equal(want[i]) {
			t.Fatalf("point %d changed value", i)
		}
		if !p.IsInfinity() && !p.p.z.Equal(&rOne) {
			t.Fatalf("point %d is not affine", i)
		}
	}
	if !pts[5].IsInfinity() {
		t.Fatal("identity disturbed")
	}
}

// TestG1ScalarMultAllocs holds the scalar G1 multiplications, which Sign,
// a lone request's Diffie–Hellman key and every CPU without the lane
// kernels run, to no allocation into a point that has its storage: the
// GLV split of a full-length scalar, a scalar short enough for the plain
// wNAF ladder, and a two-term MultiScalarMult.
func TestG1ScalarMultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	p := new(G1).ScalarBaseMult(randomScalarT(t))
	q := new(G1).ScalarBaseMult(randomScalarT(t))
	long, short := randomScalarT(t), new(big.Int).Rsh(randomScalarT(t), 130)
	out := new(G1).ScalarMult(p, long)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"ScalarMult", func() { out.ScalarMult(p, long) }},
		{"ScalarMult/short", func() { out.ScalarMult(p, short) }},
		{"MultiScalarMult", func() { out.MultiScalarMult([]*G1{p, q}, []*big.Int{long, short}) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.f); allocs > 0 {
			t.Errorf("%s: %.1f allocs, want 0", c.name, allocs)
		}
	}
}
