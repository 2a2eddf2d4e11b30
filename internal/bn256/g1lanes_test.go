package bn256

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

// g1MulEdgeScalars are the scalars a sum's terms take at the edges: 0, 1,
// r − 1, r (≡ 0), r + 1, 2²⁵⁵, −1 and 2²⁵⁶ − 1.
func g1MulEdgeScalars() []*big.Int {
	one := big.NewInt(1)
	return []*big.Int{
		big.NewInt(0), big.NewInt(1),
		new(big.Int).Sub(Order, one), new(big.Int).Set(Order), new(big.Int).Add(Order, one),
		new(big.Int).Lsh(one, 255), big.NewInt(-1),
		new(big.Int).Sub(new(big.Int).Lsh(one, 256), one),
	}
}

// checkG1MulLanes computes the sums by MultiScalarMultLanes and compares
// each, byte for byte, with MultiScalarMult of the same terms; it also
// checks that the points were not modified and that every output is
// affine.
func checkG1MulLanes(t testing.TB, name string, ps [][]*G1, ks [][]*big.Int) {
	t.Helper()
	jac := make([][]curvePoint, len(ps))
	for i, p := range ps {
		for _, q := range p {
			jac[i] = append(jac[i], *q.p)
		}
	}
	out := make([]*G1, len(ps))
	for i := range out {
		out[i] = new(G1)
	}
	MultiScalarMultLanes(out, ps, ks)
	for i := range ps {
		want := new(G1).MultiScalarMult(ps[i], ks[i])
		if !bytes.Equal(out[i].Marshal(), want.Marshal()) {
			t.Fatalf("%s: sum %d of %d: lanes %v, scalar %v", name, i, len(ps), out[i], want)
		}
		if !out[i].p.IsInfinity() && !out[i].p.z.Equal(&rOne) {
			t.Fatalf("%s: sum %d not affine", name, i)
		}
		for k, q := range ps[i] {
			if *q.p != jac[i][k] {
				t.Fatalf("%s: sum %d: point %d modified", name, i, k)
			}
		}
	}
}

// jacobian returns k·g1 as ScalarMult leaves it, in Jacobian coordinates
// with z ≠ 1.
func jacobian(t testing.TB, k int64) *G1 {
	t.Helper()
	p := new(G1).ScalarMult(new(G1).Base(), big.NewInt(k))
	p.p.Double(p.p)
	if p.p.z.Equal(&rOne) {
		t.Fatal("jacobian: point came out affine")
	}
	return p
}

func randScalar(t testing.TB) *big.Int {
	t.Helper()
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestG1MulLanes holds the lane sums to MultiScalarMult: random terms in
// passes of one to three, sums of one to three terms side by side, the
// identity, equal and opposite points inside a sum and across the lanes,
// Jacobian inputs, and every edge scalar in every lane.
func TestG1MulLanes(t *testing.T) {
	g := new(G1).Base()
	inf := new(G1).ScalarBaseMult(big.NewInt(0))
	negG := new(G1).Neg(g)

	for _, n := range []int{1, 2, 7, 8, 9, 17} {
		ps, ks := make([][]*G1, n), make([][]*big.Int, n)
		for i := range ps {
			terms := 1 + i%3
			ps[i] = randG1s(t, terms)
			for k := 0; k < terms; k++ {
				ks[i] = append(ks[i], randScalar(t))
			}
		}
		mixForms(ps[0])
		checkG1MulLanes(t, fmt.Sprintf("random n=%d", n), ps, ks)
	}

	edges := g1MulEdgeScalars()
	r := randG1s(t, 3)
	pointSets := map[string][]*G1{
		"identity":      {inf, g},
		"equal":         {g, g},
		"opposite":      {g, negG},
		"jacobian":      {jacobian(t, 5), jacobian(t, 5)},
		"random":        {r[0], r[1]},
		"random+ident":  {r[2], inf},
		"both identity": {inf, inf},
	}
	for name, pts := range pointSets {
		// Each lane gets one pair of edge scalars, and the pairs run
		// through every combination over the passes.
		var ps [][]*G1
		var ks [][]*big.Int
		for _, a := range edges {
			for _, b := range edges {
				ps = append(ps, pts)
				ks = append(ks, []*big.Int{a, b})
			}
		}
		checkG1MulLanes(t, name, ps, ks)
	}

	// A sum equal to the identity from nonzero terms: k·P + (r − k)·P.
	k := randScalar(t)
	checkG1MulLanes(t, "cancelling", [][]*G1{{r[0], r[0]}, {r[1], r[1]}}, [][]*big.Int{
		{k, new(big.Int).Sub(Order, k)},
		{k, new(big.Int).Neg(k)},
	})
	// Empty sums and sums of no terms beside others.
	checkG1MulLanes(t, "empty", [][]*G1{{}, {g}, {}}, [][]*big.Int{{}, {k}, {}})
}

// TestGLVHalvesFit pins the bound the lane digits are laid out for:
// Babai rounding leaves |k₁| ≤ (|a₁| + |a₂|)/2 and |k₂| ≤ (|b₁| + |b₂|)/2,
// both below 2¹²⁸, and so do the halves of edge and random scalars.
func TestGLVHalvesFit(t *testing.T) {
	g := glv()
	abs := func(v *big.Int) *big.Int { return new(big.Int).Abs(v) }
	for _, b := range [][2]*big.Int{{g.a1, g.a2}, {g.b1, g.b2}} {
		s := new(big.Int).Add(abs(b[0]), abs(b[1]))
		if s.Rsh(s, 1).BitLen() > 127 {
			t.Fatalf("half-scalar bound %d bits", s.BitLen())
		}
	}
	ks := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(Order, big.NewInt(1))}
	for i := 0; i < 200; i++ {
		ks = append(ks, randScalar(t))
	}
	for _, k := range ks {
		if k1, k2 := glvDecompose(k); k1.BitLen() > 128 || k2.BitLen() > 128 {
			t.Fatalf("glvDecompose(%v): halves of %d and %d bits", k, k1.BitLen(), k2.BitLen())
		}
	}
}

// TestRecodeRadix16 checks the signed digits against the integer they
// spell.
func TestRecodeRadix16(t *testing.T) {
	one := big.NewInt(1)
	ks := []*big.Int{big.NewInt(0), big.NewInt(8), big.NewInt(0x88), new(big.Int).Sub(new(big.Int).Lsh(one, 128), one)}
	for i := 0; i < 100; i++ {
		k, _ := rand.Int(rand.Reader, new(big.Int).Lsh(one, 128))
		ks = append(ks, k)
	}
	for _, k := range ks {
		digits := make([]int8, g1Windows*Lanes)
		n := recodeRadix16(k, digits, 0, 3)
		if n > g1Windows {
			t.Fatalf("%v: %d digits", k, n)
		}
		got := new(big.Int)
		for d := n - 1; d >= 0; d-- {
			v := digits[d*Lanes+3]
			if v < -8 || v > 7 {
				t.Fatalf("%v: digit %d = %d", k, d, v)
			}
			got.Lsh(got, 4)
			got.Add(got, big.NewInt(int64(v)))
		}
		if got.Cmp(k) != 0 {
			t.Fatalf("digits of %v spell %v", k, got)
		}
	}
}

// FuzzG1MulLanes is differential: the fuzzer picks, for eight sums of two
// terms, each term's point (the identity, the generator, its negation, or
// a multiple of it by a fuzzed small integer) and scalar (a fuzzed
// integer, or one of 0, r − 1, r and 2²⁵⁵), and the lane sums must equal
// MultiScalarMult's.
// Run as a short smoke in CI: go test -run=^$ -fuzz=FuzzG1MulLanes -fuzztime=10s
func FuzzG1MulLanes(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 1, 1})
	f.Add([]byte{2, 0x81, 3, 0x82, 4, 0x83, 5, 0x84})
	f.Add(bytes.Repeat([]byte{0xff}, 128))
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i*131 + 7)
	}
	f.Add(seed)

	one := big.NewInt(1)
	fixed := []*big.Int{big.NewInt(0), new(big.Int).Sub(Order, one), new(big.Int).Set(Order), new(big.Int).Lsh(one, 255)}
	g := new(G1).Base()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			return
		}
		at := 0
		next := func() byte {
			b := data[at%len(data)]
			at++
			return b
		}
		ps, ks := make([][]*G1, Lanes), make([][]*big.Int, Lanes)
		for i := range ps {
			for k := 0; k < 2; k++ {
				var p *G1
				switch sel := next(); sel % 4 {
				case 0:
					p = new(G1).ScalarBaseMult(big.NewInt(0))
				case 1:
					p = g
				case 2:
					p = new(G1).Neg(g)
				default:
					p = new(G1).ScalarMult(g, big.NewInt(int64(sel)))
				}
				var s *big.Int
				if sel := next(); sel&0x80 != 0 {
					s = fixed[int(sel)%len(fixed)]
				} else {
					buf := make([]byte, 1+int(sel)%40)
					for j := range buf {
						buf[j] = next()
					}
					s = new(big.Int).SetBytes(buf)
				}
				ps[i] = append(ps[i], p)
				ks[i] = append(ks[i], s)
			}
		}
		checkG1MulLanes(t, "fuzz", ps, ks)
	})
}

// BenchmarkG1MulLanes8 is one pass of eight two-term sums, the shape of
// a verifier's R̃1, R̃3, A and B for two signatures, against the same
// eight sums by MultiScalarMult.
func BenchmarkG1MulLanes8(b *testing.B) {
	ps, ks := make([][]*G1, Lanes), make([][]*big.Int, Lanes)
	for i := range ps {
		ps[i] = []*G1{new(G1).Base(), randG1s(b, 1)[0]}
		ks[i] = []*big.Int{randScalar(b), randScalar(b)}
	}
	out := make([]*G1, Lanes)
	for i := range out {
		out[i] = new(G1)
	}
	b.Run("lanes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MultiScalarMultLanes(out, ps, ks)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range out {
				out[j].MultiScalarMult(ps[j], ks[j])
			}
		}
	})
}
