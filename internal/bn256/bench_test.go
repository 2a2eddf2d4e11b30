package bn256

import (
	"crypto/rand"
	"fmt"
	"testing"
)

func BenchmarkPairing(b *testing.B) {
	a, _ := RandomScalar(rand.Reader)
	p := newCurvePoint().Mul(curveGen, a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atePairing(twistGen, p)
	}
}

func BenchmarkMillerLoop(b *testing.B) {
	a, _ := RandomScalar(rand.Reader)
	p := newCurvePoint().Mul(curveGen, a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miller(twistGen, p)
	}
}

func BenchmarkFinalExponentiation(b *testing.B) {
	a, _ := RandomScalar(rand.Reader)
	p := newCurvePoint().Mul(curveGen, a)
	f := miller(twistGen, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finalExponentiation(f)
	}
}

func BenchmarkPreparedMiller(b *testing.B) {
	a, _ := RandomScalar(rand.Reader)
	p := &G1{p: newCurvePoint().Mul(curveGen, a)}
	pq := PrepareG2(new(G2).Base())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pq.Miller(p)
	}
}

// BenchmarkPairLanes8 is one pass of the lane-parallel tower: eight points
// a factor through the prepared Miller loop and the final exponentiation.
// With one factor (the Eq.3 scan's pass), divided by eight, it is the
// per-token cost to hold against BenchmarkPreparedMiller plus
// BenchmarkFinalExponentiation; with two (the verifier's Eq.2 product) the
// per-signature cost to hold against BenchmarkMillerCombined2 plus
// BenchmarkFinalExponentiation. Packing the points, which a verifier pays
// per group and the scan once per epoch, is timed by itself.
func BenchmarkPairLanes8(b *testing.B) {
	var preps []*PreparedG2
	var lanes []*G1Lanes
	for k := 1; k <= 2; k++ {
		_, q, _ := RandomG2(rand.Reader)
		preps = append(preps, PrepareG2(q))
		lanes = append(lanes, packG1Lanes(randG1s(b, Lanes)))
		b.Run(fmt.Sprintf("factors=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				PairProductLanes(preps, lanes, 0, nil)
			}
		})
	}
	pts := randG1s(b, Lanes)
	b.Run("pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			packG1Lanes(pts)
		}
	})
}

func BenchmarkPrepareG2(b *testing.B) {
	_, q, _ := RandomG2(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PrepareG2(q)
	}
}

// BenchmarkMillerCombined2 is the verifier's pairing side: two prepared
// Miller loops sharing one squaring chain (no final exponentiation).
func BenchmarkMillerCombined2(b *testing.B) {
	_, p0, _ := RandomG1(rand.Reader)
	_, p1, _ := RandomG1(rand.Reader)
	_, q, _ := RandomG2(rand.Reader)
	preps := []*PreparedG2{PrepareG2(new(G2).Base()), PrepareG2(q)}
	points := []*G1{p0, p1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MillerCombined(preps, points)
	}
}

func BenchmarkG1VariableMul(b *testing.B) {
	a, _ := RandomScalar(rand.Reader)
	k, _ := RandomScalar(rand.Reader)
	p := newCurvePoint().Mul(curveGen, a)
	out := newCurvePoint()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Mul(p, k)
	}
}

func BenchmarkG1ScalarBaseMult(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	e := new(G1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScalarBaseMult(k)
	}
}

func BenchmarkG2ScalarBaseMult(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	e := new(G2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScalarBaseMult(k)
	}
}

func BenchmarkGTScalarMult(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	e := new(GT).Base()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScalarMult(e, k)
	}
}

func BenchmarkHashToG1(b *testing.B) {
	msg := []byte("benchmark message")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashToG1(msg)
	}
}

func BenchmarkHashToG2(b *testing.B) {
	msg := []byte("benchmark message")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashToG2(msg)
	}
}

// Field-level benchmarks: every row above is a few thousand of these. Each
// iteration feeds the result back in, so the figure is the latency of one
// dependent operation, which is what the tower arithmetic sees.
func benchFieldOperands() (x, y gfP) {
	a, _ := RandomScalar(rand.Reader)
	b, _ := RandomScalar(rand.Reader)
	return gfPFromBig(a), gfPFromBig(b)
}

func BenchmarkGfpMul(b *testing.B) {
	x, y := benchFieldOperands()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gfpMul(&x, &x, &y)
	}
}

func BenchmarkGfpAdd(b *testing.B) {
	x, y := benchFieldOperands()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gfpAdd(&x, &x, &y)
	}
}

func BenchmarkGfpSub(b *testing.B) {
	x, y := benchFieldOperands()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gfpSub(&x, &x, &y)
	}
}
