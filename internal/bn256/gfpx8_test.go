package bn256

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

// The lane kernels are tested differentially, four ways at once: the
// kernel (assembly where the build and the CPU have it), its Generic twin
// (a lane loop over the scalar tower), and a big.Int reference computed
// from the integers the lanes hold. Every call uses eight different values
// per operand, so a result that lands in the wrong lane cannot pass.

var (
	x8R    = new(big.Int).Lsh(big.NewInt(1), 260)
	x8RInv = new(big.Int).ModInverse(x8R, P)
	x8TwoP = new(big.Int).Lsh(P, 1)
)

// limbs52 splits 0 ≤ v < 2²⁶⁰ into five 52-bit limbs.
func limbs52(v *big.Int) (out [5]uint64) {
	t := new(big.Int).Set(v)
	m := new(big.Int).SetUint64(mask52)
	for i := range out {
		out[i] = new(big.Int).And(t, m).Uint64()
		t.Rsh(t, 52)
	}
	return
}

// x8Big returns the integer lane i of e holds, as it is.
func x8Big(e *gfPx8, i int) *big.Int {
	v := new(big.Int)
	for l := 4; l >= 0; l-- {
		v.Lsh(v, 52)
		v.Add(v, new(big.Int).SetUint64(e[l][i]))
	}
	return v
}

func x8FromBigs(vals [8]*big.Int) (e gfPx8) {
	for i, v := range vals {
		l := limbs52(v)
		for k := range l {
			e[k][i] = l[k]
		}
	}
	return
}

// x8Edges returns operands on the boundaries of the invariant (limbs below
// 2⁵², value below 2p): the ends of [0, p) and [p, 2p), single limbs and
// runs of limbs of all ones, and the largest value with every low limb all
// ones.
func x8Edges() []*big.Int {
	one := big.NewInt(1)
	sub := func(a *big.Int, k int64) *big.Int { return new(big.Int).Sub(a, big.NewInt(k)) }
	pow := func(n uint) *big.Int { return new(big.Int).Lsh(one, n) }
	top := new(big.Int).Rsh(sub(x8TwoP, 1), 208)
	lowOnes := new(big.Int).Lsh(sub(top, 1), 208)
	lowOnes.Add(lowOnes, sub(pow(208), 1))
	return []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		sub(P, 1), new(big.Int).Set(P), sub(P, -1),
		sub(x8TwoP, 2), sub(x8TwoP, 1),
		sub(pow(52), 1), sub(pow(104), 1), sub(pow(208), 1),
		pow(52), pow(208), sub(pow(256), 1), pow(256),
		lowOnes,
		new(big.Int).Mod(x8R, P),
	}
}

// x8Op is one kernel with its twin and its reference, all in the shape of
// an F_p² operation on two operands (a unary one ignores b).
type x8Op struct {
	name    string
	kernel  func(c, a, b *gfP2x8)
	generic func(c, a, b *gfP2x8)
	// ref returns the two coordinates of the result as integers mod p,
	// from the integers the operand lanes hold.
	ref func(ax, ay, bx, by *big.Int) (x, y *big.Int)
}

func x8Mont(v *big.Int) *big.Int {
	v.Mul(v, x8RInv)
	return v.Mod(v, P)
}

func x8Mod(v *big.Int) *big.Int { return v.Mod(v, P) }

func bigMul(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) }

var x8Ops = []x8Op{
	{
		name: "gfpx8Mul", // on both coordinates: x·x and y·y
		kernel: func(c, a, b *gfP2x8) {
			gfpx8Mul(&c.x, &a.x, &b.x)
			gfpx8Mul(&c.y, &a.y, &b.y)
		},
		generic: func(c, a, b *gfP2x8) {
			gfpx8MulGeneric(&c.x, &a.x, &b.x)
			gfpx8MulGeneric(&c.y, &a.y, &b.y)
		},
		ref: func(ax, ay, bx, by *big.Int) (*big.Int, *big.Int) {
			return x8Mont(bigMul(ax, bx)), x8Mont(bigMul(ay, by))
		},
	},
	{
		name: "gfp2x8Mul", kernel: gfp2x8Mul, generic: gfp2x8MulGeneric,
		ref: func(ax, ay, bx, by *big.Int) (*big.Int, *big.Int) {
			x := bigMul(ax, by)
			y := bigMul(ay, by)
			return x8Mont(x.Add(x, bigMul(ay, bx))), x8Mont(y.Sub(y, bigMul(ax, bx)))
		},
	},
	{
		name:    "gfp2x8Square",
		kernel:  func(c, a, _ *gfP2x8) { gfp2x8Square(c, a) },
		generic: func(c, a, _ *gfP2x8) { gfp2x8SquareGeneric(c, a) },
		ref: func(ax, ay, _, _ *big.Int) (*big.Int, *big.Int) {
			x := bigMul(ax, ay)
			y := bigMul(ay, ay)
			return x8Mont(x.Lsh(x, 1)), x8Mont(y.Sub(y, bigMul(ax, ax)))
		},
	},
	{
		name: "gfp2x8Add", kernel: gfp2x8Add, generic: gfp2x8AddGeneric,
		ref: func(ax, ay, bx, by *big.Int) (*big.Int, *big.Int) {
			return x8Mod(new(big.Int).Add(ax, bx)), x8Mod(new(big.Int).Add(ay, by))
		},
	},
	{
		name: "gfp2x8Sub", kernel: gfp2x8Sub, generic: gfp2x8SubGeneric,
		ref: func(ax, ay, bx, by *big.Int) (*big.Int, *big.Int) {
			return x8Mod(new(big.Int).Sub(ax, bx)), x8Mod(new(big.Int).Sub(ay, by))
		},
	},
	{
		name:    "gfp2x8MulXi",
		kernel:  func(c, a, _ *gfP2x8) { gfp2x8MulXi(c, a) },
		generic: func(c, a, _ *gfP2x8) { gfp2x8MulXiGeneric(c, a) },
		ref: func(ax, ay, _, _ *big.Int) (*big.Int, *big.Int) {
			x := bigMul(ax, big.NewInt(3))
			y := bigMul(ay, big.NewInt(3))
			return x8Mod(x.Add(x, ay)), x8Mod(y.Sub(y, ax))
		},
	},
}

// x8InInvariant fails the test unless every lane of e has limbs below 2⁵²
// and a value below 2p.
func x8InInvariant(t testing.TB, what string, e *gfPx8) {
	t.Helper()
	for i := 0; i < 8; i++ {
		for l := range e {
			if e[l][i] > mask52 {
				t.Fatalf("%s: lane %d limb %d = %#x, not below 2^52", what, i, l, e[l][i])
			}
		}
		if v := x8Big(e, i); v.Cmp(x8TwoP) >= 0 {
			t.Fatalf("%s: lane %d = %#x, not below 2p", what, i, v)
		}
	}
}

// checkX8Ops runs every kernel on (a, b), whose lanes must be within the
// invariant, and compares kernel, twin and reference lane by lane; then
// again with the destination aliasing each operand.
func checkX8Ops(t testing.TB, a, b *gfP2x8) {
	t.Helper()
	for _, op := range x8Ops {
		var got, gen gfP2x8
		op.kernel(&got, a, b)
		op.generic(&gen, a, b)
		x8InInvariant(t, op.name+".x", &got.x)
		x8InInvariant(t, op.name+".y", &got.y)
		for i := 0; i < 8; i++ {
			wx, wy := op.ref(x8Big(&a.x, i), x8Big(&a.y, i), x8Big(&b.x, i), x8Big(&b.y, i))
			for _, c := range []struct {
				what      string
				got, want *big.Int
			}{
				{"kernel x", x8Mod(x8Big(&got.x, i)), wx},
				{"kernel y", x8Mod(x8Big(&got.y, i)), wy},
				{"twin x", x8Big(&gen.x, i), wx}, // the twins return reduced values
				{"twin y", x8Big(&gen.y, i), wy},
			} {
				if c.got.Cmp(c.want) != 0 {
					t.Fatalf("%s lane %d, %s: got %#x, want %#x\na = (%#x, %#x)\nb = (%#x, %#x)", op.name, i, c.what,
						c.got, c.want, x8Big(&a.x, i), x8Big(&a.y, i), x8Big(&b.x, i), x8Big(&b.y, i))
				}
			}
		}

		onA, onB := *a, *b
		op.kernel(&onA, &onA, b)
		op.kernel(&onB, a, &onB)
		if onA != got || onB != got {
			t.Fatalf("%s: result differs when the destination aliases an operand", op.name)
		}
		var same, onSame gfP2x8
		onSame = *a
		op.kernel(&same, a, a)
		op.kernel(&onSame, &onSame, &onSame)
		if onSame != same {
			t.Fatalf("%s: result differs when the destination aliases both operands", op.name)
		}
	}
}

// TestX8KernelsOnEdges puts every pair of boundary operands through every
// kernel, rotated so that each lane of each call holds a different pair.
func TestX8KernelsOnEdges(t *testing.T) {
	edges := x8Edges()
	n := len(edges)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var ax, ay, bx, by [8]*big.Int
			for l := 0; l < 8; l++ {
				ax[l], ay[l] = edges[(i+l)%n], edges[(i+3*l+1)%n]
				bx[l], by[l] = edges[(j+5*l)%n], edges[(j+7*l+2)%n]
			}
			a := gfP2x8{x: x8FromBigs(ax), y: x8FromBigs(ay)}
			b := gfP2x8{x: x8FromBigs(bx), y: x8FromBigs(by)}
			checkX8Ops(t, &a, &b)
		}
	}
}

func TestX8KernelsOnRandom(t *testing.T) {
	random := func() (e gfPx8) {
		var v [8]*big.Int
		for i := range v {
			v[i], _ = rand.Int(rand.Reader, x8TwoP)
		}
		return x8FromBigs(v)
	}
	for iter := 0; iter < 300; iter++ {
		a := gfP2x8{x: random(), y: random()}
		b := gfP2x8{x: random(), y: random()}
		checkX8Ops(t, &a, &b)
	}
}

// TestX8MulBeyondInvariant pins what gfpx8Mul promises for operands past
// the invariant, which the F_p² kernels rely on inside (sums of two stored
// values, 2p itself): for any limbs below 2⁵² the result is a·b·R⁻¹ mod p
// and below a·b/R + p, so below 2p whenever a·b < R·p.
func TestX8MulBeyondInvariant(t *testing.T) {
	sub := func(a *big.Int, k int64) *big.Int { return new(big.Int).Sub(a, big.NewInt(k)) }
	fourP := new(big.Int).Lsh(P, 2)
	allOnes := sub(x8R, 1)
	pairs := [8][2]*big.Int{
		{sub(fourP, 1), sub(fourP, 1)},
		{allOnes, sub(P, 1)},
		{sub(P, 1), allOnes},
		{allOnes, big.NewInt(1)},
		{x8TwoP, x8TwoP},
		{sub(fourP, 1), big.NewInt(0)},
		{new(big.Int).Lsh(P, 3), sub(P, 1)},
		{allOnes, big.NewInt(0)},
	}
	var av, bv [8]*big.Int
	for i, pr := range pairs {
		av[i], bv[i] = pr[0], pr[1]
	}
	a, b := x8FromBigs(av), x8FromBigs(bv)
	var got, gen gfPx8
	gfpx8Mul(&got, &a, &b)
	gfpx8MulGeneric(&gen, &a, &b)
	x8InInvariant(t, "gfpx8Mul", &got)
	for i := range pairs {
		ab := bigMul(av[i], bv[i])
		if ab.Cmp(bigMul(x8R, P)) >= 0 {
			t.Fatalf("lane %d: test operands exceed R·p", i)
		}
		bound := new(big.Int).Add(new(big.Int).Div(ab, x8R), P)
		if v := x8Big(&got, i); v.Cmp(bound) > 0 {
			t.Fatalf("lane %d: %#x exceeds a·b/R + p", i, v)
		}
		want := x8Mont(ab)
		if v := x8Mod(x8Big(&got, i)); v.Cmp(want) != 0 {
			t.Fatalf("lane %d: kernel %#x, want %#x", i, v, want)
		}
		if v := x8Big(&gen, i); v.Cmp(want) != 0 {
			t.Fatalf("lane %d: twin %#x, want %#x", i, v, want)
		}
	}
}

// TestX8LaneConversions pins the two ways in and out of a lane: a gfP
// survives setLane/lane, the redundant representative v + p reads back as
// v, splat fills every lane, and no lane disturbs another.
func TestX8LaneConversions(t *testing.T) {
	var e gfPx8
	var want [8]gfP
	for i, v := range gfpEdgeValues()[:8] {
		want[i] = gfPFromBig(v)
		e.setLane(i, &want[i])
	}
	x8InInvariant(t, "setLane", &e)
	for i := range want {
		if got := e.lane(i); got != want[i] {
			t.Fatalf("lane %d: got %v, want %v", i, &got, &want[i])
		}
	}

	var vals [8]*big.Int
	for i := range vals {
		vals[i] = new(big.Int).Add(x8Big(&e, i), P)
	}
	shifted := x8FromBigs(vals)
	x8InInvariant(t, "v + p", &shifted)
	for i := range want {
		if got := shifted.lane(i); got != want[i] {
			t.Fatalf("lane %d holding v + p: got %v, want %v", i, &got, &want[i])
		}
	}

	var s gfPx8
	s.splat(&want[3])
	for i := 0; i < 8; i++ {
		if got := s.lane(i); got != want[3] {
			t.Fatalf("splat lane %d: got %v, want %v", i, &got, &want[3])
		}
	}
}

// FuzzX8VsGfP feeds the kernels raw limbs. The input is read as four
// operands of eight lanes of five limbs, eight bytes a limb (short inputs
// repeat); limbs are cut to 52 bits and lanes that exceed the invariant are
// reduced mod 2p, so the fuzzer controls the limbs of in-range values
// directly. gfpx8Mul also gets the first operand uncut, against a second
// one below p, which is the widest product its contract admits.
// Run as a short smoke in CI: go test -run=^$ -fuzz=FuzzX8VsGfP -fuzztime=10s
func FuzzX8VsGfP(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{0xff})
	f.Add(P.Bytes())
	f.Add(append(x8TwoP.Bytes(), 0xfe))
	seed := make([]byte, 4*8*5*8)
	for i := range seed {
		seed[i] = byte(i*167 + i/40)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4*8*5*8 {
			return
		}
		at := 0
		next := func() (raw, cut gfPx8) {
			for i := 0; i < 8; i++ {
				for l := 0; l < 5; l++ {
					var limb uint64
					for k := 0; k < 8; k++ {
						limb = limb<<8 | uint64(data[at%len(data)])
						at++
					}
					raw[l][i] = limb & mask52
				}
			}
			var vals [8]*big.Int
			for i := range vals {
				vals[i] = x8Big(&raw, i)
				vals[i].Mod(vals[i], x8TwoP)
			}
			return raw, x8FromBigs(vals)
		}
		rawA, ax := next()
		_, ay := next()
		_, bx := next()
		_, by := next()
		checkX8Ops(t, &gfP2x8{x: ax, y: ay}, &gfP2x8{x: bx, y: by})

		var vals [8]*big.Int
		for i := range vals {
			vals[i] = x8Mod(x8Big(&bx, i))
		}
		small := x8FromBigs(vals)
		var got, gen gfPx8
		gfpx8Mul(&got, &rawA, &small)
		gfpx8MulGeneric(&gen, &rawA, &small)
		x8InInvariant(t, "gfpx8Mul on raw limbs", &got)
		for i := 0; i < 8; i++ {
			want := x8Mont(bigMul(x8Big(&rawA, i), vals[i]))
			if v := x8Mod(x8Big(&got, i)); v.Cmp(want) != 0 {
				t.Fatalf("gfpx8Mul lane %d: kernel %#x, want %#x", i, v, want)
			}
			if v := x8Big(&gen, i); v.Cmp(want) != 0 {
				t.Fatalf("gfpx8Mul lane %d: twin %#x, want %#x", i, v, want)
			}
		}
	})
}

func BenchmarkX8Kernels(b *testing.B) {
	var x, y, z gfP2x8
	x.splat(xiToPMinus1Over6)
	y.splat(xiToPMinus1Over3)
	for _, op := range x8Ops {
		b.Run(op.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op.kernel(&z, &x, &y)
			}
		})
	}
	b.Run(fmt.Sprintf("scalar gfpMul x%d", Lanes), func(b *testing.B) {
		u, v := xiToPMinus1Over6.x, xiToPMinus1Over3.y
		for i := 0; i < b.N; i++ {
			for l := 0; l < Lanes; l++ {
				gfpMul(&u, &u, &v)
			}
		}
	})
}
