package bn256

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
	"unsafe"
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

// x8Op is one kernel with its twin and its reference. Its operands and
// results are F_p² values (one gfP2x8) or F_p⁶ values (three consecutive
// ones, x, y, z, which is a gfP6x8's layout): ins and outs give the size
// of each.
type x8Op struct {
	name      string
	ins, outs []int
	// kernel and generic get a pointer to the first gfP2x8 of each result
	// and of each operand.
	kernel, generic func(c, a []*gfP2x8)
	// ref returns the results from the operands, one lane's values as
	// elements of F_p² (the lanes' Montgomery form taken off).
	ref func(a [][]*refGfP2) [][]*refGfP2
	// shares reports whether result c may be written over operand a; nil
	// means any.
	shares func(c, a int) bool
}

func x8Mont(v *big.Int) *big.Int {
	v.Mul(v, x8RInv)
	return v.Mod(v, P)
}

func x8Mod(v *big.Int) *big.Int { return v.Mod(v, P) }

func bigMul(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) }

func p6(e *gfP2x8) *gfP6x8 { return (*gfP6x8)(unsafe.Pointer(e)) }

func ref6(s []*refGfP2) *refGfP6 { return &refGfP6{x: s[0], y: s[1], z: s[2]} }

func refSlots6(e *refGfP6) []*refGfP2 { return []*refGfP2{e.x, e.y, e.z} }

// cycloRef is gfp4x8CycloSquare's definition: c0 = 3(b² + ξa²) − 2u,
// c1 = 3·2ab + 2v, with xi 3·2ξab + 2v.
func cycloRef(a [][]*refGfP2, xi bool) [][]*refGfP2 {
	x, y, u, v := a[0][0], a[1][0], a[2][0], a[3][0]
	t := newRefGFp2().Square(x)
	t.MulXi(t)
	t.Add(t, newRefGFp2().Square(y))
	d := newRefGFp2().Mul(x, y)
	d.Double(d)
	if xi {
		d.MulXi(d)
	}
	c0 := newRefGFp2().Sub(t, u)
	c0.Double(c0)
	c0.Add(c0, t)
	c1 := newRefGFp2().Add(d, v)
	c1.Double(c1)
	c1.Add(c1, d)
	return [][]*refGfP2{{c0}, {c1}}
}

func one(r *refGfP2) [][]*refGfP2 { return [][]*refGfP2{{r}} }

func cycloOp(xi bool) x8Op {
	name := "gfp4x8CycloSquare"
	if xi {
		name += "/xi"
	}
	return x8Op{
		name: name, ins: []int{1, 1, 1, 1}, outs: []int{1, 1},
		kernel:  func(c, a []*gfP2x8) { gfp4x8CycloSquare(c[0], c[1], a[0], a[1], a[2], a[3], xi) },
		generic: func(c, a []*gfP2x8) { gfp4x8CycloSquareGeneric(c[0], c[1], a[0], a[1], a[2], a[3], xi) },
		ref:     func(a [][]*refGfP2) [][]*refGfP2 { return cycloRef(a, xi) },
	}
}

// asPoint returns the g1x8Proj whose X and Y are e[0] and whose Z is e[1].x:
// a point is two F_p² slots of an op, the last coordinate unused. The
// kernel wrappers clear it in their result, which a point kernel does not
// write.
func asPoint(e []*gfP2x8, j int) *g1x8Proj { return (*g1x8Proj)(unsafe.Pointer(e[j])) }

func g1x8Pad(c []*gfP2x8) {
	(*[2]gfP2x8)(unsafe.Pointer(c[0]))[1].y = gfPx8{}
}

// rcbRef evaluates Algorithm 9 (b nil) or Algorithm 7 on one lane's
// coordinates, a point being two F_p² values (X, Y) and (Z, unused).
func rcbRef(a, b []*refGfP2) [][]*refGfP2 {
	f := func(v *big.Int) *big.Int { return v.Mod(v, P) }
	mul := func(x, y *big.Int) *big.Int { return f(new(big.Int).Mul(x, y)) }
	add := func(x, y *big.Int) *big.Int { return f(new(big.Int).Add(x, y)) }
	sub := func(x, y *big.Int) *big.Int { return f(new(big.Int).Sub(x, y)) }
	b3 := big.NewInt(9)
	x1, y1, z1 := a[0].x, a[0].y, a[1].x
	var x3, y3, z3 *big.Int
	if b == nil {
		t0 := mul(y1, y1)
		y8 := mul(big.NewInt(8), t0)
		t2 := mul(b3, mul(z1, z1))
		u := sub(t0, mul(big.NewInt(3), t2))
		x3 = mul(big.NewInt(2), mul(u, mul(x1, y1)))
		y3 = add(mul(y8, t2), mul(u, add(t0, t2)))
		z3 = mul(y8, mul(y1, z1))
	} else {
		x2, y2, z2 := b[0].x, b[0].y, b[1].x
		xx, yy, zz := mul(x1, x2), mul(y1, y2), mul(z1, z2)
		xy := sub(mul(add(x1, y1), add(x2, y2)), add(xx, yy))
		yz := sub(mul(add(y1, z1), add(y2, z2)), add(yy, zz))
		xz := sub(mul(add(x1, z1), add(x2, z2)), add(xx, zz))
		zz, xz, xx = mul(b3, zz), mul(b3, xz), mul(big.NewInt(3), xx)
		x3 = sub(mul(xy, sub(yy, zz)), mul(yz, xz))
		y3 = add(mul(sub(yy, zz), add(yy, zz)), mul(xz, xx))
		z3 = add(mul(add(yy, zz), yz), mul(xx, xy))
	}
	return [][]*refGfP2{{{x: x3, y: y3}, {x: z3, y: new(big.Int)}}}
}

var x8Ops = []x8Op{
	{
		name: "gfpx8Mul", ins: []int{1, 1}, outs: []int{1}, // on both coordinates: x·x and y·y
		kernel: func(c, a []*gfP2x8) {
			gfpx8Mul(&c[0].x, &a[0].x, &a[1].x)
			gfpx8Mul(&c[0].y, &a[0].y, &a[1].y)
		},
		generic: func(c, a []*gfP2x8) {
			gfpx8MulGeneric(&c[0].x, &a[0].x, &a[1].x)
			gfpx8MulGeneric(&c[0].y, &a[0].y, &a[1].y)
		},
		ref: func(a [][]*refGfP2) [][]*refGfP2 {
			x, y := a[0][0], a[1][0]
			return one(&refGfP2{x: x8Mod(bigMul(x.x, y.x)), y: x8Mod(bigMul(x.y, y.y))})
		},
	},
	{
		name: "gfpx8Sub", ins: []int{1, 1}, outs: []int{1}, // x − x and y − y
		kernel: func(c, a []*gfP2x8) {
			gfpx8Sub(&c[0].x, &a[0].x, &a[1].x)
			gfpx8Sub(&c[0].y, &a[0].y, &a[1].y)
		},
		generic: func(c, a []*gfP2x8) {
			gfpx8SubGeneric(&c[0].x, &a[0].x, &a[1].x)
			gfpx8SubGeneric(&c[0].y, &a[0].y, &a[1].y)
		},
		ref: func(a [][]*refGfP2) [][]*refGfP2 {
			x, y := a[0][0], a[1][0]
			return one(&refGfP2{x: x8Mod(new(big.Int).Sub(x.x, y.x)), y: x8Mod(new(big.Int).Sub(x.y, y.y))})
		},
	},
	{
		name: "gfp2x8Mul", ins: []int{1, 1}, outs: []int{1},
		kernel:  func(c, a []*gfP2x8) { gfp2x8Mul(c[0], a[0], a[1]) },
		generic: func(c, a []*gfP2x8) { gfp2x8MulGeneric(c[0], a[0], a[1]) },
		ref:     func(a [][]*refGfP2) [][]*refGfP2 { return one(newRefGFp2().Mul(a[0][0], a[1][0])) },
	},
	{
		name: "gfp2x8Square", ins: []int{1}, outs: []int{1},
		kernel:  func(c, a []*gfP2x8) { gfp2x8Square(c[0], a[0]) },
		generic: func(c, a []*gfP2x8) { gfp2x8SquareGeneric(c[0], a[0]) },
		ref:     func(a [][]*refGfP2) [][]*refGfP2 { return one(newRefGFp2().Square(a[0][0])) },
	},
	{
		name: "gfp2x8Add", ins: []int{1, 1}, outs: []int{1},
		kernel:  func(c, a []*gfP2x8) { gfp2x8Add(c[0], a[0], a[1]) },
		generic: func(c, a []*gfP2x8) { gfp2x8AddGeneric(c[0], a[0], a[1]) },
		ref:     func(a [][]*refGfP2) [][]*refGfP2 { return one(newRefGFp2().Add(a[0][0], a[1][0])) },
	},
	{
		name: "gfp2x8Sub", ins: []int{1, 1}, outs: []int{1},
		kernel:  func(c, a []*gfP2x8) { gfp2x8Sub(c[0], a[0], a[1]) },
		generic: func(c, a []*gfP2x8) { gfp2x8SubGeneric(c[0], a[0], a[1]) },
		ref:     func(a [][]*refGfP2) [][]*refGfP2 { return one(newRefGFp2().Sub(a[0][0], a[1][0])) },
	},
	{
		name: "gfp2x8MulXi", ins: []int{1}, outs: []int{1},
		kernel:  func(c, a []*gfP2x8) { gfp2x8MulXi(c[0], a[0]) },
		generic: func(c, a []*gfP2x8) { gfp2x8MulXiGeneric(c[0], a[0]) },
		ref:     func(a [][]*refGfP2) [][]*refGfP2 { return one(newRefGFp2().MulXi(a[0][0])) },
	},
	{
		name: "g1x8Double", ins: []int{2}, outs: []int{2},
		kernel:  func(c, a []*gfP2x8) { g1x8Double(asPoint(c, 0), asPoint(a, 0)); g1x8Pad(c) },
		generic: func(c, a []*gfP2x8) { g1x8DoubleGeneric(asPoint(c, 0), asPoint(a, 0)); g1x8Pad(c) },
		ref:     func(a [][]*refGfP2) [][]*refGfP2 { return rcbRef(a[0], nil) },
	},
	{
		name: "g1x8Add", ins: []int{2, 2}, outs: []int{2},
		kernel:  func(c, a []*gfP2x8) { g1x8Add(asPoint(c, 0), asPoint(a, 0), asPoint(a, 1)); g1x8Pad(c) },
		generic: func(c, a []*gfP2x8) { g1x8AddGeneric(asPoint(c, 0), asPoint(a, 0), asPoint(a, 1)); g1x8Pad(c) },
		ref:     func(a [][]*refGfP2) [][]*refGfP2 { return rcbRef(a[0], a[1]) },
	},
	cycloOp(false),
	cycloOp(true),
	{
		name: "gfp6x8Mul", ins: []int{3, 3}, outs: []int{3},
		kernel:  func(c, a []*gfP2x8) { gfp6x8Mul(p6(c[0]), p6(a[0]), p6(a[1])) },
		generic: func(c, a []*gfP2x8) { gfp6x8MulGeneric(p6(c[0]), p6(a[0]), p6(a[1])) },
		ref: func(a [][]*refGfP2) [][]*refGfP2 {
			return [][]*refGfP2{refSlots6(newRefGFp6().Mul(ref6(a[0]), ref6(a[1])))}
		},
	},
	{
		name: "gfp6x8MulSparse2", ins: []int{3, 1, 1}, outs: []int{3},
		kernel:  func(c, a []*gfP2x8) { gfp6x8MulSparse2(p6(c[0]), p6(a[0]), a[1], a[2]) },
		generic: func(c, a []*gfP2x8) { gfp6x8MulSparse2Generic(p6(c[0]), p6(a[0]), a[1], a[2]) },
		ref: func(a [][]*refGfP2) [][]*refGfP2 {
			return [][]*refGfP2{refSlots6(newRefGFp6().MulSparse2(ref6(a[0]), a[1][0], a[2][0]))}
		},
		shares: func(c, a int) bool { return a != 0 },
	},
	{
		name: "gfp6x8SubSub", ins: []int{3, 3, 3}, outs: []int{3},
		kernel:  func(c, a []*gfP2x8) { gfp6x8SubSub(p6(c[0]), p6(a[0]), p6(a[1]), p6(a[2])) },
		generic: func(c, a []*gfP2x8) { gfp6x8SubSubGeneric(p6(c[0]), p6(a[0]), p6(a[1]), p6(a[2])) },
		ref: func(a [][]*refGfP2) [][]*refGfP2 {
			d := newRefGFp6().Sub(ref6(a[0]), ref6(a[1]))
			return [][]*refGfP2{refSlots6(d.Sub(d, ref6(a[2])))}
		},
	},
	{
		name: "gfp6x8MulTauAdd", ins: []int{3, 3}, outs: []int{3},
		kernel:  func(c, a []*gfP2x8) { gfp6x8MulTauAdd(p6(c[0]), p6(a[0]), p6(a[1])) },
		generic: func(c, a []*gfP2x8) { gfp6x8MulTauAddGeneric(p6(c[0]), p6(a[0]), p6(a[1])) },
		ref: func(a [][]*refGfP2) [][]*refGfP2 {
			d := newRefGFp6().MulTau(ref6(a[0]))
			return [][]*refGfP2{refSlots6(d.Add(d, ref6(a[1])))}
		},
		shares: func(c, a int) bool { return a == 1 },
	},
}

// x8Slots is the most F_p² values any kernel of x8Ops reads.
const x8Slots = 9

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

// x8Layout places an op's operands, or its results, one after another
// and returns where each starts.
func x8Layout(sizes []int) (starts []int, n int) {
	for _, k := range sizes {
		starts = append(starts, n)
		n += k
	}
	return starts, n
}

func x8Ptrs(st []gfP2x8, starts []int) []*gfP2x8 {
	p := make([]*gfP2x8, len(starts))
	for i, k := range starts {
		p[i] = &st[k]
	}
	return p
}

// runX8Op runs f (an op's kernel or twin) on operands vals (at least as
// many as the op reads). The operands listed in same all point at the
// first of them; with c ≥ 0 result c is written over operand a. It returns
// the results.
func runX8Op(op *x8Op, f func(c, a []*gfP2x8), vals []gfP2x8, same []int, c, a int) []gfP2x8 {
	inStarts, nIn := x8Layout(op.ins)
	outStarts, nOut := x8Layout(op.outs)
	in := append([]gfP2x8(nil), vals[:nIn]...)
	out := make([]gfP2x8, nOut)
	ap := x8Ptrs(in, inStarts)
	for _, j := range same {
		ap[j] = ap[same[0]]
	}
	cp := x8Ptrs(out, outStarts)
	if c >= 0 {
		cp[c] = ap[a]
	}
	f(cp, ap)
	res := make([]gfP2x8, 0, nOut)
	for i, k := range op.outs {
		res = append(res, unsafe.Slice(cp[i], k)...)
	}
	return res
}

// checkX8Ops runs every kernel on vals, whose lanes must be within the
// invariant, and compares kernel, twin and reference lane by lane; then
// again with each result written over each operand it may share, and with
// every operand of one size at one value.
func checkX8Ops(t testing.TB, vals []gfP2x8) {
	t.Helper()
	if len(vals) < x8Slots {
		t.Fatalf("checkX8Ops: %d values, want %d", len(vals), x8Slots)
	}
	for i := range x8Ops {
		checkX8Op(t, &x8Ops[i], vals)
	}
}

func x8Ref(e *gfP2x8, i int) *refGfP2 {
	return &refGfP2{x: x8Mont(x8Big(&e.x, i)), y: x8Mont(x8Big(&e.y, i))}
}

func checkX8Op(t testing.TB, op *x8Op, vals []gfP2x8) {
	t.Helper()
	got := runX8Op(op, op.kernel, vals, nil, -1, 0)
	gen := runX8Op(op, op.generic, vals, nil, -1, 0)
	for k := range got {
		x8InInvariant(t, op.name+".x", &got[k].x)
		x8InInvariant(t, op.name+".y", &got[k].y)
	}
	inStarts, _ := x8Layout(op.ins)
	for i := 0; i < 8; i++ {
		a := make([][]*refGfP2, len(op.ins))
		for j, k := range op.ins {
			for s := 0; s < k; s++ {
				a[j] = append(a[j], x8Ref(&vals[inStarts[j]+s], i))
			}
		}
		var want []*refGfP2
		for _, r := range op.ref(a) {
			want = append(want, r...)
		}
		for k, w := range want {
			g, n := x8Ref(&got[k], i), x8Ref(&gen[k], i)
			if g.x.Cmp(w.x) != 0 || g.y.Cmp(w.y) != 0 {
				t.Fatalf("%s lane %d, result slot %d: kernel %v, want %v", op.name, i, k, g, w)
			}
			if n.x.Cmp(w.x) != 0 || n.y.Cmp(w.y) != 0 {
				t.Fatalf("%s lane %d, result slot %d: twin %v, want %v", op.name, i, k, n, w)
			}
			// The twins return reduced values.
			if x8Big(&gen[k].x, i).Cmp(P) >= 0 || x8Big(&gen[k].y, i).Cmp(P) >= 0 {
				t.Fatalf("%s lane %d, result slot %d: twin not reduced", op.name, i, k)
			}
		}
	}

	for c, kc := range op.outs {
		for a, ka := range op.ins {
			if kc != ka || (op.shares != nil && !op.shares(c, a)) {
				continue
			}
			onA := runX8Op(op, op.kernel, vals, nil, c, a)
			for k := range onA {
				if onA[k] != got[k] {
					t.Fatalf("%s: result differs when result %d is written over operand %d", op.name, c, a)
				}
			}
		}
	}

	// Every operand of one size holding one value: in separate memory,
	// then all at one address, then with each result of that size that
	// may share them all written over it.
	for _, k := range []int{1, 3} {
		var same []int
		for j, kj := range op.ins {
			if kj == k {
				same = append(same, j)
			}
		}
		if len(same) < 2 {
			continue
		}
		dup := append([]gfP2x8(nil), vals...)
		for _, j := range same[1:] {
			copy(dup[inStarts[j]:inStarts[j]+k], dup[inStarts[same[0]]:])
		}
		apart := runX8Op(op, op.kernel, dup, nil, -1, 0)
		at := func(what string, res []gfP2x8) {
			t.Helper()
			for s := range res {
				if res[s] != apart[s] {
					t.Fatalf("%s: result differs when operands %v are one value %s", op.name, same, what)
				}
			}
		}
		at("at one address", runX8Op(op, op.kernel, dup, same, -1, 0))
	results:
		for c, kc := range op.outs {
			if kc != k {
				continue
			}
			for _, j := range same {
				if op.shares != nil && !op.shares(c, j) {
					continue results
				}
			}
			at(fmt.Sprintf("with result %d written over it", c), runX8Op(op, op.kernel, dup, same, c, same[0]))
		}
	}
}

// x8Rotate fills x8Slots values from vals, value k of lane l being
// vals[(start + m·k + l·(2k + 1)) % len(vals)], so that each lane and each
// slot of a call holds a different combination.
func x8Rotate(vals []*big.Int, start, m int) []gfP2x8 {
	out := make([]gfP2x8, x8Slots)
	n := len(vals)
	for k := range out {
		var x, y [8]*big.Int
		for l := 0; l < 8; l++ {
			x[l] = vals[(start+m*k+l*(2*k+1))%n]
			y[l] = vals[(start+m*k+3*l*(k+1)+1)%n]
		}
		out[k] = gfP2x8{x: x8FromBigs(x), y: x8FromBigs(y)}
	}
	return out
}

// TestX8KernelsOnEdges puts boundary operands through every kernel, rotated
// so that each lane and each operand of a call holds a different value.
func TestX8KernelsOnEdges(t *testing.T) {
	edges := x8Edges()
	n := len(edges)
	for i := 0; i < n; i++ {
		for m := 1; m < n; m++ {
			checkX8Ops(t, x8Rotate(edges, i, m))
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
		vals := make([]gfP2x8, x8Slots)
		for k := range vals {
			vals[k] = gfP2x8{x: random(), y: random()}
		}
		checkX8Ops(t, vals)
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

// TestReduceWideEstimate checks the quotient estimate behind the kernels'
// reduceWide on the values where it is tightest: for v below 2²⁶², with
// q = ⌊v/p⌋ and the estimate ⌊⌊v/2²³⁰⌋·wideQ/2⁵⁷⌋, q − estimate must be 0
// or 1, so that v − estimate·p is in [0, 2p). The values are the
// neighbours of every multiple of p up to 2²⁶² and of every multiple of
// 2²³⁰ near them, and the top of the range.
func TestReduceWideEstimate(t *testing.T) {
	limit := new(big.Int).Lsh(big.NewInt(1), 262)
	d := new(big.Int).Rsh(P, 230)
	d.Add(d, big.NewInt(1))
	wideQ := new(big.Int).Div(new(big.Int).Lsh(big.NewInt(1), 57), d)
	if wideQ.BitLen() > 32 {
		t.Fatalf("wideQ = %#x does not fit the 32 bits VPMULUDQ reads", wideQ)
	}
	check := func(v *big.Int) {
		if v.Sign() < 0 || v.Cmp(limit) >= 0 {
			return
		}
		q := new(big.Int).Div(v, P)
		est := new(big.Int).Rsh(v, 230)
		est.Mul(est, wideQ)
		est.Rsh(est, 57)
		if diff := new(big.Int).Sub(q, est); diff.Sign() < 0 || diff.Cmp(big.NewInt(1)) > 0 {
			t.Fatalf("v = %#x: q = %v, estimate %v", v, q, est)
		}
	}
	one := big.NewInt(1)
	for k := new(big.Int); k.Cmp(limit) < 0; k.Add(k, P) {
		for _, base := range []*big.Int{new(big.Int).Set(k), new(big.Int).Lsh(new(big.Int).Rsh(k, 230), 230)} {
			for _, dv := range []int64{-2, -1, 0, 1, 2} {
				check(new(big.Int).Add(base, big.NewInt(dv)))
			}
			check(new(big.Int).Add(base, new(big.Int).Lsh(one, 230)))
		}
	}
	check(new(big.Int).Sub(limit, one))
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
		vals := []gfP2x8{{x: ax, y: ay}}
		for len(vals) < x8Slots {
			_, x := next()
			_, y := next()
			vals = append(vals, gfP2x8{x: x, y: y})
		}
		checkX8Ops(t, vals)
		bx := vals[1].x

		var lows [8]*big.Int
		for i := range lows {
			lows[i] = x8Mod(x8Big(&bx, i))
		}
		small := x8FromBigs(lows)
		var got, gen gfPx8
		gfpx8Mul(&got, &rawA, &small)
		gfpx8MulGeneric(&gen, &rawA, &small)
		x8InInvariant(t, "gfpx8Mul on raw limbs", &got)
		for i := 0; i < 8; i++ {
			want := x8Mont(bigMul(x8Big(&rawA, i), lows[i]))
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
	vals := make([]gfP2x8, x8Slots)
	for k := range vals {
		vals[k].splat(xiToPMinus1Over6)
		vals[k].x.splat(&xiToPMinus1Over3.y)
	}
	for i := range x8Ops {
		op := &x8Ops[i]
		inStarts, _ := x8Layout(op.ins)
		outStarts, nOut := x8Layout(op.outs)
		out := make([]gfP2x8, nOut)
		c, a := x8Ptrs(out, outStarts), x8Ptrs(vals, inStarts)
		b.Run(op.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op.kernel(c, a)
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
