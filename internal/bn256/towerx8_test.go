package bn256

import (
	"crypto/rand"
	"testing"
	"unsafe"
)

// The lane-parallel tower is tested against the scalar tower one operation
// at a time: eight independent random operands go in, one per lane, and
// every lane of the result must reduce to what the scalar operation returns
// for that lane's operands. lanes_test.go then holds the composition to
// PreparedG2.Pair byte for byte.

type x8Operands struct {
	a, b   [8]*gfP12
	ax, bx gfP12x8
	c      [3]gfP2x8 // line coefficients
	cs     [8][3]*gfP2
}

func (e *gfP6x8) setLane(i int, a *gfP6) {
	e.x.setLane(i, &a.x)
	e.y.setLane(i, &a.y)
	e.z.setLane(i, &a.z)
}

func (e *gfP12x8) setLane(i int, a *gfP12) {
	e.x.setLane(i, &a.x)
	e.y.setLane(i, &a.y)
}

// randX8Operands draws operands; with cyclotomic set, a is in the
// cyclotomic subgroup in every lane (a pairing value).
func randX8Operands(t *testing.T, cyclotomic bool) *x8Operands {
	t.Helper()
	o := new(x8Operands)
	for i := 0; i < 8; i++ {
		o.a[i], o.b[i] = randGFp12(t), randGFp12(t)
		if cyclotomic {
			k, err := RandomScalar(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			o.a[i] = newGFp12().cyclotomicExp(gtGen, k)
		}
		o.ax.setLane(i, o.a[i])
		o.bx.setLane(i, o.b[i])
		for j := range o.c {
			o.cs[i][j] = randGFp2(t)
			o.c[j].setLane(i, o.cs[i][j])
		}
	}
	return o
}

func x8InInvariant12(t *testing.T, what string, e *gfP12x8) {
	t.Helper()
	for _, h := range []*gfP6x8{&e.x, &e.y} {
		for _, c := range []*gfP2x8{&h.x, &h.y, &h.z} {
			x8InInvariant(t, what, &c.x)
			x8InInvariant(t, what, &c.y)
		}
	}
}

// dirtyLaneWork returns a laneWork with every limb set to a value no
// kernel accepts, as a pooled one may be left by a previous pass: an
// operation that read a temporary before writing it would not get away
// with it.
func dirtyLaneWork() *laneWork {
	w := new(laneWork)
	b := unsafe.Slice((*byte)(unsafe.Pointer(w)), unsafe.Sizeof(*w))
	for i := range b {
		b[i] = 0xff
	}
	return w
}

func TestX8TowerMatchesScalarTower(t *testing.T) {
	w := dirtyLaneWork()
	ops := []struct {
		name       string
		cyclotomic bool
		lanes      func(e *gfP12x8, o *x8Operands)
		scalar     func(o *x8Operands, i int) *gfP12
	}{
		{"Mul", false,
			func(e *gfP12x8, o *x8Operands) { e.Mul(&o.ax, &o.bx, w) },
			func(o *x8Operands, i int) *gfP12 { return newGFp12().Mul(o.a[i], o.b[i]) }},
		{"Mul in place", false,
			func(e *gfP12x8, o *x8Operands) { *e = o.ax; e.Mul(e, &o.bx, w) },
			func(o *x8Operands, i int) *gfP12 { return newGFp12().Mul(o.a[i], o.b[i]) }},
		{"Mul into b", false,
			func(e *gfP12x8, o *x8Operands) { *e = o.bx; e.Mul(&o.ax, e, w) },
			func(o *x8Operands, i int) *gfP12 { return newGFp12().Mul(o.a[i], o.b[i]) }},
		{"Mul by itself", false,
			func(e *gfP12x8, o *x8Operands) { *e = o.ax; e.Mul(e, e, w) },
			func(o *x8Operands, i int) *gfP12 { return newGFp12().Mul(o.a[i], o.a[i]) }},
		{"Square out of place", false,
			func(e *gfP12x8, o *x8Operands) { e.Square(&o.ax, w) },
			func(o *x8Operands, i int) *gfP12 { return newGFp12().Square(o.a[i]) }},
		{"Square", false,
			func(e *gfP12x8, o *x8Operands) { *e = o.ax; e.Square(e, w) },
			func(o *x8Operands, i int) *gfP12 { return newGFp12().Square(o.a[i]) }},
		{"MulLine", false,
			func(e *gfP12x8, o *x8Operands) { *e = o.ax; e.MulLine(e, &o.c[0], &o.c[1], &o.c[2], w) },
			func(o *x8Operands, i int) *gfP12 {
				return newGFp12().MulLine(o.a[i], o.cs[i][0], o.cs[i][1], o.cs[i][2])
			}},
		{"MulLine out of place", false,
			func(e *gfP12x8, o *x8Operands) { e.MulLine(&o.ax, &o.c[0], &o.c[1], &o.c[2], w) },
			func(o *x8Operands, i int) *gfP12 {
				return newGFp12().MulLine(o.a[i], o.cs[i][0], o.cs[i][1], o.cs[i][2])
			}},
		{"Conjugate", false,
			func(e *gfP12x8, o *x8Operands) { e.Conjugate(&o.ax) },
			func(o *x8Operands, i int) *gfP12 { return newGFp12().Conjugate(o.a[i]) }},
		{"Invert", false,
			func(e *gfP12x8, o *x8Operands) { *e = o.ax; e.Invert(e, w) },
			func(o *x8Operands, i int) *gfP12 { return newGFp12().Invert(o.a[i]) }},
		{"Frobenius p", false,
			func(e *gfP12x8, o *x8Operands) { e.Frobenius(&o.ax, 1) },
			func(o *x8Operands, i int) *gfP12 { return newGFp12().Frobenius(o.a[i]) }},
		{"Frobenius p²", false,
			func(e *gfP12x8, o *x8Operands) { *e = o.ax; e.Frobenius(e, 2) },
			func(o *x8Operands, i int) *gfP12 { return newGFp12().FrobeniusP2(o.a[i]) }},
		{"Frobenius p³", false,
			func(e *gfP12x8, o *x8Operands) { e.Frobenius(&o.ax, 3) },
			func(o *x8Operands, i int) *gfP12 {
				return newGFp12().Frobenius(newGFp12().FrobeniusP2(o.a[i]))
			}},
		{"CyclotomicSquare", true,
			func(e *gfP12x8, o *x8Operands) { *e = o.ax; e.CyclotomicSquare(e, w) },
			func(o *x8Operands, i int) *gfP12 { return newGFp12().Square(o.a[i]) }},
		{"CyclotomicSquare out of place", true,
			func(e *gfP12x8, o *x8Operands) { e.CyclotomicSquare(&o.ax, w) },
			func(o *x8Operands, i int) *gfP12 { return newGFp12().Square(o.a[i]) }},
		{"expU", true,
			func(e *gfP12x8, o *x8Operands) { e.expU(&o.ax, w) },
			func(o *x8Operands, i int) *gfP12 { return newGFp12().Exp(o.a[i], u) }},
		{"finalExponentiation", false,
			func(e *gfP12x8, o *x8Operands) { *e = o.ax; e.finalExponentiation(e, w) },
			func(o *x8Operands, i int) *gfP12 { return finalExponentiationGeneric(o.a[i]) }},
		{"finalExponentiation out of place", false,
			func(e *gfP12x8, o *x8Operands) { e.finalExponentiation(&o.ax, w) },
			func(o *x8Operands, i int) *gfP12 { return finalExponentiationGeneric(o.a[i]) }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			o := randX8Operands(t, op.cyclotomic)
			var got gfP12x8
			op.lanes(&got, o)
			x8InInvariant12(t, op.name, &got)
			for i := 0; i < 8; i++ {
				if want := op.scalar(o, i); !got.lane(i).Equal(want) {
					t.Fatalf("lane %d differs from the scalar tower", i)
				}
			}
		})
	}
}

// TestX8InvertLanes covers the batched inversion, zero lanes included: a
// zero must stay zero and must not spoil the lanes that share its
// inversion.
func TestX8InvertLanes(t *testing.T) {
	var e gfPx8
	var want [8]gfP
	for i := range want {
		if i == 2 || i == 7 {
			continue // lanes left zero
		}
		v := randGFp2(t).x
		e.setLane(i, &v)
		want[i].Invert(&v)
	}
	e.invertLanes()
	x8InInvariant(t, "invertLanes", &e)
	for i := range want {
		if got := e.lane(i); got != want[i] {
			t.Fatalf("lane %d: got %v, want %v", i, &got, &want[i])
		}
	}
}

// TestLaneWorkAlignment pins what laneWork's comment promises: every field
// starts on a cache line.
func TestLaneWorkAlignment(t *testing.T) {
	w := laneWorkPool.Get().(*laneWork)
	defer laneWorkPool.Put(w)
	for name, p := range map[string]*gfP2x8{
		"f": &w.f.x.x, "scale": &w.scale.x.x, "tau": &w.tau, "mul12": &w.mul12.tx.x, "square": &w.square.v0.x, "line": &w.line.v0.x,
		"coeff": &w.coeff.c0, "cyclo": &w.cyclo[0], "expU": &w.expU.base.x.x, "finalEx": &w.finalEx.t1.x.x,
	} {
		if off := uintptr(unsafe.Pointer(p)) % 64; off != 0 {
			t.Errorf("laneWork.%s is %d bytes past a cache line", name, off)
		}
	}
}
