package bn256

import (
	"math/big"
	"math/bits"
)

// gfPx8 is eight elements of F_p side by side, one per lane, for the
// AVX-512 IFMA kernels in gfpx8_amd64.s: structure-of-arrays form, limb i
// of all eight lanes in one 64-byte row, which is one ZMM register.
//
// A lane holds its value v as v·2²⁶⁰ mod p (Montgomery form with R = 2²⁶⁰,
// not gfP's 2²⁵⁶) in five little-endian limbs of 52 bits, the operand width
// of VPMADD52. The representation is redundant: a stored value is anywhere
// in [0, 2p), not reduced into [0, p). R/p ≈ 28.5 leaves the room for that,
// and it is what lets a multiplication skip the conditional subtraction and
// take a sum of two products, or a product of unreduced sums, in one
// reduction. The invariant every kernel expects of its operands and keeps
// for its results:
//
//	limbs < 2⁵², value < 2p.
//
// Each kernel has two implementations, as gfpMul does: the assembly, and a
// lane loop over the scalar tower (the *Generic functions) that is the only
// one on other GOARCH, under -tags purego, and on amd64 without the
// extensions, so that the tower in towerx8.go runs and is tested
// everywhere.
type gfPx8 [5][8]uint64

const mask52 = 1<<52 - 1

// Raw (not Montgomery-encoded) powers of two that move a value between
// gfP's R = 2²⁵⁶ and the lanes' R = 2²⁶⁰ with one gfpMul, which multiplies
// by 2⁻²⁵⁶: x·2²⁶⁰·2⁻²⁵⁶ = 2⁴·x and x·2²⁵²·2⁻²⁵⁶ = 2⁻⁴·x.
var (
	two260 = gfPRawMod(new(big.Int).Lsh(big.NewInt(1), 260))
	two252 = gfPRawMod(new(big.Int).Lsh(big.NewInt(1), 252))
)

// setLane stores x in lane i, moving it from gfP's Montgomery form to the
// lanes' and from four 64-bit limbs to five of 52 bits.
func (e *gfPx8) setLane(i int, x *gfP) {
	var v gfP
	gfpMul(&v, x, &two260)
	e[0][i] = v[0] & mask52
	e[1][i] = (v[0]>>52 | v[1]<<12) & mask52
	e[2][i] = (v[1]>>40 | v[2]<<24) & mask52
	e[3][i] = (v[2]>>28 | v[3]<<36) & mask52
	e[4][i] = v[3] >> 16
}

// lane returns lane i as a gfP. Any lane with limbs below 2⁵² is accepted;
// one that holds the invariant costs at most one subtraction of p.
func (e *gfPx8) lane(i int) (x gfP) {
	l0, l1, l2, l3, l4 := e[0][i], e[1][i], e[2][i], e[3][i], e[4][i]
	v := gfP{l0 | l1<<52, l1>>12 | l2<<40, l2>>24 | l3<<28, l3>>36 | l4<<16}
	top := l4 >> 48 // bits 256..259
	for {
		var d gfP
		var borrow uint64
		d[0], borrow = bits.Sub64(v[0], p0, 0)
		d[1], borrow = bits.Sub64(v[1], p1, borrow)
		d[2], borrow = bits.Sub64(v[2], p2, borrow)
		d[3], borrow = bits.Sub64(v[3], p3, borrow)
		if top == 0 && borrow != 0 {
			break
		}
		v, top = d, top-borrow
	}
	gfpMul(&x, &v, &two252)
	return
}

// splat stores x in all eight lanes.
func (e *gfPx8) splat(x *gfP) {
	e.setLane(0, x)
	for l := range e {
		v := e[l][0]
		e[l] = [8]uint64{v, v, v, v, v, v, v, v}
	}
}

// gfP2x8 is eight elements x·i + y of F_p², the type the tower in
// towerx8.go is built on.
type gfP2x8 struct {
	x, y gfPx8
}

func (e *gfP2x8) setLane(i int, a *gfP2) {
	e.x.setLane(i, &a.x)
	e.y.setLane(i, &a.y)
}

func (e *gfP2x8) lane(i int) gfP2 {
	return gfP2{x: e.x.lane(i), y: e.y.lane(i)}
}

func (e *gfP2x8) splat(a *gfP2) {
	e.x.splat(&a.x)
	e.y.splat(&a.y)
}

// The Generic twins: every lane goes through the scalar tower's operation
// and comes back reduced below p. They accept any operand with limbs below
// 2⁵².

func gfpx8MulGeneric(c, a, b *gfPx8) {
	for i := 0; i < 8; i++ {
		x, y := a.lane(i), b.lane(i)
		gfpMul(&x, &x, &y)
		c.setLane(i, &x)
	}
}

func gfp2x8MulGeneric(c, a, b *gfP2x8) {
	for i := 0; i < 8; i++ {
		x, y := a.lane(i), b.lane(i)
		c.setLane(i, x.Mul(&x, &y))
	}
}

func gfp2x8SquareGeneric(c, a *gfP2x8) {
	for i := 0; i < 8; i++ {
		x := a.lane(i)
		c.setLane(i, x.Square(&x))
	}
}

func gfp2x8AddGeneric(c, a, b *gfP2x8) {
	for i := 0; i < 8; i++ {
		x, y := a.lane(i), b.lane(i)
		c.setLane(i, x.Add(&x, &y))
	}
}

func gfp2x8SubGeneric(c, a, b *gfP2x8) {
	for i := 0; i < 8; i++ {
		x, y := a.lane(i), b.lane(i)
		c.setLane(i, x.Sub(&x, &y))
	}
}

func gfp2x8MulXiGeneric(c, a *gfP2x8) {
	for i := 0; i < 8; i++ {
		x := a.lane(i)
		c.setLane(i, x.MulXi(&x))
	}
}
