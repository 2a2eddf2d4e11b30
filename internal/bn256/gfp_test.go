package bn256

import (
	"math/big"
	"testing"
)

// gfpEdgeValues returns integers in [0, p) whose limb patterns sit on the
// kernel's carry boundaries. The tests below feed them to the field
// functions as raw limbs (no Montgomery encoding), so the patterns named
// here are the ones the carry chains actually see.
func gfpEdgeValues() []*big.Int {
	one := big.NewInt(1)
	two256 := montR()
	vals := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(P, one),
		new(big.Int).Sub(P, big.NewInt(2)),
		new(big.Int).Rsh(new(big.Int).Sub(P, one), 1),
		new(big.Int).Mod(two256, P),
		new(big.Int).Mod(montRSquared(), P),
		new(big.Int).Lsh(one, 255),
		new(big.Int).Mod(new(big.Int).Sub(two256, one), P),
	}
	for i := uint(0); i < 4; i++ {
		limb := new(big.Int).SetUint64(^uint64(0))
		vals = append(vals, limb.Lsh(limb, 64*i).Mod(limb, P))
	}
	// A pair found by search: in the first reduction round of a·b the fifth
	// accumulator limb is 2⁶⁴−1 when the low-half carry chain reaches it, so
	// the sixth limb is set by that chain and not by the high-half one — a
	// 2⁻⁶⁴ event on random operands, and the only input here that fails when
	// the kernel's last ADCXQ into t5 is dropped.
	for _, h := range []string{
		"f0fb7f24a6048457",
		"82593adfeeec49dd4e6f5a940c250a034c717095bcc99ae86d21f4cda185cc8e",
	} {
		v, _ := new(big.Int).SetString(h, 16)
		vals = append(vals, v)
	}
	return vals
}

func modP(v *big.Int) gfP { return limbsOf(v.Mod(v, P)) }

// TestGfpMulEdgeLimbs runs the cross product of the edge values through
// gfpMul (the assembly kernel where the build and the CPU have it),
// gfpMulGeneric and big.Int, in the plain and the three aliased call forms.
func TestGfpMulEdgeLimbs(t *testing.T) {
	rInv := new(big.Int).ModInverse(montR(), P)
	vals := gfpEdgeValues()
	for _, a := range vals {
		for _, b := range vals {
			x, y := limbsOf(a), limbsOf(b)
			want := modP(new(big.Int).Mul(new(big.Int).Mul(a, b), rInv))

			var got, gen gfP
			gfpMul(&got, &x, &y)
			gfpMulGeneric(&gen, &x, &y)
			if got != want || gen != want {
				t.Fatalf("a=%x b=%x: gfpMul=%x generic=%x want %x", a, b, got, gen, want)
			}

			got = x
			gfpMul(&got, &got, &y)
			if got != want {
				t.Fatalf("a=%x b=%x: gfpMul(&x,&x,&y)=%x want %x", a, b, got, want)
			}
			got = y
			gfpMul(&got, &x, &got)
			if got != want {
				t.Fatalf("a=%x b=%x: gfpMul(&y,&x,&y)=%x want %x", a, b, got, want)
			}
		}
		x := limbsOf(a)
		want := modP(new(big.Int).Mul(new(big.Int).Mul(a, a), rInv))
		gfpMul(&x, &x, &x)
		if x != want {
			t.Fatalf("a=%x: gfpMul(&x,&x,&x)=%x want %x", a, x, want)
		}
	}
}

// TestGfpAddSubEdgeLimbs is the same table for add, sub, neg and double.
func TestGfpAddSubEdgeLimbs(t *testing.T) {
	vals := gfpEdgeValues()
	for _, a := range vals {
		x := limbsOf(a)

		var got gfP
		gfpNeg(&got, &x)
		if want := modP(new(big.Int).Neg(a)); got != want {
			t.Fatalf("a=%x: gfpNeg=%x want %x", a, got, want)
		}
		gfpDouble(&got, &x)
		if want := modP(new(big.Int).Lsh(a, 1)); got != want {
			t.Fatalf("a=%x: gfpDouble=%x want %x", a, got, want)
		}
		got = x
		gfpNeg(&got, &got)
		gfpNeg(&got, &got)
		if got != x {
			t.Fatalf("a=%x: in-place double negation gives %x", a, got)
		}

		for _, b := range vals {
			y := limbsOf(b)
			sum := modP(new(big.Int).Add(a, b))
			diff := modP(new(big.Int).Sub(a, b))

			gfpAdd(&got, &x, &y)
			if got != sum {
				t.Fatalf("a=%x b=%x: gfpAdd=%x want %x", a, b, got, sum)
			}
			gfpSub(&got, &x, &y)
			if got != diff {
				t.Fatalf("a=%x b=%x: gfpSub=%x want %x", a, b, got, diff)
			}

			got = x
			gfpAdd(&got, &got, &y)
			if got != sum {
				t.Fatalf("a=%x b=%x: gfpAdd(&x,&x,&y)=%x want %x", a, b, got, sum)
			}
			got = y
			gfpSub(&got, &x, &got)
			if got != diff {
				t.Fatalf("a=%x b=%x: gfpSub(&y,&x,&y)=%x want %x", a, b, got, diff)
			}
		}
	}
}
