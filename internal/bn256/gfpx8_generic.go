//go:build !amd64 || purego

package bn256

// No lane kernel in this build: the tower in towerx8.go still runs, on the
// Generic twins, but PackG1Lanes never selects it.
const supportsIFMA = false

func gfpx8Mul(c, a, b *gfPx8)   { gfpx8MulGeneric(c, a, b) }
func gfpx8Sub(c, a, b *gfPx8)   { gfpx8SubGeneric(c, a, b) }
func gfp2x8Mul(c, a, b *gfP2x8) { gfp2x8MulGeneric(c, a, b) }
func gfp2x8Square(c, a *gfP2x8) { gfp2x8SquareGeneric(c, a) }
func gfp2x8Add(c, a, b *gfP2x8) { gfp2x8AddGeneric(c, a, b) }
func gfp2x8Sub(c, a, b *gfP2x8) { gfp2x8SubGeneric(c, a, b) }
func gfp2x8MulXi(c, a *gfP2x8)  { gfp2x8MulXiGeneric(c, a) }

func gfp4x8CycloSquare(c0, c1, a, b, u, v *gfP2x8, xi bool) {
	gfp4x8CycloSquareGeneric(c0, c1, a, b, u, v, xi)
}

func gfp6x8Mul(c, a, b *gfP6x8)       { gfp6x8MulGeneric(c, a, b) }
func gfp6x8SubSub(c, a, b, d *gfP6x8) { gfp6x8SubSubGeneric(c, a, b, d) }
func gfp6x8MulTauAdd(c, a, b *gfP6x8) { gfp6x8MulTauAddGeneric(c, a, b) }

func gfp6x8MulSparse2(e, a *gfP6x8, y2, z2 *gfP2x8) { gfp6x8MulSparse2Generic(e, a, y2, z2) }

func g1x8Double(c, a *g1x8Proj) { g1x8DoubleGeneric(c, a) }
func g1x8Add(c, a, b *g1x8Proj) { g1x8AddGeneric(c, a, b) }
