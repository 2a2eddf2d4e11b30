//go:build !amd64 || purego

package bn256

// No lane kernel in this build: the tower in towerx8.go still runs, on the
// Generic twins, but PackG1Lanes never selects it.
const supportsIFMA = false

func gfpx8Mul(c, a, b *gfPx8)   { gfpx8MulGeneric(c, a, b) }
func gfp2x8Mul(c, a, b *gfP2x8) { gfp2x8MulGeneric(c, a, b) }
func gfp2x8Square(c, a *gfP2x8) { gfp2x8SquareGeneric(c, a) }
func gfp2x8Add(c, a, b *gfP2x8) { gfp2x8AddGeneric(c, a, b) }
func gfp2x8Sub(c, a, b *gfP2x8) { gfp2x8SubGeneric(c, a, b) }
func gfp2x8MulXi(c, a *gfP2x8)  { gfp2x8MulXiGeneric(c, a) }
