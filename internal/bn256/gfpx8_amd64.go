//go:build amd64 && !purego

package bn256

// supportsIFMA is read once from CPUID and XGETBV: the lane kernels need
// AVX-512F and AVX-512 IFMA and an operating system that saves ZMM state.
var supportsIFMA = cpuidIFMA()

func cpuidIFMA() bool

// The kernels in gfpx8_amd64.s; each hands over to its Generic twin when
// supportsIFMA is false.

//go:noescape
func gfpx8Mul(c, a, b *gfPx8)

//go:noescape
func gfpx8Sub(c, a, b *gfPx8)

//go:noescape
func gfp2x8Mul(c, a, b *gfP2x8)

//go:noescape
func gfp2x8Square(c, a *gfP2x8)

//go:noescape
func gfp2x8Add(c, a, b *gfP2x8)

//go:noescape
func gfp2x8Sub(c, a, b *gfP2x8)

//go:noescape
func gfp2x8MulXi(c, a *gfP2x8)

//go:noescape
func gfp4x8CycloSquare(c0, c1, a, b, u, v *gfP2x8, xi bool)

//go:noescape
func gfp6x8Mul(c, a, b *gfP6x8)

//go:noescape
func gfp6x8SubSub(c, a, b, d *gfP6x8)

//go:noescape
func gfp6x8MulTauAdd(c, a, b *gfP6x8)

//go:noescape
func gfp6x8MulSparse2(e, a *gfP6x8, y2, z2 *gfP2x8)

//go:noescape
func g1x8Double(c, a *g1x8Proj)

//go:noescape
func g1x8Add(c, a, b *g1x8Proj)
