//go:build amd64 && !purego

package bn256

// supportsMULXADX is read once from CPUID: the assembly kernel needs BMI2
// and ADX, which amd64 CPUs before Broadwell / Zen lack.
var supportsMULXADX = cpuidMULXADX()

func cpuidMULXADX() bool

// gfpMul sets c = a·b·R⁻¹ mod p: the MULX/ADX kernel in gfp_amd64.s, which
// hands over to gfpMulGeneric when supportsMULXADX is false.
//
//go:noescape
func gfpMul(c, a, b *gfP)
