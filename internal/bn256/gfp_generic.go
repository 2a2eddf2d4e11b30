//go:build !amd64 || purego

package bn256

// gfpMul sets c = a·b·R⁻¹ mod p.
func gfpMul(c, a, b *gfP) { gfpMulGeneric(c, a, b) }
