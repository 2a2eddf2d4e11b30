package bn256

import (
	"fmt"
	"math/big"
	"math/bits"
)

// gfP is an element of the base field F_p in Montgomery form: the value v
// is stored as v·R mod p with R = 2²⁵⁶, as four little-endian 64-bit limbs,
// always fully reduced into [0, p). All arithmetic below is division-free:
// multiplication interleaves Koç's CIOS Montgomery reduction with the limb
// products, and addition/subtraction/negation reduce with a single
// conditional subtraction selected by mask (no branches on secret data).
//
// gfpMul has exactly two implementations: the MULX/ADX assembly kernel in
// gfp_amd64.s and gfpMulGeneric below, which runs on every other GOARCH,
// under -tags purego, and on amd64 CPUs without BMI2+ADX.
//
// The big.Int implementation this replaces is retained in the ref_*.go
// files as the differential-testing reference.
type gfP [4]uint64

// The modulus p as little-endian limbs, and np = −p⁻¹ mod 2⁶⁴, the per-limb
// reduction factor of Montgomery multiplication. They are constants so the
// compiler folds them into the add/sub/mul code as immediates (the hot
// functions read no global), and the assembly kernel carries its own copy.
// init below pins these to the values derived from P, and the tests that
// compare gfpMul with gfpMulGeneric pin the kernel's copy to these, so none
// can drift from constants.go.
const (
	p0 = 0x185cac6c5e089667
	p1 = 0xee5b88d120b5b59e
	p2 = 0xaa6fecb86184dc21
	p3 = 0x8fb501e34aa387f9
	np = 0x2387f9007f17daa9
)

// Montgomery parameters, derived from P at package initialization so the
// limb core cannot drift from the big.Int constants.
var (
	r2   = gfPRawMod(montRSquared()) // R² mod p (raw limbs)
	rOne = gfPRawMod(montR())        // R mod p: the Montgomery form of 1

	// Fixed exponents for Fermat inversion and square roots (p ≡ 3 mod 4).
	pMinus2Big     = new(big.Int).Sub(P, big.NewInt(2))
	pPlus1Over4Big = new(big.Int).Rsh(new(big.Int).Add(P, big.NewInt(1)), 2)
)

func init() {
	if limbsOf(P) != (gfP{p0, p1, p2, p3}) || negPInvMod64() != np {
		panic("bn256: field constants in gfp.go do not match P")
	}
}

func montR() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), 256)
}

func montRSquared() *big.Int {
	r := montR()
	return r.Mul(r, montR())
}

// limbsOf splits 0 ≤ v < 2²⁵⁶ into four little-endian limbs.
func limbsOf(v *big.Int) (out gfP) {
	var buf [32]byte
	v.FillBytes(buf[:])
	for i := 0; i < 4; i++ {
		out[i] = uint64(buf[31-8*i]) | uint64(buf[30-8*i])<<8 |
			uint64(buf[29-8*i])<<16 | uint64(buf[28-8*i])<<24 |
			uint64(buf[27-8*i])<<32 | uint64(buf[26-8*i])<<40 |
			uint64(buf[25-8*i])<<48 | uint64(buf[24-8*i])<<56
	}
	return
}

// gfPRawMod reduces v mod p and returns the raw limbs (no Montgomery
// encoding — used only to seed the Montgomery constants themselves).
func gfPRawMod(v *big.Int) gfP {
	return limbsOf(new(big.Int).Mod(v, P))
}

// negPInvMod64 computes −p⁻¹ mod 2⁶⁴, the per-limb reduction factor of
// Montgomery multiplication.
func negPInvMod64() uint64 {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	inv := new(big.Int).ModInverse(P, two64)
	inv.Neg(inv)
	inv.Mod(inv, two64)
	return inv.Uint64()
}

// gfpAdd sets c = a + b mod p. Because 2p > 2²⁵⁶ the raw sum can carry out
// of the fourth limb, so the conditional subtraction keys on the carry bit
// as well as the comparison with p.
func gfpAdd(c, a, b *gfP) {
	t0, carry := bits.Add64(a[0], b[0], 0)
	t1, carry := bits.Add64(a[1], b[1], carry)
	t2, carry := bits.Add64(a[2], b[2], carry)
	t3, carry := bits.Add64(a[3], b[3], carry)

	u0, borrow := bits.Sub64(t0, p0, 0)
	u1, borrow := bits.Sub64(t1, p1, borrow)
	u2, borrow := bits.Sub64(t2, p2, borrow)
	u3, borrow := bits.Sub64(t3, p3, borrow)

	// The sum is below p, and the unreduced t is kept, exactly when the
	// addition did not carry and the subtraction borrowed.
	m := -(borrow &^ carry)
	c[0] = u0 ^ ((u0 ^ t0) & m)
	c[1] = u1 ^ ((u1 ^ t1) & m)
	c[2] = u2 ^ ((u2 ^ t2) & m)
	c[3] = u3 ^ ((u3 ^ t3) & m)
}

// gfpSub sets c = a − b mod p.
func gfpSub(c, a, b *gfP) {
	t0, borrow := bits.Sub64(a[0], b[0], 0)
	t1, borrow := bits.Sub64(a[1], b[1], borrow)
	t2, borrow := bits.Sub64(a[2], b[2], borrow)
	t3, borrow := bits.Sub64(a[3], b[3], borrow)

	// Add p back when the subtraction went negative.
	m := -borrow
	var carry uint64
	c[0], carry = bits.Add64(t0, p0&m, 0)
	c[1], carry = bits.Add64(t1, p1&m, carry)
	c[2], carry = bits.Add64(t2, p2&m, carry)
	c[3], _ = bits.Add64(t3, p3&m, carry)
}

// gfpNeg sets c = −a mod p.
func gfpNeg(c, a *gfP) {
	// p − 0 = p must canonicalize to 0: subtract from 0 instead of from p.
	// nz | −nz has its top bit set exactly when a ≠ 0.
	nz := a[0] | a[1] | a[2] | a[3]
	m := -((nz | -nz) >> 63)

	var borrow uint64
	c[0], borrow = bits.Sub64(p0&m, a[0], 0)
	c[1], borrow = bits.Sub64(p1&m, a[1], borrow)
	c[2], borrow = bits.Sub64(p2&m, a[2], borrow)
	c[3], _ = bits.Sub64(p3&m, a[3], borrow)
}

// gfpDouble sets c = 2a mod p.
func gfpDouble(c, a *gfP) { gfpAdd(c, a, a) }

// madd returns a·b + c + d as a (hi, lo) pair. The result cannot overflow:
// (2⁶⁴−1)² + 2·(2⁶⁴−1) = 2¹²⁸ − 1.
func madd(a, b, c, d uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(a, b)
	lo, carry := bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return hi, lo
}

// gfpMulGeneric sets c = a·b·R⁻¹ mod p: CIOS (coarsely integrated operand
// scanning) Montgomery multiplication, the portable counterpart of the
// assembly kernel. p occupies the full 256 bits (2p > 2²⁵⁶), so the
// goff/gnark "no-carry" shortcut does not apply and the accumulator keeps
// an explicit fifth limb: between rounds t < p + b < 2p, so that limb is at
// most 1. After the last round t = (a·b + m·p)/R < (p/R + 1)·p < 2²⁵⁶ for
// reduced a and b, the fifth limb is 0 again, and one conditional
// subtraction over four limbs lands the result in [0, p).
func gfpMulGeneric(c, a, b *gfP) {
	var t0, t1, t2, t3, t4 uint64

	for i := 0; i < 4; i++ {
		ai := a[i]
		// t += ai·b
		C, u0 := madd(ai, b[0], t0, 0)
		C, u1 := madd(ai, b[1], t1, C)
		C, u2 := madd(ai, b[2], t2, C)
		C, u3 := madd(ai, b[3], t3, C)
		u4, u5 := bits.Add64(t4, C, 0)

		// t += m·p, then shift one limb: m cancels the low limb exactly.
		m := u0 * np
		C, _ = madd(m, p0, u0, 0)
		C, t0 = madd(m, p1, u1, C)
		C, t1 = madd(m, p2, u2, C)
		C, t2 = madd(m, p3, u3, C)
		t3, C = bits.Add64(u4, C, 0)
		t4 = u5 + C
	}

	u0, borrow := bits.Sub64(t0, p0, 0)
	u1, borrow := bits.Sub64(t1, p1, borrow)
	u2, borrow := bits.Sub64(t2, p2, borrow)
	u3, borrow := bits.Sub64(t3, p3, borrow)

	// Keep t when it is below p.
	m := -borrow
	c[0] = u0 ^ ((u0 ^ t0) & m)
	c[1] = u1 ^ ((u1 ^ t1) & m)
	c[2] = u2 ^ ((u2 ^ t2) & m)
	c[3] = u3 ^ ((u3 ^ t3) & m)
}

// montEncode converts raw limbs into Montgomery form: c = a·R mod p.
func montEncode(c, a *gfP) { gfpMul(c, a, &r2) }

// montDecode converts out of Montgomery form: c = a·R⁻¹ mod p.
func montDecode(c, a *gfP) { gfpMul(c, a, &gfP{1}) }

func (e *gfP) Set(a *gfP) *gfP {
	*e = *a
	return e
}

func (e *gfP) SetZero() *gfP {
	*e = gfP{}
	return e
}

func (e *gfP) SetOne() *gfP {
	*e = rOne
	return e
}

func (e *gfP) IsZero() bool {
	return e[0]|e[1]|e[2]|e[3] == 0
}

// Equal reports whether e == a, comparing all limbs without early exit.
func (e *gfP) Equal(a *gfP) bool {
	v := (e[0] ^ a[0]) | (e[1] ^ a[1]) | (e[2] ^ a[2]) | (e[3] ^ a[3])
	return v == 0
}

// expBig sets e = a^k (k ≥ 0 in plain binary form) by square-and-multiply
// over Montgomery values.
func (e *gfP) expBig(a *gfP, k *big.Int) *gfP {
	sum := rOne
	base := *a
	for i := k.BitLen() - 1; i >= 0; i-- {
		gfpMul(&sum, &sum, &sum)
		if k.Bit(i) != 0 {
			gfpMul(&sum, &sum, &base)
		}
	}
	*e = sum
	return e
}

// Invert sets e = a⁻¹ via Fermat: a^(p−2). The inverse of zero is zero.
func (e *gfP) Invert(a *gfP) *gfP {
	return e.expBig(a, pMinus2Big)
}

// Sqrt sets e to a square root of a and reports whether a is a square,
// using e = a^((p+1)/4), valid because p ≡ 3 (mod 4). The root chosen is
// identical to the one big.Int ModSqrt returns for this prime shape, which
// keeps all deterministic hash-to-point derivations byte-stable.
func (e *gfP) Sqrt(a *gfP) bool {
	var cand, check gfP
	cand.expBig(a, pPlus1Over4Big)
	gfpMul(&check, &cand, &cand)
	if !check.Equal(a) {
		return false
	}
	*e = cand
	return true
}

// IsOdd reports whether the canonical (non-Montgomery) value of e is odd.
func (e *gfP) IsOdd() bool {
	var d gfP
	montDecode(&d, e)
	return d[0]&1 == 1
}

// newGfP returns the Montgomery form of the small integer v.
func newGfP(v int64) (out gfP) {
	if v >= 0 {
		raw := gfP{uint64(v)}
		montEncode(&out, &raw)
		return
	}
	raw := gfP{uint64(-v)}
	montEncode(&out, &raw)
	gfpNeg(&out, &out)
	return
}

// gfPFromBig returns the Montgomery form of v mod p.
func gfPFromBig(v *big.Int) (out gfP) {
	raw := limbsOf(new(big.Int).Mod(v, P))
	montEncode(&out, &raw)
	return
}

// BigInt returns the canonical value of e as a big.Int.
func (e *gfP) BigInt() *big.Int {
	var buf [32]byte
	e.Marshal(buf[:])
	return new(big.Int).SetBytes(buf[:])
}

// Marshal writes the canonical 32-byte big-endian encoding of e — the same
// bytes the retired big.Int core produced, so every wire format is
// unchanged.
func (e *gfP) Marshal(out []byte) {
	var d gfP
	montDecode(&d, e)
	for i := 0; i < 4; i++ {
		v := d[3-i]
		out[8*i+0] = byte(v >> 56)
		out[8*i+1] = byte(v >> 48)
		out[8*i+2] = byte(v >> 40)
		out[8*i+3] = byte(v >> 32)
		out[8*i+4] = byte(v >> 24)
		out[8*i+5] = byte(v >> 16)
		out[8*i+6] = byte(v >> 8)
		out[8*i+7] = byte(v)
	}
}

// Unmarshal reads a 32-byte big-endian value, rejecting encodings ≥ p.
func (e *gfP) Unmarshal(in []byte) error {
	var raw gfP
	for i := 0; i < 4; i++ {
		raw[3-i] = uint64(in[8*i])<<56 | uint64(in[8*i+1])<<48 |
			uint64(in[8*i+2])<<40 | uint64(in[8*i+3])<<32 |
			uint64(in[8*i+4])<<24 | uint64(in[8*i+5])<<16 |
			uint64(in[8*i+6])<<8 | uint64(in[8*i+7])
	}
	// raw must be < p.
	_, borrow := bits.Sub64(raw[0], p0, 0)
	_, borrow = bits.Sub64(raw[1], p1, borrow)
	_, borrow = bits.Sub64(raw[2], p2, borrow)
	_, borrow = bits.Sub64(raw[3], p3, borrow)
	if borrow == 0 {
		return ErrMalformedPoint
	}
	montEncode(e, &raw)
	return nil
}

func (e *gfP) String() string {
	return fmt.Sprintf("%v", e.BigInt())
}
