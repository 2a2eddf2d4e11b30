package bn256

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"
)

// numBytes is the byte length of a base-field element in marshaled form.
const numBytes = 32

// Marshaled sizes of the three group element types.
const (
	G1Size = 2 * numBytes  // 64 bytes
	G2Size = 4 * numBytes  // 128 bytes
	GTSize = 12 * numBytes // 384 bytes
)

// Exported errors for element validation.
var (
	ErrMalformedPoint = errors.New("bn256: malformed point encoding")
	ErrNotOnCurve     = errors.New("bn256: point not on curve")
)

// G1 is an abstract cyclic group of order Order. The zero value is not
// valid; obtain elements via the constructors or Set-style methods.
type G1 struct {
	p *curvePoint
}

// G2 is an abstract cyclic group of order Order.
type G2 struct {
	p *twistPoint
}

// GT is an abstract cyclic group of order Order, written multiplicatively
// in the PEACE protocol but exposed with Add/Neg names for parity with
// classic bn256 APIs (Add multiplies, Neg inverts).
type GT struct {
	p *gfP12
}

// RandomG1 returns k and g1^k where k is taken from r.
func RandomG1(r io.Reader) (*big.Int, *G1, error) {
	k, err := RandomScalar(r)
	if err != nil {
		return nil, nil, err
	}
	return k, new(G1).ScalarBaseMult(k), nil
}

// RandomG2 returns k and g2^k where k is taken from r.
func RandomG2(r io.Reader) (*big.Int, *G2, error) {
	k, err := RandomScalar(r)
	if err != nil {
		return nil, nil, err
	}
	return k, new(G2).ScalarBaseMult(k), nil
}

// RandomScalar returns a uniform element of Z_n*.
func RandomScalar(r io.Reader) (*big.Int, error) {
	for {
		k, err := rand.Int(r, Order)
		if err != nil {
			return nil, err
		}
		if k.Sign() != 0 {
			return k, nil
		}
	}
}

func (e *G1) String() string { return "bn256.G1" + e.p.String() }

// Base returns the canonical generator of G1.
func (e *G1) Base() *G1 {
	if e.p == nil {
		e.p = newCurvePoint()
	}
	e.p.Set(curveGen)
	return e
}

// ScalarBaseMult sets e = g1^k and returns e. It uses the process-wide
// precomputed window table for the generator (built lazily on first use).
func (e *G1) ScalarBaseMult(k *big.Int) *G1 {
	if e.p == nil {
		e.p = newCurvePoint()
	}
	baseCurveTable().mul(e.p, k)
	return e
}

// ScalarMult sets e = a^k and returns e.
func (e *G1) ScalarMult(a *G1, k *big.Int) *G1 {
	if e.p == nil {
		e.p = newCurvePoint()
	}
	e.p.Mul(a.p, k)
	return e
}

// MultiScalarMult sets e = Π as[i]^ks[i] and returns e: one doubling chain
// for all bases (each scalar GLV-split), so a product of two powers costs
// little more than one power. It panics if the slices differ in length.
func (e *G1) MultiScalarMult(as []*G1, ks []*big.Int) *G1 {
	if len(as) != len(ks) {
		panic("bn256: MultiScalarMult slice length mismatch")
	}
	if e.p == nil {
		e.p = newCurvePoint()
	}
	var buf [4]*curvePoint // the verifier's sums have at most three bases
	pts := buf[:0]
	for _, a := range as {
		pts = append(pts, a.p)
	}
	e.p.mulGLVSum(pts, ks)
	return e
}

// NormalizeG1 brings every point to affine form with one shared field
// inversion, so that marshaling or pairing them afterwards inverts nothing.
// The points must be distinct, and their values do not change; it must not
// run concurrently with any other use of them.
func NormalizeG1(points ...*G1) {
	pts := make([]*curvePoint, len(points))
	for i, p := range points {
		pts[i] = p.p
	}
	makeAffineBatch(pts)
}

// Add sets e = a·b (the group operation) and returns e.
func (e *G1) Add(a, b *G1) *G1 {
	if e.p == nil {
		e.p = newCurvePoint()
	}
	e.p.Add(a.p, b.p)
	return e
}

// Neg sets e = a^(−1) and returns e.
func (e *G1) Neg(a *G1) *G1 {
	if e.p == nil {
		e.p = newCurvePoint()
	}
	e.p.Negative(a.p)
	return e
}

// Set sets e = a and returns e.
func (e *G1) Set(a *G1) *G1 {
	if e.p == nil {
		e.p = newCurvePoint()
	}
	e.p.Set(a.p)
	return e
}

// SetInfinity sets e to the group identity.
func (e *G1) SetInfinity() *G1 {
	if e.p == nil {
		e.p = newCurvePoint()
	}
	e.p.SetInfinity()
	return e
}

// IsInfinity reports whether e is the group identity.
func (e *G1) IsInfinity() bool { return e.p.IsInfinity() }

// Equal reports whether e and a are the same group element.
func (e *G1) Equal(a *G1) bool { return e.p.Equal(a.p) }

// Marshal converts e to a 64-byte slice. It does not modify e, so a point
// shared between goroutines (a broadcast beacon share, a group public key)
// may be marshaled concurrently.
func (e *G1) Marshal() []byte {
	out := make([]byte, G1Size)
	if e.p.IsInfinity() {
		return out
	}
	p := newCurvePoint().Set(e.p)
	p.MakeAffine()
	p.x.Marshal(out[0*numBytes : 1*numBytes])
	p.y.Marshal(out[1*numBytes : 2*numBytes])
	return out
}

// Unmarshal sets e to the point encoded in m and validates it.
func (e *G1) Unmarshal(m []byte) (*G1, error) {
	if len(m) != G1Size {
		return nil, ErrMalformedPoint
	}
	if e.p == nil {
		e.p = newCurvePoint()
	}
	if err := decodeG1(e.p, m); err != nil {
		return nil, err
	}
	return e, nil
}

// CheckG1 reports whether G1.Unmarshal accepts m, and whether m encodes
// the point at infinity, without allocating: it runs Unmarshal's rule
// into a point on its own stack.
func CheckG1(m []byte) (infinity bool, err error) {
	var p curvePoint
	if err := decodeG1(&p, m); err != nil {
		return false, err
	}
	return p.IsInfinity(), nil
}

// decodeG1 is the one G1 decoding rule: 64 zero bytes are the point at
// infinity; otherwise x and y must each be below p and (x, y) on the
// curve.
func decodeG1(p *curvePoint, m []byte) error {
	if len(m) != G1Size {
		return ErrMalformedPoint
	}
	if allZero(m) {
		p.SetInfinity()
		return nil
	}
	if err := p.x.Unmarshal(m[0*numBytes : 1*numBytes]); err != nil {
		return err
	}
	if err := p.y.Unmarshal(m[1*numBytes : 2*numBytes]); err != nil {
		return err
	}
	p.z.SetOne()
	p.t.SetOne()
	if !p.IsOnCurve() {
		return ErrNotOnCurve
	}
	return nil
}

func (e *G2) String() string { return "bn256.G2" + e.p.String() }

// Base returns the canonical generator of G2.
func (e *G2) Base() *G2 {
	if e.p == nil {
		e.p = newTwistPoint()
	}
	e.p.Set(twistGen)
	return e
}

// ScalarBaseMult sets e = g2^k and returns e. It uses the process-wide
// precomputed window table for the generator (built lazily on first use).
func (e *G2) ScalarBaseMult(k *big.Int) *G2 {
	if e.p == nil {
		e.p = newTwistPoint()
	}
	baseTwistTable().mul(e.p, k)
	return e
}

// ScalarMult sets e = a^k and returns e.
func (e *G2) ScalarMult(a *G2, k *big.Int) *G2 {
	if e.p == nil {
		e.p = newTwistPoint()
	}
	e.p.Mul(a.p, k)
	return e
}

// Add sets e = a·b (the group operation) and returns e.
func (e *G2) Add(a, b *G2) *G2 {
	if e.p == nil {
		e.p = newTwistPoint()
	}
	e.p.Add(a.p, b.p)
	return e
}

// Neg sets e = a^(−1) and returns e.
func (e *G2) Neg(a *G2) *G2 {
	if e.p == nil {
		e.p = newTwistPoint()
	}
	e.p.Negative(a.p)
	return e
}

// Set sets e = a and returns e.
func (e *G2) Set(a *G2) *G2 {
	if e.p == nil {
		e.p = newTwistPoint()
	}
	e.p.Set(a.p)
	return e
}

// SetInfinity sets e to the group identity.
func (e *G2) SetInfinity() *G2 {
	if e.p == nil {
		e.p = newTwistPoint()
	}
	e.p.SetInfinity()
	return e
}

// IsInfinity reports whether e is the group identity.
func (e *G2) IsInfinity() bool { return e.p.IsInfinity() }

// Equal reports whether e and a are the same group element.
func (e *G2) Equal(a *G2) bool { return e.p.Equal(a.p) }

// Marshal converts e to a 128-byte slice. It does not modify e and is safe
// for concurrent use on a shared point.
func (e *G2) Marshal() []byte {
	out := make([]byte, G2Size)
	if e.p.IsInfinity() {
		return out
	}
	p := newTwistPoint().Set(e.p)
	p.MakeAffine()
	p.x.x.Marshal(out[0*numBytes : 1*numBytes])
	p.x.y.Marshal(out[1*numBytes : 2*numBytes])
	p.y.x.Marshal(out[2*numBytes : 3*numBytes])
	p.y.y.Marshal(out[3*numBytes : 4*numBytes])
	return out
}

// Unmarshal sets e to the point encoded in m, validating curve and
// subgroup membership.
func (e *G2) Unmarshal(m []byte) (*G2, error) {
	if len(m) != G2Size {
		return nil, ErrMalformedPoint
	}
	if e.p == nil {
		e.p = newTwistPoint()
	}
	if allZero(m) {
		e.p.SetInfinity()
		return e, nil
	}
	for i, c := range []*gfP{&e.p.x.x, &e.p.x.y, &e.p.y.x, &e.p.y.y} {
		if err := c.Unmarshal(m[i*numBytes : (i+1)*numBytes]); err != nil {
			return nil, err
		}
	}
	e.p.z.SetOne()
	e.p.t.SetOne()
	if !e.p.IsOnCurve() {
		return nil, ErrNotOnCurve
	}
	return e, nil
}

func (e *GT) String() string { return "bn256.GT" + e.p.String() }

// Base returns e(g1, g2), the canonical generator of GT.
func (e *GT) Base() *GT {
	if e.p == nil {
		e.p = newGFp12()
	}
	e.p.Set(gtGen)
	return e
}

// ScalarBaseMult sets e = e(g1,g2)^k and returns e. The generator is a
// pairing value, so the exponentiation runs in the cyclotomic subgroup
// (Granger–Scott squarings under NAF recoding) rather than through the
// generic Exp.
func (e *GT) ScalarBaseMult(k *big.Int) *GT {
	if e.p == nil {
		e.p = newGFp12()
	}
	e.p.cyclotomicExp(gtGen, k)
	return e
}

// ScalarMult sets e = a^k and returns e. It makes no assumption about a and
// uses the generic square-and-multiply ladder; for elements known to be
// pairing values, ScalarMultCyclo is several times faster.
func (e *GT) ScalarMult(a *GT, k *big.Int) *GT {
	if e.p == nil {
		e.p = newGFp12()
	}
	e.p.Exp(a.p, k)
	return e
}

// ScalarMultCyclo sets e = a^k for a in the cyclotomic subgroup — which
// every properly constructed GT element (a pairing value, or any power of
// one) is. It is NOT valid for arbitrary F_p¹² elements smuggled in via
// Unmarshal; such elements only ever arise from malformed input, and every
// protocol-level verifier recomputes pairing equations rather than trusting
// unmarshaled GT arithmetic.
func (e *GT) ScalarMultCyclo(a *GT, k *big.Int) *GT {
	if e.p == nil {
		e.p = newGFp12()
	}
	e.p.cyclotomicExp(a.p, k)
	return e
}

// Add sets e = a·b (the group operation — GT is multiplicative).
func (e *GT) Add(a, b *GT) *GT {
	if e.p == nil {
		e.p = newGFp12()
	}
	e.p.Mul(a.p, b.p)
	return e
}

// Neg sets e = a^(−1). For pairing values the inverse is the conjugate,
// but Neg stays correct for arbitrary GT elements by inverting.
func (e *GT) Neg(a *GT) *GT {
	if e.p == nil {
		e.p = newGFp12()
	}
	e.p.Invert(a.p)
	return e
}

// Set sets e = a and returns e.
func (e *GT) Set(a *GT) *GT {
	if e.p == nil {
		e.p = newGFp12()
	}
	e.p.Set(a.p)
	return e
}

// SetOne sets e to the group identity.
func (e *GT) SetOne() *GT {
	if e.p == nil {
		e.p = newGFp12()
	}
	e.p.SetOne()
	return e
}

// IsOne reports whether e is the group identity.
func (e *GT) IsOne() bool { return e.p.IsOne() }

// Equal reports whether e and a are the same group element.
func (e *GT) Equal(a *GT) bool { return e.p.Equal(a.p) }

// Marshal converts e to a 384-byte slice. It does not modify e and is safe
// for concurrent use on a shared element.
func (e *GT) Marshal() []byte {
	out := make([]byte, GTSize)
	p := e.p
	coeffs := []*gfP{
		&p.x.x.x, &p.x.x.y, &p.x.y.x, &p.x.y.y, &p.x.z.x, &p.x.z.y,
		&p.y.x.x, &p.y.x.y, &p.y.y.x, &p.y.y.y, &p.y.z.x, &p.y.z.y,
	}
	for i, c := range coeffs {
		c.Marshal(out[i*numBytes : (i+1)*numBytes])
	}
	return out
}

// Unmarshal sets e to the element encoded in m.
func (e *GT) Unmarshal(m []byte) (*GT, error) {
	if len(m) != GTSize {
		return nil, ErrMalformedPoint
	}
	if e.p == nil {
		e.p = newGFp12()
	}
	coeffs := []*gfP{
		&e.p.x.x.x, &e.p.x.x.y, &e.p.x.y.x, &e.p.x.y.y, &e.p.x.z.x, &e.p.x.z.y,
		&e.p.y.x.x, &e.p.y.x.y, &e.p.y.y.x, &e.p.y.y.y, &e.p.y.z.x, &e.p.y.z.y,
	}
	for i, c := range coeffs {
		if err := c.Unmarshal(m[i*numBytes : (i+1)*numBytes]); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Pair computes the optimal ate pairing e(g1, g2) ∈ GT.
func Pair(g1 *G1, g2 *G2) *GT {
	return &GT{p: atePairing(g2.p, g1.p)}
}

// Miller applies the Miller loop portion of the pairing without the final
// exponentiation. Miller values may be multiplied together (with GT.Add)
// and finalized once with Finalize, which is how products of pairings are
// evaluated at the cost of a single final exponentiation.
func Miller(g1 *G1, g2 *G2) *GT {
	if g1.p.IsInfinity() || g2.p.IsInfinity() {
		return &GT{p: newGFp12().SetOne()}
	}
	return &GT{p: miller(g2.p, g1.p)}
}

// Finalize performs the final exponentiation on an accumulated Miller
// value, turning it into a proper GT element.
func (e *GT) Finalize() *GT {
	e.p = finalExponentiation(e.p)
	return e
}

// PairingCheck reports whether Π e(g1[i], g2[i]) = 1 using a shared final
// exponentiation. It panics if the slices have different lengths.
func PairingCheck(g1s []*G1, g2s []*G2) bool {
	if len(g1s) != len(g2s) {
		panic("bn256: PairingCheck slice length mismatch")
	}
	acc := newGFp12().SetOne()
	for i := range g1s {
		if g1s[i].p.IsInfinity() || g2s[i].p.IsInfinity() {
			continue
		}
		acc.Mul(acc, miller(g2s[i].p, g1s[i].p))
	}
	return finalExponentiation(acc).IsOne()
}

func allZero(m []byte) bool {
	for _, b := range m {
		if b != 0 {
			return false
		}
	}
	return true
}
