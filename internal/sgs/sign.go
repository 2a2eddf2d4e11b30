package sgs

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"github.com/peace-mesh/peace/internal/bn256"
)

// Signature is the PEACE group signature (r, T1, T2, c, s_α, s_x, s_δ).
type Signature struct {
	R      *big.Int
	T1, T2 *bn256.G1
	C      *big.Int
	SAlpha *big.Int
	SX     *big.Int
	SDelta *big.Int
}

// hashInput builds an unambiguous (length-prefixed) concatenation, in one
// allocation.
func hashInput(tag string, parts ...[]byte) []byte {
	n := len("peace/sgs:") + len(tag)
	for _, p := range parts {
		n += 4 + len(p)
	}
	out := make([]byte, 0, n)
	out = append(out, "peace/sgs:"...)
	out = append(out, tag...)
	var l [4]byte
	for _, p := range parts {
		binary.BigEndian.PutUint32(l[:], uint32(len(p)))
		out = append(out, l[:]...)
		out = append(out, p...)
	}
	return out
}

// minBytes returns r.Bytes(), in buf where r fits, so that hashing a
// scalar allocates nothing.
func minBytes(r *big.Int, buf *[scalarBytes]byte) []byte {
	n := (r.BitLen() + 7) / 8
	if n > scalarBytes {
		return r.Bytes()
	}
	return r.FillBytes(buf[:n])
}

// deriveG1Generators derives the G1 bases u = g1^a and v = g1^b of
// deriveScalars (two exponentiations — the two ψ applications of the
// paper's accounting).
func deriveG1Generators(pk *PublicKey, msg []byte, r *big.Int, ct counter) (u, v *bn256.G1) {
	a, b := deriveScalars(pk, msg, r, ct)
	ct.exp(2)
	return new(bn256.G1).ScalarBaseMult(a), new(bn256.G1).ScalarBaseMult(b)
}

// deriveG2Generators derives their counterparts û = g2^a and v̂ = g2^b in
// G2, which revocation checks and audits need (u = ψ(û) in the paper's
// notation).
func deriveG2Generators(pk *PublicKey, msg []byte, r *big.Int, ct counter) (uhat, vhat *bn256.G2) {
	a, b := deriveScalars(pk, msg, r, ct)
	ct.exp(2)
	return new(bn256.G2).ScalarBaseMult(a), new(bn256.G2).ScalarBaseMult(b)
}

// deriveScalars realizes H0 (the paper's Eq.1): a hash of the group key,
// the message and the nonce to the two scalars (a, b) the bases are
// powers of.
func deriveScalars(pk *PublicKey, msg []byte, r *big.Int, ct counter) (a, b *big.Int) {
	ct.hash(1)
	var rb [scalarBytes]byte
	ks := bn256.HashToScalars(hashInput("h0", pk.Bytes(), msg, minBytes(r, &rb)), 2)
	return ks[0], ks[1]
}

// challenge computes c = H(gpk, msg, r, T1, T2, R1, R2, R3) ∈ Z_p.
func challenge(pk *PublicKey, msg []byte, r *big.Int, t1, t2 *bn256.G1, r1 *bn256.G1, r2 *bn256.GT, r3 *bn256.G1) *big.Int {
	var rb [scalarBytes]byte
	input := hashInput("challenge",
		pk.Bytes(), msg, minBytes(r, &rb),
		t1.Marshal(), t2.Marshal(),
		r1.Marshal(), r2.Marshal(), r3.Marshal(),
	)
	return bn256.HashToScalar(input)
}

// Sign produces a group signature on msg, its bases derived per message
// (the paper's Eq.1).
func Sign(rng io.Reader, pk *PublicKey, key *PrivateKey, msg []byte) (*Signature, error) {
	return sign(rng, pk, key, msg, nil)
}

// SignCounted is Sign that additionally reports the operation counts.
func SignCounted(rng io.Reader, pk *PublicKey, key *PrivateKey, msg []byte) (*Signature, OpCounts, error) {
	var counts OpCounts
	sig, err := sign(rng, pk, key, msg, &counts)
	return sig, counts, err
}

func sign(rng io.Reader, pk *PublicKey, key *PrivateKey, msg []byte, counts *OpCounts) (*Signature, error) {
	ct := counter{counts}

	// Step 2.2.1: nonce r and base derivation (u, v) ← ψ(H0(...)).
	r, err := bn256.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("sgs: sample r: %w", err)
	}
	u, v := deriveG1Generators(pk, msg, r, ct) // 2 exps

	// Step 2.2.2: linear encryption of A under (u, v).
	alpha, err := bn256.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("sgs: sample α: %w", err)
	}
	t1 := new(bn256.G1).ScalarMult(u, alpha) // exp 3
	ct.exp(1)
	t2 := new(bn256.G1).ScalarMult(v, alpha) // exp 4
	t2.Add(t2, key.A)
	ct.exp(1)

	grpX := new(big.Int).Add(key.Grp, key.X)
	grpX.Mod(grpX, bn256.Order)
	delta := new(big.Int).Mul(grpX, alpha)
	delta.Mod(delta, bn256.Order)

	rAlpha, err := bn256.RandomScalar(rng)
	if err != nil {
		return nil, err
	}
	rX, err := bn256.RandomScalar(rng)
	if err != nil {
		return nil, err
	}
	rDelta, err := bn256.RandomScalar(rng)
	if err != nil {
		return nil, err
	}

	// Step 2.2.3: helper values. R1 = u^{r_α}.
	r1 := new(bn256.G1).ScalarMult(u, rAlpha) // exp 5
	ct.exp(1)

	// R2 and R3 by bilinearity. With T2 = A·v^α and s = α·r_x − r_δ,
	//
	//	R2 = e(T2, g2)^{r_x} · e(v, w)^{−r_α} · e(v, g2)^{−r_δ}
	//	   = e(A^{r_x} · v^{s}, g2) · e(v^{−r_α}, w)
	//	R3 = T1^{r_x} · u^{−r_δ} = u^{s}
	//
	// so R2 is the Verifier's own R̃2 shape: two Miller loops over the
	// key's prepared g2 and w lines sharing a squaring chain, and one final
	// exponentiation — no GT or G2 exponentiation (see OpCounts).
	s := mulMod(alpha, rX)
	s.Sub(s, rDelta)
	s.Mod(s, bn256.Order)
	r3 := new(bn256.G1).ScalarMult(u, s) // exp 6
	ct.exp(1)
	a := new(bn256.G1).MultiScalarMult([]*bn256.G1{key.A, v}, []*big.Int{rX, s}) // exp 7
	ct.exp(1)
	b := new(bn256.G1).ScalarMult(v, new(big.Int).Sub(bn256.Order, rAlpha)) // exp 8
	ct.exp(1)

	// One inversion brings every point the pairing and the challenge hash
	// read to affine form.
	bn256.NormalizeG1(t1, t2, r1, r3, a, b)
	r2 := bn256.MillerCombined(pk.pairingLines(), []*bn256.G1{a, b}).Finalize()
	ct.pairing(2)

	// Step 2.2.4: challenge and responses.
	ct.hash(1)
	c := challenge(pk, msg, r, t1, t2, r1, r2, r3)

	sAlpha := new(big.Int).Mul(c, alpha)
	sAlpha.Add(sAlpha, rAlpha)
	sAlpha.Mod(sAlpha, bn256.Order)

	sX := new(big.Int).Mul(c, grpX)
	sX.Add(sX, rX)
	sX.Mod(sX, bn256.Order)

	sDelta := new(big.Int).Mul(c, delta)
	sDelta.Add(sDelta, rDelta)
	sDelta.Mod(sDelta, bn256.Order)

	sig := &Signature{
		R:      r,
		T1:     t1,
		T2:     t2,
		C:      c,
		SAlpha: sAlpha,
		SX:     sX,
		SDelta: sDelta,
	}
	return sig, nil
}
