package sgs

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"github.com/peace-mesh/peace/internal/bn256"
)

// Signature is the PEACE group signature (r, T1, T2, c, s_α, s_x, s_δ).
// Mode records which generator-derivation policy produced it; flipping the
// mode bit invalidates the challenge check, so it carries no authority.
type Signature struct {
	Mode   GeneratorMode
	R      *big.Int
	T1, T2 *bn256.G1
	C      *big.Int
	SAlpha *big.Int
	SX     *big.Int
	SDelta *big.Int
}

// generators bundles the derived bases: u, v in G1 for the signer and
// their Diffie–Hellman-correlated counterparts û, v̂ in G2 for revocation
// checks (u = ψ(û) in the paper's notation).
type generators struct {
	u, v       *bn256.G1
	uhat, vhat *bn256.G2
}

// hashInput builds an unambiguous (length-prefixed) concatenation.
func hashInput(tag string, parts ...[]byte) []byte {
	out := make([]byte, 0, 64)
	out = append(out, []byte("peace/sgs:")...)
	out = append(out, []byte(tag)...)
	var l [4]byte
	for _, p := range parts {
		binary.BigEndian.PutUint32(l[:], uint32(len(p)))
		out = append(out, l[:]...)
		out = append(out, p...)
	}
	return out
}

// deriveGenerators realizes H0 (the paper's Eq.1): hash to two scalars
// (a, b) and set u = g1^a, v = g1^b, û = g2^a, v̂ = g2^b. Callers that do
// not need the G2 side (the signer) should use deriveG1Generators.
func deriveGenerators(pk *PublicKey, mode GeneratorMode, msg []byte, r *big.Int, ct counter) generators {
	a, b := deriveScalars(pk, mode, msg, r, ct)
	ct.exp(2)
	return generators{
		u:    new(bn256.G1).ScalarBaseMult(a),
		v:    new(bn256.G1).ScalarBaseMult(b),
		uhat: new(bn256.G2).ScalarBaseMult(a),
		vhat: new(bn256.G2).ScalarBaseMult(b),
	}
}

// deriveG1Generators derives only the G1 bases u and v (two
// exponentiations — the two ψ applications of the paper's accounting).
func deriveG1Generators(pk *PublicKey, mode GeneratorMode, msg []byte, r *big.Int, ct counter) (u, v *bn256.G1) {
	a, b := deriveScalars(pk, mode, msg, r, ct)
	ct.exp(2)
	return new(bn256.G1).ScalarBaseMult(a), new(bn256.G1).ScalarBaseMult(b)
}

// deriveG2Generators derives only the G2 bases û and v̂ (needed for
// revocation checks and audits).
func deriveG2Generators(pk *PublicKey, mode GeneratorMode, msg []byte, r *big.Int, ct counter) (uhat, vhat *bn256.G2) {
	a, b := deriveScalars(pk, mode, msg, r, ct)
	ct.exp(2)
	return new(bn256.G2).ScalarBaseMult(a), new(bn256.G2).ScalarBaseMult(b)
}

func deriveScalars(pk *PublicKey, mode GeneratorMode, msg []byte, r *big.Int, ct counter) (a, b *big.Int) {
	ct.hash(1)
	var input []byte
	switch mode {
	case FixedGenerators:
		input = hashInput("h0-fixed", pk.Bytes())
	default:
		input = hashInput("h0", pk.Bytes(), msg, r.Bytes())
	}
	ks := bn256.HashToScalars(input, 2)
	return ks[0], ks[1]
}

// challenge computes c = H(gpk, msg, r, T1, T2, R1, R2, R3) ∈ Z_p.
func challenge(pk *PublicKey, msg []byte, r *big.Int, t1, t2 *bn256.G1, r1 *bn256.G1, r2 *bn256.GT, r3 *bn256.G1) *big.Int {
	input := hashInput("challenge",
		pk.Bytes(), msg, r.Bytes(),
		t1.Marshal(), t2.Marshal(),
		r1.Marshal(), r2.Marshal(), r3.Marshal(),
	)
	return bn256.HashToScalar(input)
}

// Sign produces a group signature on msg under the paper's default
// per-message generator derivation.
func Sign(rng io.Reader, pk *PublicKey, key *PrivateKey, msg []byte) (*Signature, error) {
	sig, _, err := sign(rng, pk, key, msg, PerMessageGenerators, nil)
	return sig, err
}

// SignWithMode is Sign with an explicit generator mode.
func SignWithMode(rng io.Reader, pk *PublicKey, key *PrivateKey, msg []byte, mode GeneratorMode) (*Signature, error) {
	sig, _, err := sign(rng, pk, key, msg, mode, nil)
	return sig, err
}

// SignCounted is Sign that additionally reports the operation counts.
func SignCounted(rng io.Reader, pk *PublicKey, key *PrivateKey, msg []byte) (*Signature, OpCounts, error) {
	var counts OpCounts
	sig, _, err := sign(rng, pk, key, msg, PerMessageGenerators, &counts)
	return sig, counts, err
}

func sign(rng io.Reader, pk *PublicKey, key *PrivateKey, msg []byte, mode GeneratorMode, counts *OpCounts) (*Signature, generators, error) {
	ct := counter{counts}

	// Step 2.2.1: nonce r and base derivation (u, v) ← ψ(H0(...)).
	r, err := bn256.RandomScalar(rng)
	if err != nil {
		return nil, generators{}, fmt.Errorf("sgs: sample r: %w", err)
	}
	u, v := deriveG1Generators(pk, mode, msg, r, ct) // 2 exps

	// Step 2.2.2: linear encryption of A under (u, v).
	alpha, err := bn256.RandomScalar(rng)
	if err != nil {
		return nil, generators{}, fmt.Errorf("sgs: sample α: %w", err)
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
		return nil, generators{}, err
	}
	rX, err := bn256.RandomScalar(rng)
	if err != nil {
		return nil, generators{}, err
	}
	rDelta, err := bn256.RandomScalar(rng)
	if err != nil {
		return nil, generators{}, err
	}

	// Step 2.2.3: helper values.
	// R1 = u^{r_α}.
	r1 := new(bn256.G1).ScalarMult(u, rAlpha) // exp 5
	ct.exp(1)

	// R2 = e(T2, g2)^{r_x} · e(v, w)^{−r_α} · e(v, g2)^{−r_δ}. With
	// T2 = A · v^α the first factor splits into e(A, g2)^{r_x} ·
	// e(v, g2)^{α·r_x}, so (BS04 §6)
	//
	//	R2 = e(A, g2)^{r_x} · e(v, g2^{α·r_x − r_δ} · w^{−r_α}):
	//
	// one exponentiation of the pairing cached on the key plus one live
	// pairing. The paper's accounting (two pairings) charges the cached
	// value as a pairing; see OpCounts.
	negRAlpha := new(big.Int).Sub(bn256.Order, rAlpha)
	negRDelta := new(big.Int).Sub(bn256.Order, rDelta)
	g2Exp := mulMod(alpha, rX)
	g2Exp.Add(g2Exp, negRDelta)
	g2Exp.Mod(g2Exp, bn256.Order)
	combined := pk.wTab().Mul(new(bn256.G2), negRAlpha) // exp 6 (multi-exp)
	combined.Add(combined, new(bn256.G2).ScalarBaseMult(g2Exp))
	ct.exp(1)

	r2 := new(bn256.GT).ScalarMultCyclo(key.pairingAG2(), rX) // cached pairing 1, exp 7
	ct.pairing(1)
	ct.exp(1)
	r2.Add(r2, bn256.Pair(v, combined)) // pairing 2
	ct.pairing(1)

	// R3 = T1^{r_x} · u^{−r_δ} (one multi-exp).
	r3 := new(bn256.G1).ScalarMult(t1, rX) // exp 8 (multi-exp)
	r3.Add(r3, new(bn256.G1).ScalarMult(u, negRDelta))
	ct.exp(1)

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
		Mode:   mode,
		R:      r,
		T1:     t1,
		T2:     t2,
		C:      c,
		SAlpha: sAlpha,
		SX:     sX,
		SDelta: sDelta,
	}
	return sig, generators{u: u, v: v}, nil
}
