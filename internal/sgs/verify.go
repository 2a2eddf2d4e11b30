package sgs

import (
	"fmt"
	"math/big"

	"github.com/peace-mesh/peace/internal/bn256"
)

// Verify checks that sig is a valid group signature on msg under pk
// (paper Step 3.2 / Eq.2). It does not perform revocation checking; see
// VerifyWithRevocation.
func Verify(pk *PublicKey, msg []byte, sig *Signature) error {
	return verify(pk, msg, sig, nil)
}

// VerifyCounted is Verify that additionally reports operation counts.
func VerifyCounted(pk *PublicKey, msg []byte, sig *Signature) (OpCounts, error) {
	var counts OpCounts
	err := verify(pk, msg, sig, &counts)
	return counts, err
}

// VerifyWithRevocation checks the signature and then scans the revocation
// list (paper Step 3.3 / Eq.3), returning ErrRevoked if the signer's token
// appears in url. The H0 scalars are derived once and shared between the
// verification bases (u, v) and the revocation bases (û, v̂).
func VerifyWithRevocation(pk *PublicKey, msg []byte, sig *Signature, url []*RevocationToken) error {
	return verifyWithRevocation(pk, msg, sig, url, nil)
}

// VerifyWithRevocationCounted is VerifyWithRevocation with op counts.
func VerifyWithRevocationCounted(pk *PublicKey, msg []byte, sig *Signature, url []*RevocationToken) (OpCounts, error) {
	var counts OpCounts
	err := verifyWithRevocation(pk, msg, sig, url, &counts)
	return counts, err
}

func verifyWithRevocation(pk *PublicKey, msg []byte, sig *Signature, url []*RevocationToken, counts *OpCounts) error {
	ct := counter{counts}
	if err := checkSignatureShape(sig); err != nil {
		return err
	}

	// One H0 evaluation covers both the G1 and the G2 bases; the four
	// exponentiations (two ψ applications plus û, v̂) remain.
	a, b := deriveScalars(pk, sig.Mode, msg, sig.R, ct)
	u := new(bn256.G1).ScalarBaseMult(a)
	v := new(bn256.G1).ScalarBaseMult(b)
	ct.exp(2)
	if err := verifyWithBases(pk, msg, sig, u, v, ct); err != nil {
		return err
	}
	if len(url) == 0 {
		return nil
	}
	uhat := new(bn256.G2).ScalarBaseMult(a)
	vhat := new(bn256.G2).ScalarBaseMult(b)
	ct.exp(2)
	if scanBases(sig, uhat, vhat, url, ct) >= 0 {
		return ErrRevoked
	}
	return nil
}

func verify(pk *PublicKey, msg []byte, sig *Signature, counts *OpCounts) error {
	ct := counter{counts}

	if err := checkSignatureShape(sig); err != nil {
		return err
	}

	// Step 3.2.1: recompute the bases.
	u, v := deriveG1Generators(pk, sig.Mode, msg, sig.R, ct) // 2 exps
	return verifyWithBases(pk, msg, sig, u, v, ct)
}

// verifyWithBases runs the challenge check of Eq.2 against pre-derived
// bases (u, v). Callers are responsible for checkSignatureShape.
func verifyWithBases(pk *PublicKey, msg []byte, sig *Signature, u, v *bn256.G1, ct counter) error {
	// checkSignatureShape guarantees 0 ≤ c < Order, so a single reduction
	// of the negation suffices (c = 0 wraps to Order).
	negC := new(big.Int).Sub(bn256.Order, sig.C)
	negC.Mod(negC, bn256.Order)

	// Step 3.2.2: recover the helper values.
	// R̃1 = u^{s_α} · T1^{−c} (one multi-exp).
	r1 := new(bn256.G1).ScalarMult(u, sig.SAlpha)
	r1.Add(r1, new(bn256.G1).ScalarMult(sig.T1, negC))
	ct.exp(1)

	// R̃3 = T1^{s_x} · u^{−s_δ} (one multi-exp).
	negSDelta := new(big.Int).Sub(bn256.Order, sig.SDelta)
	r3 := new(bn256.G1).ScalarMult(sig.T1, sig.SX)
	r3.Add(r3, new(bn256.G1).ScalarMult(u, negSDelta))
	ct.exp(1)

	// R̃2 = e(T2, g2^{s_x} · w^c) · e(v, w^{−s_α} · g2^{−s_δ}) · e(g1,g2)^{−c}.
	// Two live pairings sharing one final exponentiation, plus the cached
	// e(g1, g2) — the paper's accounting charges the cached value as the
	// third pairing. Powers of w go through the public key's window table.
	rhs1 := new(bn256.G2).ScalarBaseMult(sig.SX)
	rhs1.Add(rhs1, pk.wTab().Mul(new(bn256.G2), sig.C))
	ct.exp(1)

	negSAlpha := new(big.Int).Sub(bn256.Order, sig.SAlpha)
	rhs2 := pk.wTab().Mul(new(bn256.G2), negSAlpha)
	rhs2.Add(rhs2, new(bn256.G2).ScalarBaseMult(negSDelta))
	ct.exp(1)

	acc := bn256.Miller(sig.T2, rhs1)
	ct.pairing(1)
	acc.Add(acc, bn256.Miller(v, rhs2))
	ct.pairing(1)
	r2 := acc.Finalize()
	// egg is a cached pairing value, so it lives in the cyclotomic subgroup
	// and the cheaper Granger–Scott exponentiation applies.
	eggNegC := new(bn256.GT).ScalarMultCyclo(pk.egg, negC)
	ct.gtExp(1)
	r2.Add(r2, eggNegC)

	// Step 3.2.3: challenge equation (Eq.2).
	ct.hash(1)
	c := challenge(pk, msg, sig.R, sig.T1, sig.T2, r1, r2, r3)
	if c.Cmp(sig.C) != 0 {
		return ErrInvalidSignature
	}
	return nil
}

func checkSignatureShape(sig *Signature) error {
	if sig == nil || sig.R == nil || sig.T1 == nil || sig.T2 == nil ||
		sig.C == nil || sig.SAlpha == nil || sig.SX == nil || sig.SDelta == nil {
		return fmt.Errorf("%w: missing components", ErrInvalidSignature)
	}
	if sig.Mode != PerMessageGenerators && sig.Mode != FixedGenerators {
		return fmt.Errorf("%w: unknown generator mode", ErrInvalidSignature)
	}
	if sig.T1.IsInfinity() || sig.T2.IsInfinity() {
		return fmt.Errorf("%w: degenerate T1/T2", ErrInvalidSignature)
	}
	for _, s := range []*big.Int{sig.R, sig.C, sig.SAlpha, sig.SX, sig.SDelta} {
		if s.Sign() < 0 || s.Cmp(bn256.Order) >= 0 {
			return fmt.Errorf("%w: scalar out of range", ErrInvalidSignature)
		}
	}
	return nil
}
