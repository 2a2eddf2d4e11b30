package sgs

import (
	"fmt"
	"math/big"

	"github.com/peace-mesh/peace/internal/bn256"
)

// eq2Counts is what one verification (paper Step 3.2 / Eq.2) costs in the
// paper's accounting (Section V.C): 6 exponentiations and 3 pairings, the
// third being the cached e(g1, g2) and therefore charged as a GT
// exponentiation, plus the challenge hash. The counted functions below
// charge it whichever way the Verifier actually computed the equation, the
// way scan's callers charge Eq.3.
var eq2Counts = OpCounts{Exps: 6, Pairings: 2, GTExps: 1, Hashes: 1}

// Verify checks that sig is a valid group signature on msg under pk
// (paper Step 3.2 / Eq.2) on the key's own Verifier. It does not perform
// revocation checking; see VerifyWithRevocation.
func Verify(pk *PublicKey, msg []byte, sig *Signature) error {
	return pk.verifier().Verify(msg, sig)
}

// VerifyCounted is Verify that additionally reports operation counts:
// eq2Counts for any well-formed signature, nothing for a misshapen one.
func VerifyCounted(pk *PublicKey, msg []byte, sig *Signature) (OpCounts, error) {
	if err := checkSignatureShape(sig); err != nil {
		return OpCounts{}, err
	}
	return eq2Counts, Verify(pk, msg, sig)
}

// VerifyWithRevocation checks the signature and then scans the revocation
// list (paper Step 3.3 / Eq.3), returning ErrRevoked if the signer's token
// appears in url.
func VerifyWithRevocation(pk *PublicKey, msg []byte, sig *Signature, url []*RevocationToken) error {
	_, err := VerifyWithRevocationCounted(pk, msg, sig, url)
	return err
}

// VerifyWithRevocationCounted is VerifyWithRevocation with op counts: the
// verification's eq2Counts, then the sweep charged as IsRevokedCounted
// charges it — two exponentiations for û and v̂, two pairings for every
// token up to and including the match.
func VerifyWithRevocationCounted(pk *PublicKey, msg []byte, sig *Signature, url []*RevocationToken) (OpCounts, error) {
	counts, err := VerifyCounted(pk, msg, sig)
	if err != nil || len(url) == 0 {
		return counts, err
	}
	revoked, idx := pk.verifier().SweepURL(msg, sig, url)
	counts.Exps += 2
	counts.Pairings += scanPairings(idx, len(url))
	if revoked {
		return counts, ErrRevoked
	}
	return counts, nil
}

func checkSignatureShape(sig *Signature) error {
	if sig == nil || sig.R == nil || sig.T1 == nil || sig.T2 == nil ||
		sig.C == nil || sig.SAlpha == nil || sig.SX == nil || sig.SDelta == nil {
		return fmt.Errorf("%w: missing components", ErrInvalidSignature)
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
