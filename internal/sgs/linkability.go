package sgs

import (
	"math/big"

	"github.com/peace-mesh/peace/internal/bn256"
)

// RecoverSignerToken is the linking attack the current H0 admits, exported
// once so that tests and experiments run the same code. H0 hashes to public
// scalars (a, b) with u = g1^a and v = g1^b, so from T1 = u^α and
// T2 = A·v^α anyone holding (msg, sig) computes the signer's revocation
// token A = T2 · T1^{−b/a} with one G1 exponentiation — a value constant
// across all of a member's signatures, which therefore link for everyone,
// not only for NO. It checks the signature's shape, not its validity.
func RecoverSignerToken(pk *PublicKey, msg []byte, sig *Signature) (*RevocationToken, error) {
	if err := checkSignatureShape(sig); err != nil {
		return nil, err
	}
	a, b := deriveScalars(pk, msg, sig.R, counter{})
	negRatio := mulMod(new(big.Int).ModInverse(a, bn256.Order), b)
	negRatio.Sub(bn256.Order, negRatio)
	tok := new(bn256.G1).ScalarMult(sig.T1, negRatio)
	return &RevocationToken{A: tok.Add(tok, sig.T2)}, nil
}
