package sgs

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"github.com/peace-mesh/peace/internal/bn256"
)

// Exported errors.
var (
	ErrInvalidSignature = errors.New("sgs: invalid signature")
	ErrRevoked          = errors.New("sgs: signer has been revoked")
	ErrBadKey           = errors.New("sgs: private key fails the SDH equation")
)

// PublicKey is the group public key gpk = (g1, g2, w). The generators g1
// and g2 are the canonical bn256 generators; only w = g2^γ varies.
type PublicKey struct {
	W *bn256.G2

	// egg is the cached pairing e(g1, g2), used on every verification.
	egg *bn256.GT

	// enc is the canonical encoding of W, cached at construction so that
	// the hashing hot paths never re-marshal (Marshal normalizes the point
	// in place, which would race under concurrent verification).
	enc []byte

	// ver is the key's own Verifier, behind the free functions Verify and
	// VerifyWithRevocation, so that a call builds no Verifier of its own.
	verOnce sync.Once
	ver     *Verifier

	// lines are the prepared Miller lines of g2 and W, built on first use
	// and shared by the signer's R2 and the Verifier's R̃2: both are a
	// product e(·, g2)·e(·, W).
	linesOnce sync.Once
	lines     []*bn256.PreparedG2
}

// NewPublicKey wraps w = g2^γ into a usable public key.
func NewPublicKey(w *bn256.G2) *PublicKey {
	pk := &PublicKey{W: new(bn256.G2).Set(w)}
	pk.egg = new(bn256.GT).Base()
	pk.enc = pk.W.Marshal()
	return pk
}

// Bytes returns a canonical encoding of the public key for hashing. The
// returned slice is shared; callers must not modify it.
func (pk *PublicKey) Bytes() []byte {
	return pk.enc
}

// verifier returns the key's own Verifier, creating it on first use.
func (pk *PublicKey) verifier() *Verifier {
	pk.verOnce.Do(func() { pk.ver = NewVerifier(pk) })
	return pk.ver
}

// g2Lines are the prepared lines of g2, the same for every key, in scalar
// and in lane form.
var g2Lines = sync.OnceValue(func() *bn256.PreparedG2 { return bn256.PrepareG2(new(bn256.G2).Base()).WithLanes() })

// pairingLines returns the prepared lines of (g2, W), building them on first
// use: in scalar form for Sign and a lone verification, and in lane form
// beside it for the verifier's lane pass. The slice and its elements are
// shared and must not be modified.
func (pk *PublicKey) pairingLines() []*bn256.PreparedG2 {
	pk.linesOnce.Do(func() {
		pk.lines = []*bn256.PreparedG2{g2Lines(), bn256.PrepareG2(pk.W).WithLanes()}
	})
	return pk.lines
}

// EGG returns the cached pairing e(g1, g2).
func (pk *PublicKey) EGG() *bn256.GT {
	return new(bn256.GT).Set(pk.egg)
}

// PrivateKey is a group member's key gsk[i,j] = (A_{i,j}, grp_i, x_j).
type PrivateKey struct {
	A   *bn256.G1
	Grp *big.Int
	X   *big.Int
}

// Clone returns an independent copy of the key material (A, grp, x).
func (k *PrivateKey) Clone() *PrivateKey {
	return &PrivateKey{
		A:   new(bn256.G1).Set(k.A),
		Grp: new(big.Int).Set(k.Grp),
		X:   new(big.Int).Set(k.X),
	}
}

// Token returns the revocation token grt[i,j] = A_{i,j} for this key.
func (k *PrivateKey) Token() *RevocationToken {
	return &RevocationToken{A: new(bn256.G1).Set(k.A)}
}

// RevocationToken identifies a private key for revocation and audit
// purposes: the A component of the SDH tuple.
type RevocationToken struct {
	A *bn256.G1
}

// Bytes returns the canonical encoding of the token.
func (t *RevocationToken) Bytes() []byte { return t.A.Marshal() }

// Equal reports whether two tokens identify the same key.
func (t *RevocationToken) Equal(o *RevocationToken) bool { return t.A.Equal(o.A) }

// Issuer holds the issuing secret γ. In PEACE the network operator plays
// this role.
type Issuer struct {
	gamma *big.Int
	pub   *PublicKey
}

// NewIssuer generates a fresh γ and the corresponding group public key.
func NewIssuer(rng io.Reader) (*Issuer, error) {
	gamma, err := bn256.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("sgs: sample γ: %w", err)
	}
	w := new(bn256.G2).ScalarBaseMult(gamma)
	return &Issuer{gamma: gamma, pub: NewPublicKey(w)}, nil
}

// PublicKey returns the group public key gpk.
func (iss *Issuer) PublicKey() *PublicKey { return iss.pub }

// NewGroupComponent samples a fresh group component grp_i for a user group.
func (iss *Issuer) NewGroupComponent(rng io.Reader) (*big.Int, error) {
	return bn256.RandomScalar(rng)
}

// IssueKey generates an SDH tuple (A, grp, x) for the given group
// component: x is sampled so that γ + grp + x ≠ 0 and
// A = g1^{1/(γ+grp+x)}.
func (iss *Issuer) IssueKey(rng io.Reader, grp *big.Int) (*PrivateKey, error) {
	for {
		x, err := bn256.RandomScalar(rng)
		if err != nil {
			return nil, fmt.Errorf("sgs: sample x: %w", err)
		}
		exp := new(big.Int).Add(iss.gamma, grp)
		exp.Add(exp, x)
		exp.Mod(exp, bn256.Order)
		if exp.Sign() == 0 {
			continue
		}
		exp.ModInverse(exp, bn256.Order)
		a := new(bn256.G1).ScalarBaseMult(exp)
		return &PrivateKey{A: a, Grp: new(big.Int).Set(grp), X: x}, nil
	}
}

// IssueBatch issues count keys under the same group component.
func (iss *Issuer) IssueBatch(rng io.Reader, grp *big.Int, count int) ([]*PrivateKey, error) {
	keys := make([]*PrivateKey, 0, count)
	for i := 0; i < count; i++ {
		k, err := iss.IssueKey(rng, grp)
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// CheckKey verifies the SDH equation e(A, w·g2^{grp+x}) = e(g1, g2),
// i.e. that the private key is a well-formed member key for pk.
func CheckKey(pk *PublicKey, key *PrivateKey) error {
	s := new(big.Int).Add(key.Grp, key.X)
	s.Mod(s, bn256.Order)
	rhs := new(bn256.G2).ScalarBaseMult(s)
	rhs.Add(rhs, pk.W)
	got := bn256.Pair(key.A, rhs)
	if !got.Equal(pk.egg) {
		return ErrBadKey
	}
	return nil
}
