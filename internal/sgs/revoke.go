package sgs

import (
	"fmt"
	"sync"

	"github.com/peace-mesh/peace/internal/bn256"
)

// IsRevoked scans the token list and reports whether the signer of sig is
// one of the listed (revoked) keys, and if so at which index. It implements
// the paper's Eq.3: token A matches iff e(T2/A, û) = e(T1, v̂). The scan
// itself is scan (scan.go): what is shared across the list is computed once
// per signature, and each token then costs one Miller loop and one final
// exponentiation, or an eighth of a lane-parallel pass (the paper charges
// two pairings per token).
func IsRevoked(pk *PublicKey, msg []byte, sig *Signature, tokens []*RevocationToken) (bool, int) {
	revoked, idx, _ := isRevoked(pk, msg, sig, tokens, nil)
	return revoked, idx
}

// IsRevokedCounted is IsRevoked with operation counts.
func IsRevokedCounted(pk *PublicKey, msg []byte, sig *Signature, tokens []*RevocationToken) (bool, int, OpCounts) {
	return isRevoked(pk, msg, sig, tokens, nil)
}

func isRevoked(pk *PublicKey, msg []byte, sig *Signature, tokens []*RevocationToken, counts *OpCounts) (bool, int, OpCounts) {
	var local OpCounts
	if counts == nil {
		counts = &local
	}
	ct := counter{counts}
	if len(tokens) == 0 {
		return false, -1, *counts
	}

	uhat, vhat := deriveG2Generators(pk, sig.Mode, msg, sig.R, ct)
	idx := scanBases(sig, uhat, vhat, tokens, ct)
	return idx >= 0, idx, *counts
}

// FastRevocationChecker implements the constant-pairings-per-signature
// revocation test the paper cites from BS04 §6: with generators fixed
// per group (FixedGenerators mode), e(T2, û)/e(T1, v̂) = e(A, û) for the
// signer's token A, so revocation reduces to two pairings and a hash-table
// lookup regardless of |URL|. The privacy cost is that all signatures share
// bases, which is exactly the trade-off the paper acknowledges.
type FastRevocationChecker struct {
	pk       *PublicKey
	uhatPrep *bn256.PreparedG2
	vhatPrep *bn256.PreparedG2

	mu    sync.RWMutex
	index map[string]int // marshaled e(A, û) → token index
	size  int
}

// NewFastRevocationChecker precomputes the lookup table for the given
// tokens (one pairing per token, paid once).
func NewFastRevocationChecker(pk *PublicKey, tokens []*RevocationToken) *FastRevocationChecker {
	return newFastRevocationChecker(pk, newTokenSet(tokens))
}

func newFastRevocationChecker(pk *PublicKey, set tokenSet) *FastRevocationChecker {
	uhat, vhat := deriveG2Generators(pk, FixedGenerators, nil, nil, counter{})
	f := &FastRevocationChecker{
		pk:       pk,
		uhatPrep: bn256.PrepareG2(uhat),
		vhatPrep: bn256.PrepareG2(vhat),
		index:    make(map[string]int, len(set.tokens)),
	}
	if set.lanes == nil {
		for _, tok := range set.tokens {
			f.AddToken(tok)
		}
		return f
	}
	for chunk := 0; chunk < set.lanes.Chunks(); chunk++ {
		for _, v := range f.uhatPrep.PairLanes(set.lanes, chunk, nil) {
			f.add(v)
		}
	}
	return f
}

// AddToken registers an additional revoked token. It is safe to call
// concurrently with IsRevoked.
func (f *FastRevocationChecker) AddToken(tok *RevocationToken) {
	f.add(f.uhatPrep.Pair(tok.A))
}

// add indexes e(A, û) for the next token.
func (f *FastRevocationChecker) add(v *bn256.GT) {
	key := string(v.Marshal())
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.index[key]; !dup {
		f.index[key] = f.size
		f.size++
	}
}

// Len returns the number of registered tokens.
func (f *FastRevocationChecker) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.index)
}

// IsRevoked tests a FixedGenerators signature against the token table.
func (f *FastRevocationChecker) IsRevoked(sig *Signature) (bool, int, error) {
	revoked, idx, _, err := f.isRevoked(sig, nil)
	return revoked, idx, err
}

// IsRevokedCounted is IsRevoked with operation counts.
func (f *FastRevocationChecker) IsRevokedCounted(sig *Signature) (bool, int, OpCounts, error) {
	return f.isRevoked(sig, nil)
}

func (f *FastRevocationChecker) isRevoked(sig *Signature, counts *OpCounts) (bool, int, OpCounts, error) {
	var local OpCounts
	if counts == nil {
		counts = &local
	}
	ct := counter{counts}

	if sig.Mode != FixedGenerators {
		return false, -1, *counts, fmt.Errorf("sgs: fast revocation requires FixedGenerators signatures, got %v", sig.Mode)
	}

	// ratio = e(T2, û) · e(T1, v̂)^(−1), via prepared line coefficients and
	// a shared final exponentiation.
	t1Neg := new(bn256.G1).Neg(sig.T1)
	acc := f.uhatPrep.Miller(sig.T2)
	acc.Add(acc, f.vhatPrep.Miller(t1Neg))
	ct.pairing(2)
	ratio := acc.Finalize()

	key := string(ratio.Marshal())
	f.mu.RLock()
	defer f.mu.RUnlock()
	if idx, ok := f.index[key]; ok {
		return true, idx, *counts, nil
	}
	return false, -1, *counts, nil
}
