package sgs

// IsRevoked scans the token list and reports whether the signer of sig is
// one of the listed (revoked) keys, and if so at which index. A
// malformed signature (a nil or out-of-range component) matches no
// token. It implements
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
	// A malformed signature names nobody: it is a miss, checked before
	// anything reads its components.
	if len(tokens) == 0 || checkSignatureShape(sig) != nil {
		return false, -1, *counts
	}

	uhat, vhat := deriveG2Generators(pk, msg, sig.R, ct)
	idx := scanBases(sig, uhat, vhat, tokens, ct)
	return idx >= 0, idx, *counts
}
