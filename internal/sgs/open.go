package sgs

// Open identifies which key produced a valid signature by scanning the
// full revocation-token set grt (the paper's audit protocol, Section IV.D):
// it returns the index of the first token A with e(T2/A, û) = e(T1, v̂),
// or -1 if no token matches (e.g. the signer is not enrolled in grt).
//
// In PEACE only the network operator holds grt, and the returned token
// maps to a user *group*, not a user — that mapping lives in the core
// layer's NetworkOperator.
func Open(pk *PublicKey, msg []byte, sig *Signature, grt []*RevocationToken) int {
	idx, _ := OpenCounted(pk, msg, sig, grt)
	return idx
}

// OpenCounted is Open with operation counts.
func OpenCounted(pk *PublicKey, msg []byte, sig *Signature, grt []*RevocationToken) (int, OpCounts) {
	var counts OpCounts
	found, idx, _ := isRevoked(pk, msg, sig, grt, &counts)
	if !found {
		return -1, counts
	}
	return idx, counts
}

// TraceSigner confirms whether a specific token produced the signature,
// without scanning: a single Eq.3 test. It is used in dispute resolution
// when a candidate signer is already suspected.
func TraceSigner(pk *PublicKey, msg []byte, sig *Signature, tok *RevocationToken) bool {
	found, _ := IsRevoked(pk, msg, sig, []*RevocationToken{tok})
	return found
}

// SignerMatchesKey reports whether sig was produced by the given private
// key (used by tests and by the non-frameability analysis harness).
func SignerMatchesKey(pk *PublicKey, msg []byte, sig *Signature, key *PrivateKey) bool {
	return TraceSigner(pk, msg, sig, key.Token())
}
