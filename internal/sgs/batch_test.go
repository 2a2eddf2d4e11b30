package sgs

import (
	"crypto/rand"
	"errors"
	"math/big"
	"strings"
	"testing"

	"github.com/peace-mesh/peace/internal/bn256"
)

// TestVerifierMatchesVerify checks that the Verifier accepts and rejects
// exactly what the reference verifier does.
func TestVerifierMatchesVerify(t *testing.T) {
	s := newTestSetup(t, 1)
	ver := NewVerifier(s.pk)
	msg := []byte("batch equivalence")

	sig, err := Sign(rand.Reader, s.pk, s.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ver.Verify(msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if err := ver.Verify([]byte("other message"), sig); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("wrong message accepted: %v", err)
	}

	// Tamper with each component; both verifiers must agree.
	tampered := *sig
	tampered.SAlpha = new(big.Int).Add(sig.SAlpha, big.NewInt(1))
	tampered.SAlpha.Mod(tampered.SAlpha, bn256.Order)
	if verifyReference(s.pk, msg, &tampered) == nil || ver.Verify(msg, &tampered) == nil {
		t.Fatal("tampered s_α accepted")
	}
	tampered = *sig
	tampered.T2 = new(bn256.G1).Add(sig.T2, new(bn256.G1).Base())
	if verifyReference(s.pk, msg, &tampered) == nil || ver.Verify(msg, &tampered) == nil {
		t.Fatal("tampered T2 accepted")
	}
}

// TestVerifierOpCounts pins the accounting of the rearranged equation:
// 4 multi-exponentiations and 2 pairings, no GT exponentiation.
func TestVerifierOpCounts(t *testing.T) {
	s := newTestSetup(t, 1)
	ver := NewVerifier(s.pk)
	msg := []byte("op counts")

	sig, err := Sign(rand.Reader, s.pk, s.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := ver.VerifyCounted(msg, sig)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Exps != 4 || counts.Pairings != 2 || counts.GTExps != 0 {
		t.Fatalf("per-message path: got %+v, want Exps=4 Pairings=2 GTExps=0", counts)
	}
	if counts.Hashes != 2 {
		t.Fatalf("per-message path: got %d hashes, want 2 (H0 + challenge)", counts.Hashes)
	}
}

// TestBatchVerifyAttributesBadSignature plants one invalid signature in a
// batch and checks that exactly that slot errors.
func TestBatchVerifyAttributesBadSignature(t *testing.T) {
	s := newTestSetup(t, 2)
	ver := NewVerifier(s.pk)

	const n = 6
	const badIdx = 3
	items := make([]BatchItem, n)
	for i := range items {
		msg := []byte{byte('a' + i)}
		sig, err := Sign(rand.Reader, s.pk, s.keys[i%2], msg)
		if err != nil {
			t.Fatal(err)
		}
		if i == badIdx {
			sig.SX = new(big.Int).Add(sig.SX, big.NewInt(1))
			sig.SX.Mod(sig.SX, bn256.Order)
		}
		items[i] = BatchItem{Msg: msg, Sig: sig}
	}

	errs := ver.BatchVerify(items)
	if len(errs) != n {
		t.Fatalf("got %d error slots, want %d", len(errs), n)
	}
	for i, err := range errs {
		if i == badIdx {
			if !errors.Is(err, ErrInvalidSignature) {
				t.Fatalf("bad slot %d: got %v, want ErrInvalidSignature", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("good slot %d rejected: %v", i, err)
		}
	}

	// Aggregate counts: n signatures at 4 exps / 2 pairings each.
	errs, counts := ver.batchVerifyCounted(items)
	if len(errs) != n {
		t.Fatalf("counted batch: %d slots", len(errs))
	}
	if counts.Exps != 4*n || counts.Pairings != 2*n {
		t.Fatalf("aggregate counts %+v, want Exps=%d Pairings=%d", counts, 4*n, 2*n)
	}

	// Degenerate inputs: empty batch and nil signature.
	if out := ver.BatchVerify(nil); len(out) != 0 {
		t.Fatal("empty batch should return no slots")
	}
	out := ver.BatchVerify([]BatchItem{{Msg: []byte("x"), Sig: nil}})
	if !errors.Is(out[0], ErrInvalidSignature) {
		t.Fatalf("nil signature: got %v", out[0])
	}
}

// TestSweepURLMatchesIsRevoked cross-checks the Verifier's sweep against
// IsRevoked for hits, misses and the smallest-index guarantee at pinned
// worker counts.
func TestSweepURLMatchesIsRevoked(t *testing.T) {
	s := newTestSetup(t, 5)
	ver := NewVerifier(s.pk)

	msg := []byte("sweep per-message")
	sig, err := Sign(rand.Reader, s.pk, s.keys[2], msg)
	if err != nil {
		t.Fatal(err)
	}

	// Token list with the signer listed twice: the sweep must report the
	// smallest matching index however many workers share it.
	tokens := []*RevocationToken{
		s.keys[0].Token(),
		s.keys[2].Token(),
		s.keys[1].Token(),
		s.keys[2].Token(),
		s.keys[3].Token(),
	}
	wantRev, wantIdx := IsRevoked(s.pk, msg, sig, tokens)
	if !wantRev || wantIdx != 1 {
		t.Fatalf("reference scan got (%v,%d)", wantRev, wantIdx)
	}
	for _, workers := range []int{1, 2, 4, 16} {
		rev, idx := ver.sweepURLWorkers(msg, sig, tokens, workers)
		if rev != wantRev || idx != wantIdx {
			t.Fatalf("workers=%d: got (%v,%d), want (%v,%d)", workers, rev, idx, wantRev, wantIdx)
		}
	}

	// A non-revoked signer misses everywhere.
	clean := tokens[:1]
	if rev, idx := ver.SweepURL(msg, sig, clean); rev || idx != -1 {
		t.Fatalf("clean sweep got (%v,%d)", rev, idx)
	}
	if rev, idx := ver.SweepURL(msg, sig, nil); rev || idx != -1 {
		t.Fatalf("empty sweep got (%v,%d)", rev, idx)
	}
}

// TestBatchCheckKeys exercises the small-exponent batch SDH check.
func TestBatchCheckKeys(t *testing.T) {
	s := newTestSetup(t, 4)

	if err := BatchCheckKeys(rand.Reader, s.pk, s.keys); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if err := BatchCheckKeys(rand.Reader, s.pk, nil); err != nil {
		t.Fatalf("empty batch rejected: %v", err)
	}

	// Corrupt one key: the batch must fail and attribute the index.
	bad := &PrivateKey{
		A:   new(bn256.G1).Set(s.keys[2].A),
		Grp: new(big.Int).Set(s.keys[2].Grp),
		X:   new(big.Int).Add(s.keys[2].X, big.NewInt(1)),
	}
	keys := []*PrivateKey{s.keys[0], s.keys[1], bad, s.keys[3]}
	err := BatchCheckKeys(rand.Reader, s.pk, keys)
	if !errors.Is(err, ErrBadKey) {
		t.Fatalf("bad batch: got %v, want ErrBadKey", err)
	}
	if !strings.Contains(err.Error(), "key 2") {
		t.Fatalf("bad batch error does not attribute index 2: %v", err)
	}
}

// TestParseRejectsOffCurvePoints checks the unmarshal hardening: encodings
// whose points are off the curve (or degenerate) must not produce usable
// signatures or keys.
func TestParseRejectsOffCurvePoints(t *testing.T) {
	s := newTestSetup(t, 1)
	sig, err := Sign(rand.Reader, s.pk, s.keys[0], []byte("m"))
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the y coordinate of T1 inside the canonical encoding: the
	// point leaves the curve and ParseSignature must reject it.
	raw := sig.Bytes()
	t1Off := 1 + scalarBytes // leading byte + r
	raw[t1Off+bn256.G1Size-1] ^= 0x01
	if _, err := ParseSignature(raw); err == nil {
		t.Fatal("off-curve T1 accepted")
	}
	raw = sig.Bytes()
	t2Off := t1Off + bn256.G1Size
	raw[t2Off+bn256.G1Size-1] ^= 0x01
	if _, err := ParseSignature(raw); err == nil {
		t.Fatal("off-curve T2 accepted")
	}

	// Same for the compressed form: a mangled x coordinate either leaves
	// the curve or changes the point, so parsing must fail or the
	// signature must no longer verify.
	compact := sig.CompactBytes()
	compact[t1Off+3] ^= 0xFF
	if parsed, err := ParseCompactSignature(compact); err == nil {
		if Verify(s.pk, []byte("m"), parsed) == nil {
			t.Fatal("mangled compressed T1 still verifies")
		}
	}

	// Public keys: off-curve and identity w encodings are rejected.
	wRaw := PublicKeyBytes(s.pk)
	wRaw[len(wRaw)-1] ^= 0x01
	if _, err := ParsePublicKey(wRaw); err == nil {
		t.Fatal("off-curve public key accepted")
	}
	if _, err := ParsePublicKey(make([]byte, bn256.G2Size)); err == nil {
		t.Fatal("identity public key accepted")
	}

	// Private keys: off-curve A encodings are rejected.
	kRaw := PrivateKeyBytes(s.keys[0])
	kRaw[bn256.G1Size-1] ^= 0x01
	if _, err := ParsePrivateKey(kRaw); err == nil {
		t.Fatal("off-curve private key A accepted")
	}
}
