package sgs

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"github.com/peace-mesh/peace/internal/bn256"
)

// testSetup issues one group with nUsers member keys.
type testSetup struct {
	iss  *Issuer
	pk   *PublicKey
	grp  *big.Int
	keys []*PrivateKey
}

func newTestSetup(t testing.TB, nUsers int) *testSetup {
	t.Helper()
	iss, err := NewIssuer(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := iss.NewGroupComponent(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := iss.IssueBatch(rand.Reader, grp, nUsers)
	if err != nil {
		t.Fatal(err)
	}
	return &testSetup{iss: iss, pk: iss.PublicKey(), grp: grp, keys: keys}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	s := newTestSetup(t, 2)
	msg := []byte("user-router AKA transcript")

	sig, err := Sign(rand.Reader, s.pk, s.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s.pk, msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	s := newTestSetup(t, 1)
	sig, err := Sign(rand.Reader, s.pk, s.keys[0], []byte("message A"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s.pk, []byte("message B"), sig); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("want ErrInvalidSignature for wrong message, got %v", err)
	}
}

func TestVerifyRejectsTamperedComponents(t *testing.T) {
	s := newTestSetup(t, 1)
	msg := []byte("tamper target")
	orig, err := Sign(rand.Reader, s.pk, s.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}

	one := big.NewInt(1)
	mutations := map[string]func(*Signature){
		"R":      func(m *Signature) { m.R = new(big.Int).Add(m.R, one) },
		"C":      func(m *Signature) { m.C = new(big.Int).Add(m.C, one) },
		"SAlpha": func(m *Signature) { m.SAlpha = new(big.Int).Add(m.SAlpha, one) },
		"SX":     func(m *Signature) { m.SX = new(big.Int).Add(m.SX, one) },
		"SDelta": func(m *Signature) { m.SDelta = new(big.Int).Add(m.SDelta, one) },
		"T1":     func(m *Signature) { m.T1 = new(bn256.G1).Add(m.T1, new(bn256.G1).Base()) },
		"T2":     func(m *Signature) { m.T2 = new(bn256.G1).Add(m.T2, new(bn256.G1).Base()) },
	}
	for name, mutate := range mutations {
		m, err := ParseSignature(orig.Bytes()) // deep copy
		if err != nil {
			t.Fatal(err)
		}
		mutate(m)
		// Reduce scalars so shape checks don't mask the challenge check.
		for _, sc := range []*big.Int{m.R, m.C, m.SAlpha, m.SX, m.SDelta} {
			sc.Mod(sc, bn256.Order)
		}
		if err := Verify(s.pk, msg, m); err == nil {
			t.Errorf("tampered %s accepted", name)
		}
	}
}

func TestVerifyRejectsNilAndMalformed(t *testing.T) {
	s := newTestSetup(t, 1)
	if err := Verify(s.pk, nil, nil); err == nil {
		t.Error("nil signature accepted")
	}
	if err := Verify(s.pk, nil, &Signature{}); err == nil {
		t.Error("empty signature accepted")
	}
}

// TestAuditMissesMalformedSignature holds the audit entry points —
// IsRevoked, Open, OpenCounted, TraceSigner and SignerMatchesKey — to
// reading a malformed signature as a miss rather than panicking on it:
// the empty signature, and a valid one with each component in turn nil.
func TestAuditMissesMalformedSignature(t *testing.T) {
	s := newTestSetup(t, 1)
	msg := []byte("audit")
	grt := []*RevocationToken{s.keys[0].Token()}
	valid, err := Sign(rand.Reader, s.pk, s.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Signature{"empty": {}}
	for name, clear := range map[string]func(*Signature){
		"R":      func(sig *Signature) { sig.R = nil },
		"T1":     func(sig *Signature) { sig.T1 = nil },
		"T2":     func(sig *Signature) { sig.T2 = nil },
		"C":      func(sig *Signature) { sig.C = nil },
		"SAlpha": func(sig *Signature) { sig.SAlpha = nil },
		"SX":     func(sig *Signature) { sig.SX = nil },
		"SDelta": func(sig *Signature) { sig.SDelta = nil },
	} {
		sig := *valid
		clear(&sig)
		cases["nil "+name] = &sig
	}
	for name, sig := range cases {
		t.Run(name, func(t *testing.T) {
			if revoked, idx := IsRevoked(s.pk, msg, sig, grt); revoked || idx != -1 {
				t.Errorf("IsRevoked = %v, %d; want false, -1", revoked, idx)
			}
			if idx := Open(s.pk, msg, sig, grt); idx != -1 {
				t.Errorf("Open = %d, want -1", idx)
			}
			if idx, _ := OpenCounted(s.pk, msg, sig, grt); idx != -1 {
				t.Errorf("OpenCounted = %d, want -1", idx)
			}
			if TraceSigner(s.pk, msg, sig, grt[0]) {
				t.Error("TraceSigner matched")
			}
			if SignerMatchesKey(s.pk, msg, sig, s.keys[0]) {
				t.Error("SignerMatchesKey matched")
			}
		})
	}
	if idx := Open(s.pk, msg, valid, grt); idx != 0 {
		t.Fatalf("Open on the valid signature = %d, want 0", idx)
	}
}

func TestVerifyRejectsWrongGroupKey(t *testing.T) {
	s1 := newTestSetup(t, 1)
	s2 := newTestSetup(t, 1)
	msg := []byte("cross-issuer")

	sig, err := Sign(rand.Reader, s1.pk, s1.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s2.pk, msg, sig); err == nil {
		t.Fatal("signature accepted under a different issuer's gpk")
	}
}

func TestSignaturesAreRandomized(t *testing.T) {
	s := newTestSetup(t, 1)
	msg := []byte("same message")
	a, _ := Sign(rand.Reader, s.pk, s.keys[0], msg)
	b, _ := Sign(rand.Reader, s.pk, s.keys[0], msg)
	if a.Equal(b) {
		t.Fatal("two signatures on the same message are identical")
	}
	if a.T1.Equal(b.T1) || a.T2.Equal(b.T2) {
		t.Fatal("linear encryption reused randomness")
	}
}

func TestCheckKey(t *testing.T) {
	s := newTestSetup(t, 1)
	if err := CheckKey(s.pk, s.keys[0]); err != nil {
		t.Fatalf("well-formed key rejected: %v", err)
	}
	bad := &PrivateKey{
		A:   new(bn256.G1).Base(),
		Grp: s.keys[0].Grp,
		X:   s.keys[0].X,
	}
	if err := CheckKey(s.pk, bad); !errors.Is(err, ErrBadKey) {
		t.Fatalf("malformed key accepted: %v", err)
	}
}

func TestRevocationCheck(t *testing.T) {
	s := newTestSetup(t, 3)
	msg := []byte("revocation")

	sig, err := Sign(rand.Reader, s.pk, s.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}

	// Not revoked against other users' tokens.
	url := []*RevocationToken{s.keys[1].Token(), s.keys[2].Token()}
	if revoked, _ := IsRevoked(s.pk, msg, sig, url); revoked {
		t.Fatal("innocent signer flagged as revoked")
	}
	if err := VerifyWithRevocation(s.pk, msg, sig, url); err != nil {
		t.Fatalf("valid unrevoked signature rejected: %v", err)
	}

	// Revoked once own token is added.
	url = append(url, s.keys[0].Token())
	revoked, idx := IsRevoked(s.pk, msg, sig, url)
	if !revoked || idx != 2 {
		t.Fatalf("revoked signer not detected (revoked=%v idx=%d)", revoked, idx)
	}
	if err := VerifyWithRevocation(s.pk, msg, sig, url); !errors.Is(err, ErrRevoked) {
		t.Fatalf("want ErrRevoked, got %v", err)
	}
}

func TestOpenIdentifiesSigner(t *testing.T) {
	s := newTestSetup(t, 4)
	msg := []byte("audit")
	grt := make([]*RevocationToken, len(s.keys))
	for i, k := range s.keys {
		grt[i] = k.Token()
	}

	for signer := 0; signer < len(s.keys); signer++ {
		sig, err := Sign(rand.Reader, s.pk, s.keys[signer], msg)
		if err != nil {
			t.Fatal(err)
		}
		if got := Open(s.pk, msg, sig, grt); got != signer {
			t.Fatalf("Open = %d, want %d", got, signer)
		}
	}
}

func TestOpenUnknownSigner(t *testing.T) {
	s := newTestSetup(t, 2)
	msg := []byte("audit")
	// grt missing the actual signer.
	grt := []*RevocationToken{s.keys[1].Token()}
	sig, _ := Sign(rand.Reader, s.pk, s.keys[0], msg)
	if got := Open(s.pk, msg, sig, grt); got != -1 {
		t.Fatalf("Open on missing signer = %d, want -1", got)
	}
}

func TestTraceSignerAndNonFrameability(t *testing.T) {
	s := newTestSetup(t, 2)
	msg := []byte("dispute")
	sig, _ := Sign(rand.Reader, s.pk, s.keys[0], msg)

	if !SignerMatchesKey(s.pk, msg, sig, s.keys[0]) {
		t.Fatal("true signer not matched")
	}
	// Non-frameability: the check must not implicate another member.
	if SignerMatchesKey(s.pk, msg, sig, s.keys[1]) {
		t.Fatal("innocent member framed")
	}
}

func TestSignatureMarshalRoundTrip(t *testing.T) {
	s := newTestSetup(t, 1)
	msg := []byte("marshal me")
	sig, _ := Sign(rand.Reader, s.pk, s.keys[0], msg)

	data := sig.Bytes()
	if len(data) != SignatureSize {
		t.Fatalf("signature size %d, want %d", len(data), SignatureSize)
	}
	back, err := ParseSignature(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sig.Equal(back) {
		t.Fatal("marshal round-trip mismatch")
	}
	if err := Verify(s.pk, msg, back); err != nil {
		t.Fatalf("round-tripped signature rejected: %v", err)
	}
}

func TestParseSignatureRejectsCorruption(t *testing.T) {
	s := newTestSetup(t, 1)
	sig, _ := Sign(rand.Reader, s.pk, s.keys[0], []byte("x"))
	data := sig.Bytes()

	if _, err := ParseSignature(data[:len(data)-1]); err == nil {
		t.Error("short data accepted")
	}
	// Corrupt T1 so it is no longer on the curve.
	bad := append([]byte(nil), data...)
	for i := 1 + scalarBytes; i < 1+scalarBytes+bn256.G1Size; i++ {
		bad[i] ^= 0xFF
	}
	if _, err := ParseSignature(bad); err == nil {
		t.Error("off-curve T1 accepted")
	}
	// Only the leading byte 1 parses; 2 was the fixed-generator mode.
	for _, lead := range []byte{0, 2, 0xFF} {
		bad := append([]byte{lead}, data[1:]...)
		if _, err := ParseSignature(bad); !errors.Is(err, ErrInvalidSignature) {
			t.Errorf("ParseSignature, leading byte %d: err = %v", lead, err)
		}
		if err := CheckSignature(bad); !errors.Is(err, ErrInvalidSignature) {
			t.Errorf("CheckSignature, leading byte %d: err = %v", lead, err)
		}
	}
}

func TestPrivateKeyMarshalRoundTrip(t *testing.T) {
	s := newTestSetup(t, 1)
	data := PrivateKeyBytes(s.keys[0])
	back, err := ParsePrivateKey(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.A.Equal(s.keys[0].A) || back.Grp.Cmp(s.keys[0].Grp) != 0 || back.X.Cmp(s.keys[0].X) != 0 {
		t.Fatal("private key round-trip mismatch")
	}
	if err := CheckKey(s.pk, back); err != nil {
		t.Fatal(err)
	}
}

func TestOperationCountsMatchPaper(t *testing.T) {
	s := newTestSetup(t, 1)
	msg := []byte("op counts")

	sig, signCounts, err := SignCounted(rand.Reader, s.pk, s.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Section V.C: signature generation ≈ 8 exponentiations
	// (or multi-exponentiations) and 2 bilinear map computations.
	if signCounts.Exps != 8 {
		t.Errorf("sign exps = %d, want 8 (paper)", signCounts.Exps)
	}
	if signCounts.Pairings != 2 {
		t.Errorf("sign pairings = %d, want 2 (paper)", signCounts.Pairings)
	}

	verifyCounts, err := VerifyCounted(s.pk, msg, sig)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: verification = 6 exponentiations + 3 pairings (|URL| = 0).
	// Our implementation caches e(g1, g2), so it performs 2 live pairings
	// plus one GT exponentiation of the cached value; the paper's
	// convention charges the cached pairing as the third.
	if verifyCounts.Exps != 6 {
		t.Errorf("verify exps = %d, want 6 (paper)", verifyCounts.Exps)
	}
	if verifyCounts.Pairings != 2 || verifyCounts.GTExps != 1 {
		t.Errorf("verify pairings = %d (+%d GT exps), want 2 (+1)", verifyCounts.Pairings, verifyCounts.GTExps)
	}

	// Revocation: 2 pairings per token (paper: 2|URL|).
	url := []*RevocationToken{s.keys[0].Token()}
	counts, err := VerifyWithRevocationCounted(s.pk, msg, sig, url)
	if !errors.Is(err, ErrRevoked) {
		t.Fatalf("want ErrRevoked, got %v", err)
	}
	wantPairings := 2 + 2*len(url)
	if counts.Pairings != wantPairings {
		t.Errorf("verify+revocation pairings = %d, want %d", counts.Pairings, wantPairings)
	}
}

func TestPaperSignatureBits(t *testing.T) {
	if got := PaperSignatureBits(); got != 1192 {
		t.Fatalf("paper signature bits = %d, want 1192", got)
	}
}

func TestCrossGroupOpen(t *testing.T) {
	// Two groups under one issuer: Open must attribute each signature to
	// the right key even across groups.
	iss, err := NewIssuer(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	grpA, _ := iss.NewGroupComponent(rand.Reader)
	grpB, _ := iss.NewGroupComponent(rand.Reader)
	keyA, err := iss.IssueKey(rand.Reader, grpA)
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := iss.IssueKey(rand.Reader, grpB)
	if err != nil {
		t.Fatal(err)
	}
	grt := []*RevocationToken{keyA.Token(), keyB.Token()}
	msg := []byte("cross-group")

	sigA, _ := Sign(rand.Reader, iss.PublicKey(), keyA, msg)
	sigB, _ := Sign(rand.Reader, iss.PublicKey(), keyB, msg)
	if err := Verify(iss.PublicKey(), msg, sigA); err != nil {
		t.Fatal(err)
	}
	if err := Verify(iss.PublicKey(), msg, sigB); err != nil {
		t.Fatal(err)
	}
	if Open(iss.PublicKey(), msg, sigA, grt) != 0 {
		t.Error("group-A signature misattributed")
	}
	if Open(iss.PublicKey(), msg, sigB, grt) != 1 {
		t.Error("group-B signature misattributed")
	}
}

func TestPublicKeyMarshalRoundTrip(t *testing.T) {
	s := newTestSetup(t, 1)
	data := PublicKeyBytes(s.pk)
	back, err := ParsePublicKey(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.W.Equal(s.pk.W) {
		t.Fatal("public key round-trip mismatch")
	}
	// Signatures verify under the reconstructed key (cached pairing and
	// all) and fail under a corrupted one.
	msg := []byte("pk round trip")
	sig, err := Sign(rand.Reader, s.pk, s.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(back, msg, sig); err != nil {
		t.Fatalf("signature rejected under reconstructed pk: %v", err)
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := ParsePublicKey(bad); err == nil {
		t.Fatal("corrupted public key accepted")
	}
}

func TestSignatureFromWrongSubgroupComponentsRejected(t *testing.T) {
	// T1/T2 replaced by the identity must be rejected by the shape check
	// before any pairing math runs.
	s := newTestSetup(t, 1)
	msg := []byte("degenerate")
	sig, err := Sign(rand.Reader, s.pk, s.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}
	sig.T1 = new(bn256.G1).SetInfinity()
	if err := Verify(s.pk, msg, sig); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("identity T1 accepted: %v", err)
	}
}

func TestCompactSignatureRoundTrip(t *testing.T) {
	s := newTestSetup(t, 1)
	msg := []byte("compact encoding")
	sig, err := Sign(rand.Reader, s.pk, s.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}
	data := sig.CompactBytes()
	if len(data) != CompactSignatureSize {
		t.Fatalf("compact size = %d, want %d", len(data), CompactSignatureSize)
	}
	if len(data) >= SignatureSize {
		t.Fatal("compact encoding not smaller than the plain one")
	}
	back, err := ParseCompactSignature(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sig.Equal(back) {
		t.Fatal("compact round-trip changed the signature")
	}
	if err := Verify(s.pk, msg, back); err != nil {
		t.Fatalf("round-tripped compact signature rejected: %v", err)
	}
	if _, err := ParseCompactSignature(data[:len(data)-1]); err == nil {
		t.Fatal("short compact signature accepted")
	}
	for _, lead := range []byte{0, 2, 0xFF} { // 2 was the fixed-generator mode
		bad := append([]byte{lead}, data[1:]...)
		if _, err := ParseCompactSignature(bad); !errors.Is(err, ErrInvalidSignature) {
			t.Errorf("compact signature led by %d: err = %v, want ErrInvalidSignature", lead, err)
		}
	}
}

func TestQuickSignVerifyArbitraryMessages(t *testing.T) {
	// Property: any byte string signs and verifies; verification binds the
	// exact bytes (append/prepend breaks it).
	s := newTestSetup(t, 1)
	f := func(msg []byte) bool {
		sig, err := Sign(rand.Reader, s.pk, s.keys[0], msg)
		if err != nil {
			return false
		}
		if Verify(s.pk, msg, sig) != nil {
			return false
		}
		altered := append(append([]byte(nil), msg...), 0x00)
		return Verify(s.pk, altered, sig) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Error(err)
	}
}

func TestIssuerKeysAreDistinct(t *testing.T) {
	s := newTestSetup(t, 6)
	seen := make(map[string]bool)
	for i, k := range s.keys {
		a := string(k.A.Marshal())
		x := k.X.String()
		if seen[a] || seen[x] {
			t.Fatalf("key %d repeats material", i)
		}
		seen[a] = true
		seen[x] = true
		if k.Grp.Cmp(s.grp) != 0 {
			t.Fatalf("key %d has wrong group component", i)
		}
	}
}
