package sgs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// detReader is a deterministic byte stream (SHA-256 in counter mode) so
// key generation and signing become reproducible functions of a seed.
type detReader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func newDetReader(seed string) *detReader {
	return &detReader{seed: sha256.Sum256([]byte(seed))}
}

func (d *detReader) Read(p []byte) (int, error) {
	for len(d.buf) < len(p) {
		h := sha256.New()
		h.Write(d.seed[:])
		var c [8]byte
		binary.BigEndian.PutUint64(c[:], d.ctr)
		d.ctr++
		h.Write(c[:])
		d.buf = h.Sum(d.buf)
	}
	n := copy(p, d.buf)
	d.buf = d.buf[n:]
	return n, nil
}

// TestGoldenVectors pins the deterministic outputs of key generation and
// signing. A change to any of these digests means the wire format, a hash
// derivation, or the randomness-consumption order changed — all of which
// are compatibility breaks that must be deliberate.
//
// The sig/compact digests moved once, with the switch from the plain ate to
// the optimal ate pairing: the wire layout is unchanged, but every GT value
// is a fixed power of the old one, so R2 — and with it the challenge c and
// the responses — differ. gpk and privkey contain no GT value and did not
// move.
func TestGoldenVectors(t *testing.T) {
	rng := newDetReader("peace golden vectors v1")

	iss, err := NewIssuer(rng)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := iss.NewGroupComponent(rng)
	if err != nil {
		t.Fatal(err)
	}
	key, err := iss.IssueKey(rng, grp)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("golden vector message")
	sig, err := SignWithMode(rng, iss.PublicKey(), key, msg, PerMessageGenerators)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(iss.PublicKey(), msg, sig); err != nil {
		t.Fatal(err)
	}

	digest := func(b []byte) string {
		d := sha256.Sum256(b)
		return hex.EncodeToString(d[:8])
	}
	got := map[string]string{
		"gpk":     digest(PublicKeyBytes(iss.PublicKey())),
		"privkey": digest(PrivateKeyBytes(key)),
		"sig":     digest(sig.Bytes()),
		"compact": digest(sig.CompactBytes()),
	}
	want := map[string]string{
		"gpk":     "2639534899f2e44d",
		"privkey": "37add62573749e35",
		"sig":     "340ccf84e6c7636e",
		"compact": "da64dbd8963d7797",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("golden vector %q = %s, want %s (wire/hash format changed?)", name, got[name], w)
		}
	}
}
