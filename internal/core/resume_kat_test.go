package core

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/wire"
)

// katPattern returns n bytes i·mul + add.
func katPattern(n int, mul, add byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*mul + add
	}
	return b
}

// TestResumeKnownAnswers pins the session and resumption derivations to
// vectors produced before they moved off wire.Writer and crypto/hmac.
// Both ends of every round-trip test run the same code, so only fixed
// bytes show a change that moved the keys on both sides.
func TestResumeKnownAnswers(t *testing.T) {
	check := func(name string, got []byte, want string) {
		t.Helper()
		if g := hex.EncodeToString(got); g != want {
			t.Errorf("%s:\n got %s\nwant %s", name, g, want)
		}
	}
	var id SessionID
	copy(id[:], katPattern(len(id), 5, 1))
	s := newSession(id, "kat", katPattern(64, 7, 3), katPattern(96, 13, 5), time.Unix(1700000000, 0))
	check("session Enc", s.keys.Enc[:], "d4ae434fcd39a77f127c55ba55b7d4aa65287967bfdee8755e0735d530e5fa1b")
	check("session Mac", s.keys.Mac[:], "006eea8ae163b3a50b52d06fa03f44920bc94b69f162c4749292956cebc34d3c")
	check("ResumptionSecret", s.ResumptionSecret(), "2e214641ef6a9b8b7cda691c9a5524ff8c10b3a5476f9d74e6bec3867017cb7b")

	cn, sn := katPattern(16, 3, 0x40), katPattern(16, 9, 0x80)
	rid := ResumeSessionID(id, cn, sn)
	check("ResumeSessionID", rid[:], "9ad2b89a0ef301aaf85cd257e109ec33541089dfb2924ae8c452bccd21e2693a")
	r := ResumeSession(id, s.ResumptionSecret(), cn, sn, "user", time.Unix(1700000000, 0))
	check("ResumeSession id", r.ID[:], "9ad2b89a0ef301aaf85cd257e109ec33541089dfb2924ae8c452bccd21e2693a")
	check("ResumeSession Enc", r.keys.Enc[:], "b13312a6701ae35fa60fe4e58c37c013c1a0d019b2dd14cbad7aff44695066a8")
	check("ResumeSession Mac", r.keys.Mac[:], "25f7cc6a9091044e2bcc0f447e709859c59ba832d6207527c7dac87f5e46861c")

	// Nonces longer than the transcript's stack buffer give the same
	// keys as the wire encoding of the same fields.
	long := katPattern(100, 11, 3)
	a := ResumeSession(id, s.ResumptionSecret(), long, sn, "user", time.Unix(1700000000, 0))
	b := newSession(a.ID, "user", s.ResumptionSecret(), resumeTranscriptByWriter(id, long, sn), time.Unix(1700000000, 0))
	if a.keys != b.keys {
		t.Error("ResumeSession with a 100-byte nonce disagrees with the wire transcript")
	}
}

// resumeTranscriptByWriter is ResumeSession's transcript through
// wire.Writer, the encoder every other message uses.
func resumeTranscriptByWriter(prev SessionID, cn, sn []byte) []byte {
	w := wire.NewWriter(0)
	w.StringField(resumeTranscriptLabel)
	w.BytesField(prev[:])
	w.BytesField(cn)
	w.BytesField(sn)
	return w.Bytes()
}

// TestResumeDerivationAllocs pins what the resume derivations allocate:
// nothing for the session id, the returned slice for the secret, and for
// a resumed session only the Session and its one AEAD.
func TestResumeDerivationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	var prev SessionID
	secret, cn, sn := katPattern(32, 3, 2), katPattern(16, 3, 0x40), katPattern(16, 9, 0x80)
	sess := ResumeSession(prev, secret, cn, sn, "user", time.Unix(1700000000, 0))
	var sinkID SessionID
	var sinkSecret []byte
	var sinkSess *Session
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"ResumeSessionID", 0, func() { sinkID = ResumeSessionID(prev, cn, sn) }},
		{"ResumptionSecret", 1, func() { sinkSecret = sess.ResumptionSecret() }},
		{"ResumeSession", 3, func() { sinkSess = ResumeSession(prev, secret, cn, sn, "user", time.Unix(1700000000, 0)) }},
	} {
		if avg := testing.AllocsPerRun(200, c.f); avg > c.max {
			t.Errorf("%s allocates %.1f/op, want at most %.0f", c.name, avg, c.max)
		}
	}
	_, _, _ = sinkID, sinkSecret, sinkSess
}

// TestSessionOpenRejectsTampering is the session AEAD's twin of
// symcrypto's ring tamper test, for both layouts a session seals: the
// key-confirmation blob of M.3 / M̃.3 and the in-place data payload of
// the resume confirm. Every flipped byte, the wrong AAD or sequence
// number, the wrong key and every truncation must fail.
func TestSessionOpenRejectsTampering(t *testing.T) {
	now := time.Unix(1700000000, 0)
	var id SessionID
	copy(id[:], "tamper-test-session-identifier-!")
	a := newSession(id, "a", []byte("s"), []byte("k"), now)
	b := newSession(id, "b", []byte("s"), []byte("k"), now)
	other := newSession(id, "c", []byte("s2"), []byte("k"), now)

	blob, err := a.sealBlob(rand.Reader, []byte("data"), []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := b.openBlob(blob, []byte("aad")); err != nil || string(pt) != "data" {
		t.Fatalf("blob round trip: %q %v", pt, err)
	}
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 1
		if _, err := b.openBlob(bad, []byte("aad")); !errors.Is(err, symcrypto.ErrDecrypt) {
			t.Fatalf("blob: tampered byte %d accepted", i)
		}
	}
	if _, err := b.openBlob(blob, []byte("other")); !errors.Is(err, symcrypto.ErrDecrypt) {
		t.Fatal("blob: wrong AAD accepted")
	}
	if _, err := other.openBlob(blob, []byte("aad")); !errors.Is(err, symcrypto.ErrDecrypt) {
		t.Fatal("blob: wrong key accepted")
	}
	for _, n := range []int{0, 4, symcrypto.GCMNonceSize, len(blob) - 1} {
		if _, err := b.openBlob(blob[:n], []byte("aad")); !errors.Is(err, symcrypto.ErrDecrypt) {
			t.Fatalf("blob: truncation to %d bytes accepted", n)
		}
	}

	// In place: the plaintext encoded behind a nonce gap, sealed as
	// sequence 0, opened as an encrypted data frame.
	sealInPlace := func(s *Session, pt []byte) []byte {
		buf := make([]byte, symcrypto.GCMNonceSize, symcrypto.GCMNonceSize+len(pt)+symcrypto.GCMOverhead)
		sealed, err := s.SealInPlace(append(buf, pt...))
		if err != nil {
			t.Fatal(err)
		}
		if &sealed[0] != &buf[0] {
			t.Fatal("SealInPlace with spare capacity moved the payload")
		}
		return sealed
	}
	fresh := func(name, dh string) *Session { return newSession(id, name, []byte(dh), []byte("k"), now) }
	payload := sealInPlace(fresh("a", "s"), []byte("confirm body"))
	open := func(s *Session, seq uint64, p []byte) error {
		_, err := s.OpenDataInto(&DataFrame{Session: id, Seq: seq, Encrypted: true, Payload: p}, nil)
		return err
	}
	if err := open(fresh("b", "s"), 0, payload); err != nil {
		t.Fatalf("in-place round trip: %v", err)
	}
	for i := range payload {
		bad := append([]byte(nil), payload...)
		bad[i] ^= 1
		if err := open(fresh("b", "s"), 0, bad); !errors.Is(err, symcrypto.ErrDecrypt) {
			t.Fatalf("in place: tampered byte %d accepted", i)
		}
	}
	if err := open(fresh("b", "s"), 1, payload); !errors.Is(err, symcrypto.ErrDecrypt) {
		t.Fatal("in place: wrong sequence number accepted")
	}
	if err := open(fresh("c", "s2"), 0, payload); !errors.Is(err, symcrypto.ErrDecrypt) {
		t.Fatal("in place: wrong key accepted")
	}
	for _, n := range []int{0, symcrypto.GCMNonceSize, len(payload) - 1} {
		if err := open(fresh("b", "s"), 0, payload[:n]); !errors.Is(err, symcrypto.ErrDecrypt) {
			t.Fatalf("in place: truncation to %d bytes accepted", n)
		}
	}
	if _, err := a.SealInPlace(make([]byte, symcrypto.GCMNonceSize-1)); err == nil {
		t.Fatal("SealInPlace accepted a buffer without room for the nonce")
	}
}

// TestQuickSessionSeal round-trips arbitrary payloads and AADs through
// both session seal layouts.
func TestQuickSessionSeal(t *testing.T) {
	now := time.Unix(1700000000, 0)
	var id SessionID
	f := func(pt, aad []byte) bool {
		a := newSession(id, "a", []byte("property"), []byte("quick"), now)
		b := newSession(id, "b", []byte("property"), []byte("quick"), now)
		blob, err := a.sealBlob(rand.Reader, pt, aad)
		if err != nil {
			return false
		}
		back, err := b.openBlob(blob, aad)
		if err != nil || !bytes.Equal(back, pt) {
			return false
		}
		buf := append(make([]byte, symcrypto.GCMNonceSize), pt...)
		sealed, err := a.SealInPlace(buf)
		if err != nil {
			return false
		}
		back, err = b.OpenDataInto(&DataFrame{Session: id, Seq: 0, Encrypted: true, Payload: sealed}, nil)
		return err == nil && bytes.Equal(back, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
