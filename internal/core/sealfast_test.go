package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"
	"time"
)

// fastPair derives two Session instances with identical keys (the two
// ends of a resumed session) without running a full AKA testbed.
func fastPair(t *testing.T) (*Session, *Session) {
	t.Helper()
	secret := make([]byte, ResumeSecretSize)
	if _, err := rand.Read(secret); err != nil {
		t.Fatal(err)
	}
	cn := []byte("client-nonce-16b")
	sn := []byte("server-nonce-16b")
	now := time.Unix(1754000000, 0)
	return ResumeSession(SessionID{}, secret, cn, sn, "a", now),
		ResumeSession(SessionID{}, secret, cn, sn, "b", now)
}

// AppendSealedData emits the exact marshaled-DataFrame wire format:
// SealedDataLen is exact, and the standard decode+OpenData path accepts
// the frames.
func TestAppendSealedDataWireCompatible(t *testing.T) {
	us, rs := fastPair(t)
	for i, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("data"), 100)} {
		frame, err := us.AppendSealedData(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != SealedDataLen(len(payload)) {
			t.Fatalf("frame %d: len %d, SealedDataLen %d", i, len(frame), SealedDataLen(len(payload)))
		}
		var f DataFrame
		if err := UnmarshalDataFrameInto(frame, &f); err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		pt, err := rs.OpenData(&f)
		if err != nil {
			t.Fatalf("frame %d: open: %v", i, err)
		}
		if !bytes.Equal(pt, payload) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
}

// The other direction: frames sealed by the random-nonce SealData path
// open under OpenDataInto, and OpenDataInto enforces the same replay
// rule.
func TestOpenDataIntoCompatAndReplay(t *testing.T) {
	us, rs := fastPair(t)
	f, err := us.SealData(rand.Reader, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, 4096)
	pt, err := rs.OpenDataInto(f, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "hello" {
		t.Fatalf("plaintext %q", pt)
	}
	if _, err := rs.OpenDataInto(f, scratch); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay error = %v, want ErrReplay", err)
	}

	// Tampered ciphertext must not pass.
	f2, err := us.AppendSealedData(nil, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	var df DataFrame
	if err := UnmarshalDataFrameInto(f2, &df); err != nil {
		t.Fatal(err)
	}
	df.Payload[len(df.Payload)-1] ^= 1
	if _, err := rs.OpenDataInto(&df, scratch); err == nil {
		t.Fatal("tampered frame opened")
	}
}

// Both directions seal under the same Enc key; the per-instance random
// nonce bases are what keeps their deterministic nonces disjoint. Two
// ends must therefore produce different ciphertexts for the same
// (seq, payload).
func TestDeterministicNoncesDirectionSeparated(t *testing.T) {
	us, rs := fastPair(t)
	a, err := us.AppendSealedData(nil, []byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := rs.AppendSealedData(nil, []byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two directions produced identical sealed frames: nonce bases collided")
	}
}

// The zero-alloc seal and open paths must stay allocation-free when the
// caller provides capacity.
func TestSealOpenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	us, rs := fastPair(t)
	payload := bytes.Repeat([]byte("p"), 256)
	dst := make([]byte, 0, 4096)
	sealAllocs := testing.AllocsPerRun(1000, func() {
		var err error
		dst, err = us.AppendSealedData(dst[:0], payload)
		if err != nil {
			t.Fatal(err)
		}
	})
	if sealAllocs != 0 {
		t.Fatalf("AppendSealedData allocs/op = %v, want 0", sealAllocs)
	}

	// Pre-seal frames so the open loop only opens (replay rule: strictly
	// increasing seq; AllocsPerRun runs the func runs+1 times).
	const n = 1100
	frames := make([][]byte, n)
	decoded := make([]DataFrame, n)
	for i := range frames {
		var err error
		if frames[i], err = us.AppendSealedData(nil, payload); err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalDataFrameInto(frames[i], &decoded[i]); err != nil {
			t.Fatal(err)
		}
	}
	idx := 0
	pt := make([]byte, 0, 4096)
	openAllocs := testing.AllocsPerRun(1000, func() {
		var err error
		pt, err = rs.OpenDataInto(&decoded[idx], pt[:0])
		if err != nil {
			t.Fatal(err)
		}
		idx++
	})
	if openAllocs != 0 {
		t.Fatalf("OpenDataInto allocs/op = %v, want 0", openAllocs)
	}
}
