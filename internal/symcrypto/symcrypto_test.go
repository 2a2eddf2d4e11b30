package symcrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

// countingReader yields b, b+1, b+2, … — a fixed randomness source for
// known-answer blobs.
type countingReader struct{ b byte }

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.b
		r.b++
	}
	return len(p), nil
}

// pattern returns n bytes i·mul + add.
func pattern(n int, mul, add byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*mul + add
	}
	return b
}

func newRing(t *testing.T) *TicketKeyRing {
	t.Helper()
	r, err := NewTicketKeyRing(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSealOpenRoundTrip(t *testing.T) {
	ring := newRing(t)
	pt := []byte("the plaintext payload")
	aad := []byte("session-id-123")

	blob, err := ring.Seal(rand.Reader, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != SealHeaderSize+len(pt)+GCMOverhead {
		t.Fatalf("blob is %d bytes, want %d", len(blob), SealHeaderSize+len(pt)+GCMOverhead)
	}
	if binary.BigEndian.Uint64(blob) != ring.CurrentID() {
		t.Fatal("blob does not name the sealing generation")
	}
	if bytes.Contains(blob, pt) {
		t.Fatal("ciphertext contains plaintext")
	}
	back, err := ring.Open(blob, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("round-trip mismatch")
	}

	// SealInPlace over a buffer the caller encoded straight into gives
	// the same layout, in the caller's array.
	buf := make([]byte, SealHeaderSize, SealHeaderSize+len(pt)+GCMOverhead)
	buf = append(buf, pt...)
	sealed, err := ring.SealInPlace(rand.Reader, buf, aad)
	if err != nil {
		t.Fatal(err)
	}
	if &sealed[0] != &buf[0] {
		t.Fatal("SealInPlace with spare capacity moved the blob")
	}
	if back, err := ring.Open(sealed, aad); err != nil || !bytes.Equal(back, pt) {
		t.Fatalf("SealInPlace blob: %q, %v", back, err)
	}
	if _, err := ring.SealInPlace(rand.Reader, buf[:SealHeaderSize-1], aad); err == nil {
		t.Fatal("SealInPlace accepted a buffer shorter than the header")
	}
}

// TestOpenRejectsTampering flips every byte of a sealed blob and tries the
// wrong AAD, the wrong key under the right generation id, truncations and
// a rotated-out generation. The session AEAD's twin of these cases is
// core's TestSessionOpenRejectsTampering.
func TestOpenRejectsTampering(t *testing.T) {
	ring, err := NewTicketKeyRing(&countingReader{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ring.Seal(rand.Reader, []byte("data"), []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}

	// Flip each byte in turn: in the generation id the blob names a key
	// the ring never held; anywhere else authentication fails.
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 1
		want := ErrDecrypt
		if i < stekIDSize {
			want = ErrUnknownTicketKey
		}
		if _, err := ring.Open(bad, []byte("aad")); !errors.Is(err, want) {
			t.Fatalf("tampered byte %d: %v, want %v", i, err, want)
		}
	}
	// Wrong AAD.
	if _, err := ring.Open(blob, []byte("other")); !errors.Is(err, ErrDecrypt) {
		t.Fatal("wrong AAD accepted")
	}
	// Wrong key: a ring whose generation has the same id but another key.
	src := &countingReader{}
	var idb [stekIDSize]byte
	src.Read(idb[:])
	other, err := NewTicketKeyRing(&prefixReader{prefix: idb[:], rest: &countingReader{b: 0x80}})
	if err != nil {
		t.Fatal(err)
	}
	if other.CurrentID() != ring.CurrentID() {
		t.Fatal("test rings disagree on the generation id")
	}
	if _, err := other.Open(blob, []byte("aad")); !errors.Is(err, ErrDecrypt) {
		t.Fatal("wrong key accepted")
	}
	// Too short: no id at all, an id without a full nonce and tag.
	if _, err := ring.Open(blob[:4], []byte("aad")); !errors.Is(err, ErrUnknownTicketKey) {
		t.Fatal("blob without a generation id accepted")
	}
	for _, n := range []int{stekIDSize, SealHeaderSize, SealHeaderSize + GCMOverhead - 1} {
		if _, err := ring.Open(blob[:n], []byte("aad")); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("blob truncated to %d bytes accepted", n)
		}
	}
	// Rotated out of the grace window.
	for i := 0; i < 2; i++ {
		if err := ring.Rotate(rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ring.Open(blob, []byte("aad")); !errors.Is(err, ErrUnknownTicketKey) {
		t.Fatal("retired generation accepted")
	}
}

// TestTicketKeyRingConcurrent seals and opens from several goroutines
// while another rotates: every shard of a server shares one ring, and
// each generation's cached AEAD is used by all of them at once.
func TestTicketKeyRingConcurrent(t *testing.T) {
	ring := newRing(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ring.Rotate(rand.Reader); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var users sync.WaitGroup
	for g := 0; g < 4; g++ {
		users.Add(1)
		go func(g int) {
			defer users.Done()
			pt := []byte{byte(g), 1, 2, 3}
			for i := 0; i < 200; i++ {
				blob, err := ring.Seal(rand.Reader, pt, []byte("aad"))
				if err != nil {
					t.Error(err)
					return
				}
				// The generation may rotate out between the two calls;
				// anything else must open to the plaintext.
				back, err := ring.Open(blob, []byte("aad"))
				if errors.Is(err, ErrUnknownTicketKey) {
					continue
				}
				if err != nil || !bytes.Equal(back, pt) {
					t.Errorf("goroutine %d: open = %x, %v", g, back, err)
					return
				}
			}
		}(g)
	}
	users.Wait()
	close(stop)
	wg.Wait()
}

// prefixReader yields prefix, then reads from rest.
type prefixReader struct {
	prefix []byte
	rest   *countingReader
}

func (r *prefixReader) Read(p []byte) (int, error) {
	if len(r.prefix) > 0 {
		n := copy(p, r.prefix)
		r.prefix = r.prefix[n:]
		return n, nil
	}
	return r.rest.Read(p)
}

func TestDeriveSessionKeys(t *testing.T) {
	sk1 := DeriveSessionKeys([]byte("dh"), []byte("transcript A"))
	sk2 := DeriveSessionKeys([]byte("dh"), []byte("transcript A"))
	sk3 := DeriveSessionKeys([]byte("dh"), []byte("transcript B"))
	sk4 := DeriveSessionKeys([]byte("dh2"), []byte("transcript A"))

	if sk1 != sk2 {
		t.Fatal("derivation not deterministic")
	}
	if sk1 == sk3 {
		t.Fatal("different transcripts produced identical keys")
	}
	if sk1 == sk4 {
		t.Fatal("different secrets produced identical keys")
	}
	if sk1.Enc == sk1.Mac {
		t.Fatal("enc and mac keys identical")
	}
}

func TestMAC(t *testing.T) {
	key := DeriveKey([]byte("secret"), "mac")
	msg := []byte("packet payload")

	tag := MAC(key, 7, msg)
	if err := VerifyMAC(key, 7, msg, tag); err != nil {
		t.Fatal(err)
	}
	if err := VerifyMAC(key, 8, msg, tag); !errors.Is(err, ErrBadMAC) {
		t.Fatal("sequence-number replay accepted")
	}
	if err := VerifyMAC(key, 7, []byte("altered"), tag); !errors.Is(err, ErrBadMAC) {
		t.Fatal("altered message accepted")
	}
	other := DeriveKey([]byte("secret2"), "mac")
	if err := VerifyMAC(other, 7, msg, tag); !errors.Is(err, ErrBadMAC) {
		t.Fatal("wrong key accepted")
	}
	// A message in parts is MACed as its concatenation, at any cut.
	for cut := 0; cut <= len(msg); cut++ {
		if MAC(key, 7, msg[:cut], nil, msg[cut:]) != tag {
			t.Fatalf("MAC over parts cut at %d differs", cut)
		}
	}
	many := [][]byte{msg[:2], msg[2:4], msg[4:6], msg[6:8], msg[8:]}
	if MAC(key, 7, many...) != tag {
		t.Fatal("MAC over five parts differs")
	}
}

func TestDeriveKeyLabelsIndependent(t *testing.T) {
	a := DeriveKey([]byte("s"), "label-a")
	b := DeriveKey([]byte("s"), "label-b")
	if a == b {
		t.Fatal("different labels produced identical keys")
	}
}

func TestQuickSealOpen(t *testing.T) {
	ring := newRing(t)
	f := func(pt, aad []byte) bool {
		blob, err := ring.Seal(rand.Reader, pt, aad)
		if err != nil {
			return false
		}
		back, err := ring.Open(blob, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(back, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestKnownAnswers pins the derivations and the ticket blob layout to
// vectors generated by the crypto/hmac implementation this package used
// before its HMAC moved onto stack-held digests. Round trips run the same
// code at both ends and would pass a change that moved bytes on both.
func TestKnownAnswers(t *testing.T) {
	hexOf := func(b []byte) string { return hex.EncodeToString(b) }
	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}

	k := DeriveKey([]byte("peace kat secret"), "peace/kat:v1")
	check("DeriveKey", hexOf(k[:]), "d484c70634aa13fb396946541cb330fe33c98345903502da503faad2f362e2dc")

	sk := DeriveSessionKeys(pattern(64, 7, 3), pattern(128, 13, 5))
	check("DeriveSessionKeys.Enc", hexOf(sk.Enc[:]), "eae83cd14f4b1e502b2c728338d843adb65f35d708116aa6d700659f772ae350")
	check("DeriveSessionKeys.Mac", hexOf(sk.Mac[:]), "faf2937cfbefeba2e0d74e84373c04bce57df2bec4a1e91b34ce2d65db32ded2")

	check("Stream", hexOf(Stream(pattern(32, 3, 1), "peace/mask-a", 100)),
		"5b8961279aa96b3ff2f60c0c242547c81676c9ae76f5343eea15e91af0837eaec121e55871209e42b98916c232daf0dd"+
			"eb48d589e859b8b7e42aa59704aa44423e4bcd05b30e7af656b59e45f7cc5dea0550b7e4176e417210945b54e669d3d0b6489dca")

	mk := DeriveKey([]byte("peace kat secret"), "mac")
	m40 := MAC(mk, 7, pattern(40, 5, 9))
	check("MAC 40 B", hexOf(m40[:]), "1742812a98baa81f0ebc324987bbc67554b3d66876b67d2ec18e1cee39f3a509")
	m4k := MAC(mk, 9, pattern(4096, 11, 2))
	check("MAC 4 KiB", hexOf(m4k[:]), "c4f8d441ace4a730a9b5672ca2f233f64a76cd8448b09dd5ecfa97cf39f52638")

	ring, err := NewTicketKeyRing(&countingReader{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ring.Seal(&countingReader{b: 100}, pattern(57, 3, 7), []byte("peace/kat-aad"))
	if err != nil {
		t.Fatal(err)
	}
	check("TicketKeyRing.Seal", hexOf(blob),
		"00010203040506076465666768696a6b6c6d6e6fc6bf2edfee268b3849499d5c86e570eaf992bacfd09fe260ca59e91f"+
			"52d23bdf305c4a737f031dc04e7807e916e27388c83553a2fbb6340f251562520718a9ac9de7fb671ccef9e011")
}

// TestKDFAllocs pins the key schedule's steady state at zero heap
// allocations: key derivation, session keys, a MAC of up to 1 KiB and
// the STEK generation lookup of TicketKeyRing.Open.
func TestKDFAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	secret, dh, transcript := pattern(32, 3, 1), pattern(64, 7, 3), pattern(128, 13, 5)
	msg := pattern(1024, 5, 9)
	key := DeriveKey(secret, "mac")
	ring := newRing(t)
	id := ring.CurrentID()
	var sinkKey Key
	var sinkKeys SessionKeys
	var sinkTag [MACSize]byte
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"DeriveKey", func() { sinkKey = DeriveKey(secret, "peace/resume-secret:v1") }},
		{"DeriveSessionKeys", func() { sinkKeys = DeriveSessionKeys(dh, transcript) }},
		{"MAC 1 KiB", func() { sinkTag = MAC(key, 7, msg) }},
		{"MAC in three parts", func() { sinkTag = MAC(key, 7, msg[:10], msg[10:500], msg[500:]) }},
		{"TicketKeyRing generation lookup", func() {
			if ring.generation(id) == nil {
				t.Fatal("current generation not found")
			}
		}},
	} {
		if avg := testing.AllocsPerRun(200, c.f); avg != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", c.name, avg)
		}
	}
	_, _, _ = sinkKey, sinkKeys, sinkTag
}

// FuzzHMACvsStdlib holds the stack-held HMAC to crypto/hmac over any key
// and message, with the message cut into two parts anywhere. The seeds
// cover key and message lengths from 0 to past 2 KiB, across the
// one-block key and padding boundaries.
func FuzzHMACvsStdlib(f *testing.F) {
	for _, kl := range []int{0, 1, 32, 63, 64, 65, 200, 2100} {
		for _, ml := range []int{0, 55, 56, 64, 1000, 2100} {
			f.Add(pattern(kl, 7, 1), pattern(ml, 13, 2), uint16(ml/3))
		}
	}
	f.Fuzz(func(t *testing.T, key, msg []byte, cut uint16) {
		m := hmac.New(sha256.New, key)
		m.Write(msg)
		want := m.Sum(nil)

		c := int(cut)
		if c > len(msg) {
			c = len(msg)
		}
		var got [sha256.Size]byte
		hmacSHA256(&got, key, msg[:c], msg[c:])
		if !bytes.Equal(got[:], want) {
			t.Fatalf("key %d B, msg %d B cut at %d: %x, crypto/hmac %x", len(key), len(msg), c, got, want)
		}
	})
}
