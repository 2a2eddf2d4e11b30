// Package symcrypto is PEACE's symmetric layer: key derivation from the
// Diffie–Hellman secrets established by the AKA protocols, authenticated
// encryption for E_K(·) (paper messages M.3 / M̃.3 and session traffic),
// and the per-message HMAC authentication used by the hybrid
// asymmetric/symmetric session design of Section V.C.
//
// Instantiation: HMAC-SHA256 for extraction/expansion and MACs (an
// HKDF-shaped construction), AES-256-GCM for authenticated encryption. The
// paper leaves E_K and the MAC unspecified; these are the conventional
// modern choices available in the standard library.
package symcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
)

// Exported errors.
var (
	ErrDecrypt = errors.New("symcrypto: decryption failed")
	ErrBadMAC  = errors.New("symcrypto: MAC verification failed")
)

// KeySize is the symmetric key size in bytes (AES-256 / HMAC-SHA256).
const KeySize = 32

// MACSize is the length of a truncated session MAC tag.
const MACSize = 32

// Key is a symmetric key.
type Key [KeySize]byte

// SessionKeys bundles the directional keys derived from one AKA run.
type SessionKeys struct {
	// Enc protects session payloads (AES-256-GCM).
	Enc Key
	// Mac authenticates per-message session traffic (HMAC-SHA256).
	Mac Key
}

// extractSalt is the fixed protocol salt of HKDF-Extract.
var extractSalt = []byte("peace/symcrypto:extract:v1")

// hmacSHA256 computes HMAC-SHA256(key, head ‖ tail[0] ‖ tail[1] ‖ …)
// into out, which may alias a message part: it is written last.
// Both hash states are locals that never leave this frame, so the whole
// computation stays on the stack at any key or message length: a message
// of any size streams through the inner digest, and a key longer than a
// block is hashed first (RFC 2104). It runs the same compressions as
// crypto/hmac, which instead heap-allocates a keyed object (two digests
// and both pads) per call.
func hmacSHA256(out *[sha256.Size]byte, key, head []byte, tail ...[]byte) {
	var pad [sha256.BlockSize]byte
	if len(key) > sha256.BlockSize {
		k := sha256.Sum256(key)
		copy(pad[:], k[:])
	} else {
		copy(pad[:], key)
	}
	for i := range pad {
		pad[i] ^= 0x36
	}
	h := sha256.New()
	h.Write(pad[:])
	h.Write(head)
	for _, p := range tail {
		h.Write(p)
	}
	var inner [sha256.Size]byte
	h.Sum(inner[:0])

	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	h.Reset()
	h.Write(pad[:])
	h.Write(inner[:])
	h.Sum(out[:0])
}

// extract implements HKDF-Extract with a fixed protocol salt.
func extract(secret []byte) (prk [sha256.Size]byte) {
	hmacSHA256(&prk, extractSalt, secret)
	return prk
}

// expand implements HKDF-Expand for up to 255 blocks, filling out. The
// info string is label ‖ context, so no caller concatenates it first.
func expand(prk *[sha256.Size]byte, out, label, context []byte) {
	var block [sha256.Size]byte
	var counter [1]byte
	prev := block[:0] // T(0) is empty
	for len(out) > 0 {
		counter[0]++
		hmacSHA256(&block, prk[:], prev, label, context, counter[:])
		out = out[copy(out, block[:]):]
		prev = block[:]
	}
}

// Stream derives a deterministic keystream of the requested length from a
// secret. PEACE's setup uses it to realize the paper's A ⊕ x masking when
// the bit-lengths of A and x differ (the pad is expanded from x, so the
// TTP still learns nothing about A without x, and x never reaches the TTP).
func Stream(secret []byte, label string, length int) []byte {
	prk := extract(secret)
	out := make([]byte, length)
	expand(&prk, out, []byte("stream:"), []byte(label))
	return out
}

// DeriveKey derives a single labeled key from a shared secret.
func DeriveKey(secret []byte, label string) Key {
	prk := extract(secret)
	var k Key
	expand(&prk, k[:], []byte(label), nil)
	return k
}

// DeriveSessionKeys derives the encryption and MAC keys for a session from
// the DH secret (g^{r_R·r_j} marshaled) and the session transcript, which
// binds the keys to the session identifier (g^{r_R}, g^{r_j}).
func DeriveSessionKeys(dhSecret, transcript []byte) SessionKeys {
	prk := extract(dhSecret)
	th := sha256.Sum256(transcript)
	var material [2 * KeySize]byte
	expand(&prk, material[:], []byte("peace/session:"), th[:])
	var sk SessionKeys
	copy(sk.Enc[:], material[:KeySize])
	copy(sk.Mac[:], material[KeySize:])
	return sk
}

// GCMNonceSize and GCMOverhead are the AEAD geometry of every sealed
// blob (nonce prefix + ciphertext + tag), so hot paths can size buffers
// without constructing an AEAD.
const (
	GCMNonceSize = 12
	GCMOverhead  = 16
)

// NewAEAD builds the AES-256-GCM AEAD for key. Every holder of a key
// caches the result — a session, a backbone link, a STEK generation — so
// the key schedule is paid once per key, never per seal or open.
func NewAEAD(key Key) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("symcrypto: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("symcrypto: gcm: %w", err)
	}
	return aead, nil
}

// MAC computes the session MAC over a sequence-numbered message, the
// MAC-based per-packet authentication of the hybrid design. The message
// may be given in consecutive parts; the tag is the same as over their
// concatenation.
func MAC(key Key, seq uint64, msg ...[]byte) [MACSize]byte {
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seq)
	var out [MACSize]byte
	hmacSHA256(&out, key[:], s[:], msg...)
	return out
}

// VerifyMAC checks a MAC tag in constant time.
func VerifyMAC(key Key, seq uint64, msg []byte, tag [MACSize]byte) error {
	want := MAC(key, seq, msg)
	if subtle.ConstantTimeCompare(want[:], tag[:]) != 1 {
		return ErrBadMAC
	}
	return nil
}
