package symcrypto

import (
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrUnknownTicketKey is returned by TicketKeyRing.Open when the blob
// names a key generation the ring no longer (or never) held — the signal
// that a resumption ticket has rotated out and the client must run the
// full handshake again.
var ErrUnknownTicketKey = errors.New("symcrypto: unknown ticket key generation")

// stekIDSize is the length of the key-generation prefix on sealed blobs.
const stekIDSize = 8

// SealHeaderSize is where the plaintext starts in a ticket sealing
// buffer and the ciphertext in a sealed blob: the generation identifier,
// then the nonce.
const SealHeaderSize = stekIDSize + GCMNonceSize

// stekKey is one STEK generation: a random 64-bit identifier (carried in
// the clear on every sealed blob so Open can pick the right generation)
// and the AEAD built once from the generation's key, so no seal or open
// pays a key schedule.
type stekKey struct {
	id   uint64
	aead cipher.AEAD
}

// TicketKeyRing holds the server's rotating Session Ticket Encryption
// Keys (STEKs). Seal always uses the newest generation; Open accepts the
// newest plus a bounded number of rotated-out generations (the old-key
// grace window), so tickets issued just before a rotation keep working
// for one more rotation period. The ring is deliberately independent of
// any one server instance: sharing it across process incarnations is what
// lets a restarted server honor tickets issued by its predecessor.
type TicketKeyRing struct {
	mu sync.RWMutex
	// keys[0] is the sealing generation; the tail is the grace window.
	keys   []stekKey
	maxOld int
}

// NewTicketKeyRing creates a ring with one fresh key generation and a
// grace window of one rotated-out generation.
func NewTicketKeyRing(rng io.Reader) (*TicketKeyRing, error) {
	r := &TicketKeyRing{maxOld: 1}
	if err := r.Rotate(rng); err != nil {
		return nil, err
	}
	return r, nil
}

// newStekKey draws a fresh generation from rng.
func newStekKey(rng io.Reader) (stekKey, error) {
	var k stekKey
	var idb [stekIDSize]byte
	if _, err := io.ReadFull(rng, idb[:]); err != nil {
		return k, fmt.Errorf("symcrypto: ticket key id: %w", err)
	}
	k.id = binary.BigEndian.Uint64(idb[:])
	var key Key
	if _, err := io.ReadFull(rng, key[:]); err != nil {
		return k, fmt.Errorf("symcrypto: ticket key: %w", err)
	}
	aead, err := NewAEAD(key)
	if err != nil {
		return k, err
	}
	k.aead = aead
	return k, nil
}

// Rotate installs a fresh sealing generation and trims the grace window,
// permanently retiring the oldest keys. Tickets sealed under a retired
// generation fail Open with ErrUnknownTicketKey.
func (r *TicketKeyRing) Rotate(rng io.Reader) error {
	k, err := newStekKey(rng)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys = append([]stekKey{k}, r.keys...)
	if len(r.keys) > 1+r.maxOld {
		r.keys = r.keys[:1+r.maxOld]
	}
	return nil
}

// CurrentID returns the identifier of the sealing generation.
func (r *TicketKeyRing) CurrentID() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.keys[0].id
}

// Generations returns how many key generations can currently Open.
func (r *TicketKeyRing) Generations() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.keys)
}

// Seal encrypts plaintext under the current generation, binding aad, and
// prepends the generation identifier in the clear: id ‖ nonce ‖ ct ‖ tag.
func (r *TicketKeyRing) Seal(rng io.Reader, plaintext, aad []byte) ([]byte, error) {
	buf := make([]byte, SealHeaderSize, SealHeaderSize+len(plaintext)+GCMOverhead)
	return r.SealInPlace(rng, append(buf, plaintext...), aad)
}

// SealInPlace is Seal for a caller that encoded its plaintext straight
// into the blob: buf[SealHeaderSize:] is the plaintext, buf[:SealHeaderSize]
// is overwritten with the generation identifier and a nonce drawn from
// rng, and the plaintext is encrypted where it lies. Give buf GCMOverhead
// spare capacity and the sealed blob comes back in the same array.
func (r *TicketKeyRing) SealInPlace(rng io.Reader, buf, aad []byte) ([]byte, error) {
	if len(buf) < SealHeaderSize {
		return nil, fmt.Errorf("symcrypto: sealing buffer of %d bytes", len(buf))
	}
	r.mu.RLock()
	k := r.keys[0]
	r.mu.RUnlock()

	binary.BigEndian.PutUint64(buf, k.id)
	nonce := buf[stekIDSize:SealHeaderSize]
	if _, err := io.ReadFull(rng, nonce); err != nil {
		return nil, fmt.Errorf("symcrypto: nonce: %w", err)
	}
	pt := buf[SealHeaderSize:]
	return k.aead.Seal(buf[:SealHeaderSize], nonce, pt, aad), nil
}

// Open decrypts a Seal output, selecting the generation named by the blob
// prefix. A generation outside the grace window yields
// ErrUnknownTicketKey; a tampered blob yields ErrDecrypt. The plaintext
// is a fresh slice the caller owns.
func (r *TicketKeyRing) Open(blob, aad []byte) ([]byte, error) {
	return r.OpenAppend(nil, blob, aad)
}

// OpenAppend is Open that appends the plaintext to dst, so a caller with a
// scratch buffer of enough capacity opens without allocating. dst and
// blob must not overlap.
func (r *TicketKeyRing) OpenAppend(dst, blob, aad []byte) ([]byte, error) {
	if len(blob) < stekIDSize {
		return nil, ErrUnknownTicketKey
	}
	aead := r.generation(binary.BigEndian.Uint64(blob[:stekIDSize]))
	if aead == nil {
		return nil, ErrUnknownTicketKey
	}
	if len(blob) < SealHeaderSize+GCMOverhead {
		return nil, ErrDecrypt
	}
	pt, err := aead.Open(dst, blob[stekIDSize:SealHeaderSize], blob[SealHeaderSize:], aad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// generation returns the AEAD of the generation named id, or nil when
// the ring no longer (or never) held it.
func (r *TicketKeyRing) generation(id uint64) cipher.AEAD {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, k := range r.keys {
		if k.id == id {
			return k.aead
		}
	}
	return nil
}
