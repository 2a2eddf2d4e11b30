package core

import (
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/wire"
)

// Session is an established security association after a successful AKA
// run: directional symmetric keys bound to the session identifier
// (g^{r_R}, g^{r_j}) — the paper's hybrid design authenticates and
// encrypts all subsequent traffic with these keys instead of group
// signatures.
type Session struct {
	// ID is the session identifier derived from the two DH shares.
	ID SessionID
	// Peer is a human-readable hint ("MR-3", "peer") — never an identity.
	Peer string
	// Established records when the AKA completed.
	Established time.Time

	keys symcrypto.SessionKeys

	// aead is the cached AES-GCM instance for keys.Enc — the key schedule
	// is paid once at establishment, not on every frame. nonceBase is a
	// per-instance random nonce prefix; the zero-alloc seal path XORs the
	// sequence number into it (the TLS 1.3 IV construction), which keeps
	// nonces unique per direction even though both endpoints seal under
	// the same Enc key: each endpoint's Session instance draws its own
	// random base, and collisions across 96-bit bases are negligible.
	aead      cipher.AEAD
	nonceBase [symcrypto.GCMNonceSize]byte

	mu      sync.Mutex
	sendSeq uint64
	// recvHigh is the highest sequence number accepted so far; frames at
	// or below it are replays.
	recvHigh uint64
	recvAny  bool
	// Seal/open scratch, guarded by mu: nonce and AAD must reach the
	// AEAD without a per-call heap escape.
	nonceScratch [symcrypto.GCMNonceSize]byte
	aadScratch   [frameAADSize]byte
}

// newSession derives the session keys from the DH secret and transcript.
func newSession(id SessionID, peer string, dhSecret, transcript []byte, established time.Time) *Session {
	s := &Session{
		ID:          id,
		Peer:        peer,
		Established: established,
		keys:        symcrypto.DeriveSessionKeys(dhSecret, transcript),
	}
	s.aead, _ = symcrypto.NewAEAD(s.keys.Enc) // never fails for a 32-byte key
	rand.Read(s.nonceBase[:])
	return s
}

// DataFrame is one unit of protected session traffic. Encrypted frames
// carry AEAD ciphertext; authenticated-only frames (the cheap MAC path of
// the hybrid design) carry the plaintext plus an HMAC tag.
type DataFrame struct {
	Session   SessionID
	Seq       uint64
	Encrypted bool
	Payload   []byte                  // ciphertext if Encrypted, plaintext otherwise
	Tag       [symcrypto.MACSize]byte // set when !Encrypted
}

// Marshal encodes the frame.
func (f *DataFrame) Marshal() []byte {
	w := wire.NewWriter(64 + len(f.Payload))
	w.BytesField(f.Session[:])
	w.Uint64(f.Seq)
	if f.Encrypted {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.BytesField(f.Payload)
	w.BytesField(f.Tag[:])
	return w.Bytes()
}

// UnmarshalDataFrame decodes a frame. The payload is copied, so the
// result outlives the input buffer.
func UnmarshalDataFrame(data []byte) (*DataFrame, error) {
	f := &DataFrame{}
	if err := UnmarshalDataFrameInto(data, f); err != nil {
		return nil, err
	}
	f.Payload = append([]byte(nil), f.Payload...)
	return f, nil
}

// UnmarshalDataFrameInto decodes a frame into f without allocating:
// f.Payload aliases data, so the caller must finish with f before reusing
// the receive buffer. This is the steady-state decode of the sharded read
// loops, where one scratch DataFrame per shard absorbs every keepalive.
func UnmarshalDataFrameInto(data []byte, f *DataFrame) error {
	r := wire.NewReader(data)
	sid, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(sid) != len(f.Session) {
		return fmt.Errorf("frame: session id size %d", len(sid))
	}
	copy(f.Session[:], sid)
	if f.Seq, err = r.Uint64(); err != nil {
		return err
	}
	enc, err := r.Byte()
	if err != nil {
		return err
	}
	f.Encrypted = enc == 1
	p, err := r.BytesField()
	if err != nil {
		return err
	}
	f.Payload = p
	tag, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(tag) != symcrypto.MACSize {
		return fmt.Errorf("frame: tag size %d", len(tag))
	}
	copy(f.Tag[:], tag)
	return r.Finish()
}

// frameAADSize is the encoded size of a frame's AAD: a length-prefixed
// session id plus the big-endian sequence number.
const frameAADSize = 4 + len(SessionID{}) + 8

// appendFrameAAD appends the AAD binding a frame to its session and
// sequence number.
func appendFrameAAD(dst []byte, id SessionID, seq uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(id)))
	dst = append(dst, id[:]...)
	return binary.BigEndian.AppendUint64(dst, seq)
}

// SealedDataLen returns the marshaled size of an encrypted DataFrame
// carrying a payload of n plaintext bytes — the frame layout is
// deterministic, so egress paths can reserve exactly this much and
// encode header-first without a second copy.
func SealedDataLen(n int) int {
	return 4 + len(SessionID{}) + // session id field
		8 + 1 + // seq + encrypted flag
		4 + symcrypto.GCMNonceSize + n + symcrypto.GCMOverhead + // nonce || ciphertext field
		4 + symcrypto.MACSize // (zero) tag field
}

// AppendSealedData seals payload under the session's cached AEAD and
// appends the complete marshaled DataFrame to dst, returning the
// extended slice. It is the zero-allocation twin of SealData+Marshal:
// same wire format, deterministic nonce (nonceBase XOR seq) instead of
// a drawn one, no intermediate frame. Give dst
// SealedDataLen(len(payload)) spare capacity to avoid growth.
func (s *Session) AppendSealedData(dst, payload []byte) ([]byte, error) {
	if s.aead == nil {
		return dst, fmt.Errorf("session %s: sealing unavailable", s.ID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq, aad := s.nextSealLocked()

	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.ID)))
	dst = append(dst, s.ID[:]...)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = append(dst, 1)
	dst = binary.BigEndian.AppendUint32(dst, uint32(symcrypto.GCMNonceSize+len(payload)+symcrypto.GCMOverhead))
	dst = append(dst, s.nonceScratch[:]...)
	dst = s.aead.Seal(dst, s.nonceScratch[:], payload, aad)
	dst = binary.BigEndian.AppendUint32(dst, symcrypto.MACSize)
	var zeroTag [symcrypto.MACSize]byte
	return append(dst, zeroTag[:]...), nil
}

// SealInPlace seals buf[GCMNonceSize:], a plaintext the caller encoded
// straight into its frame behind a GCMNonceSize gap, as the session's
// next data sequence number: AppendSealedData's nonce and AAD, the
// ciphertext written over the plaintext. It returns nonce ‖ ciphertext ‖
// tag in buf's array when buf has GCMOverhead spare capacity; that is
// the payload of an encrypted DataFrame at the sequence number taken.
func (s *Session) SealInPlace(buf []byte) ([]byte, error) {
	if s.aead == nil {
		return nil, fmt.Errorf("session %s: sealing unavailable", s.ID)
	}
	if len(buf) < symcrypto.GCMNonceSize {
		return nil, fmt.Errorf("session %s: sealing buffer of %d bytes", s.ID, len(buf))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, aad := s.nextSealLocked()
	nonce := buf[:symcrypto.GCMNonceSize]
	copy(nonce, s.nonceScratch[:])
	return s.aead.Seal(nonce, nonce, buf[symcrypto.GCMNonceSize:], aad), nil
}

// nextSealLocked takes the next send sequence number and fills the nonce
// scratch (nonceBase XOR seq) and the AAD for it. s.mu must be held.
func (s *Session) nextSealLocked() (seq uint64, aad []byte) {
	seq = s.sendSeq
	s.sendSeq++
	s.nonceScratch = s.nonceBase
	for i := 0; i < 8; i++ {
		s.nonceScratch[symcrypto.GCMNonceSize-1-i] ^= byte(seq >> (8 * i))
	}
	return seq, appendFrameAAD(s.aadScratch[:0], s.ID, seq)
}

// OpenDataInto verifies (and if encrypted, decrypts under the cached
// AEAD) an incoming frame, enforcing strictly increasing sequence numbers
// as replay defense, and appends the plaintext to dst. With
// len(f.Payload) spare capacity in dst it does not allocate — the batched
// ingest path relies on that.
func (s *Session) OpenDataInto(f *DataFrame, dst []byte) ([]byte, error) {
	if f.Session != s.ID {
		return nil, fmt.Errorf("session %s: %w", s.ID, ErrNoSession)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var pt []byte
	if f.Encrypted {
		if s.aead == nil || len(f.Payload) < symcrypto.GCMNonceSize+symcrypto.GCMOverhead {
			return nil, fmt.Errorf("session %s: %w", s.ID, symcrypto.ErrDecrypt)
		}
		nonce := f.Payload[:symcrypto.GCMNonceSize]
		ct := f.Payload[symcrypto.GCMNonceSize:]
		aad := appendFrameAAD(s.aadScratch[:0], s.ID, f.Seq)
		var err error
		if pt, err = s.aead.Open(dst, nonce, ct, aad); err != nil {
			return nil, fmt.Errorf("session %s: %w", s.ID, symcrypto.ErrDecrypt)
		}
	} else {
		if err := symcrypto.VerifyMAC(s.keys.Mac, f.Seq, f.Payload, f.Tag); err != nil {
			return nil, fmt.Errorf("session %s: %w", s.ID, err)
		}
		pt = append(dst, f.Payload...)
	}
	if s.recvAny && f.Seq <= s.recvHigh {
		return nil, fmt.Errorf("session %s: seq %d: %w", s.ID, f.Seq, ErrReplay)
	}
	s.recvHigh = f.Seq
	s.recvAny = true
	return pt, nil
}

// OpenData is OpenDataInto with a freshly allocated plaintext.
func (s *Session) OpenData(f *DataFrame) ([]byte, error) {
	return s.OpenDataInto(f, nil)
}

// SealData encrypts and authenticates payload under the cached AEAD with
// a nonce drawn from rng — AppendSealedData's wire format, as a frame
// the caller can still inspect or marshal.
func (s *Session) SealData(rng io.Reader, payload []byte) (*DataFrame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.sendSeq
	ct, err := s.sealBlob(rng, payload, appendFrameAAD(s.aadScratch[:0], s.ID, seq))
	if err != nil {
		return nil, err
	}
	s.sendSeq++
	return &DataFrame{Session: s.ID, Seq: seq, Encrypted: true, Payload: ct}, nil
}

// sealBlob encrypts payload under the cached AEAD with a nonce drawn
// from rng, binding aad: nonce ‖ ciphertext ‖ tag, the layout of the key
// confirmations M.3 and M̃.3.
func (s *Session) sealBlob(rng io.Reader, payload, aad []byte) ([]byte, error) {
	if s.aead == nil {
		return nil, fmt.Errorf("session %s: sealing unavailable", s.ID)
	}
	out := make([]byte, symcrypto.GCMNonceSize, symcrypto.GCMNonceSize+len(payload)+symcrypto.GCMOverhead)
	if _, err := io.ReadFull(rng, out); err != nil {
		return nil, fmt.Errorf("session %s: nonce: %w", s.ID, err)
	}
	return s.aead.Seal(out, out, payload, aad), nil
}

// openBlob authenticates and decrypts a sealBlob output; any failure is
// symcrypto.ErrDecrypt.
func (s *Session) openBlob(blob, aad []byte) ([]byte, error) {
	if s.aead == nil || len(blob) < symcrypto.GCMNonceSize+symcrypto.GCMOverhead {
		return nil, symcrypto.ErrDecrypt
	}
	pt, err := s.aead.Open(nil, blob[:symcrypto.GCMNonceSize], blob[symcrypto.GCMNonceSize:], aad)
	if err != nil {
		return nil, symcrypto.ErrDecrypt
	}
	return pt, nil
}

// AuthData authenticates payload without encrypting it (the MAC-only path
// used to benchmark the hybrid design of Section V.C).
func (s *Session) AuthData(payload []byte) *DataFrame {
	s.mu.Lock()
	seq := s.sendSeq
	s.sendSeq++
	s.mu.Unlock()

	tag := symcrypto.MAC(s.keys.Mac, seq, payload)
	return &DataFrame{Session: s.ID, Seq: seq, Payload: append([]byte(nil), payload...), Tag: tag}
}

// RecvSeq reports the highest data-frame sequence number accepted so far
// and whether any frame has been accepted at all. Multi-hop harnesses use
// it to order sends: a frame relayed across the backbone must land before
// a direct frame with a higher sequence is emitted, or the strictly
// increasing receive rule would drop the straggler as a replay.
func (s *Session) RecvSeq() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recvHigh, s.recvAny
}

// keysEqual reports whether two sessions derived identical key material
// (test helper used by protocol integration tests).
func (s *Session) keysEqual(o *Session) bool {
	return s.keys == o.keys
}
