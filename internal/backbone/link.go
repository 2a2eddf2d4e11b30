package backbone

import (
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"net"
	"time"

	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/transport"
	"github.com/peace-mesh/peace/internal/wire"
)

// errLinkReplay marks an envelope whose sequence number fell behind the
// receive window or was already accepted.
var errLinkReplay = errors.New("backbone: envelope replayed")

// replayWindow is a 64-deep sliding bitmap over per-sender envelope
// sequence numbers: the standard DTLS/IPsec anti-replay shape, sized for
// a UDP link that may reorder but not meaningfully delay.
type replayWindow struct {
	high uint64 // highest sequence accepted (0 = none yet)
	mask uint64 // bit i set ⇒ high-i accepted
}

// accept reports whether seq is fresh, and records it. Sequence numbers
// start at 1; 0 is never valid.
func (w *replayWindow) accept(seq uint64) bool {
	if seq == 0 {
		return false
	}
	if seq > w.high {
		shift := seq - w.high
		if shift >= 64 {
			w.mask = 1
		} else {
			w.mask = w.mask<<shift | 1
		}
		w.high = seq
		return true
	}
	back := w.high - seq
	if back >= 64 {
		return false
	}
	bit := uint64(1) << back
	if w.mask&bit != 0 {
		return false
	}
	w.mask |= bit
	return true
}

// link is one established router-to-router association: the peer's
// identity and address, the AEAD under the derived link key, a send
// sequence and a receive replay window. It belongs to the node's loop,
// like every other piece of node state. A re-handshake (peer restart,
// link timeout) replaces the whole link object, resetting the sequence
// space with the keys.
type link struct {
	peer string
	addr net.Addr
	// hello and welcome, on the responder's side, are the handshake the
	// link came from: a retransmitted hello gets the same welcome back.
	hello   [helloNonceSize]byte
	welcome []byte

	// aead is the cached AES-GCM instance for the link's Enc key (one key schedule
	// per handshake, not per envelope). nonceBase is this end's random
	// nonce prefix; sealAppend XORs the sequence number into it, keeping
	// deterministic nonces disjoint between the two ends even though both
	// seal under the same link key.
	aead      cipher.AEAD
	nonceBase [symcrypto.GCMNonceSize]byte

	sendSeq  uint64
	rw       replayWindow
	lastSeen time.Time
	// Seal and open scratch: the nonce and AAD must reach the AEAD
	// without a per-envelope heap escape. The node's one loop owns the
	// link, so sealing and opening share them.
	nonceScratch [symcrypto.GCMNonceSize]byte
	aadScratch   []byte
}

func newLink(peer string, addr net.Addr, keys symcrypto.SessionKeys, now time.Time) *link {
	l := &link{peer: peer, addr: addr, lastSeen: now}
	l.aead, _ = symcrypto.NewAEAD(keys.Enc) // never fails for a 32-byte key
	rand.Read(l.nonceBase[:])
	l.aadScratch = make([]byte, 0, 64+len(peer))
	return l
}

// sealAppend seals plaintext on this link and appends the complete
// marshaled linkEnvelope to dst, allocation-free for the batched egress
// path, under a deterministic nonce (nonceBase XOR seq). Give
// dst linkEnvelopeLen(self, len(plaintext)) spare capacity to
// avoid growth.
func (l *link) sealAppend(dst []byte, kind transport.Kind, self string, plaintext []byte) []byte {
	l.sendSeq++
	seq := l.sendSeq

	l.nonceScratch = l.nonceBase
	for i := 0; i < 8; i++ {
		l.nonceScratch[symcrypto.GCMNonceSize-1-i] ^= byte(seq >> (8 * i))
	}
	l.aadScratch = appendLinkEnvelopeAAD(l.aadScratch[:0], kind, self, seq)

	dst = appendLinkEnvelopeHeader(dst, self, seq, len(plaintext))
	dst = append(dst, l.nonceScratch[:]...)
	return l.aead.Seal(dst, l.nonceScratch[:], plaintext, l.aadScratch)
}

// open authenticates and decrypts an envelope received on this link at
// now, enforcing the replay window, and refreshes the liveness clock. The
// caller found the link by the envelope's sender, so the AAD names this
// link's peer. The cached AEAD skips the per-envelope key schedule; the
// ciphertext field is nonce ‖ ct ‖ tag, and it is opened in place: the
// plaintext overwrites the ciphertext in the envelope's datagram.
func (l *link) open(kind transport.Kind, env *linkEnvelope, now time.Time) ([]byte, error) {
	if len(env.Ciphertext) < symcrypto.GCMNonceSize+symcrypto.GCMOverhead {
		return nil, symcrypto.ErrDecrypt
	}
	l.aadScratch = appendLinkEnvelopeAAD(l.aadScratch[:0], kind, l.peer, env.Seq)
	nonce, ct := env.Ciphertext[:symcrypto.GCMNonceSize], env.Ciphertext[symcrypto.GCMNonceSize:]
	pt, err := l.aead.Open(ct[:0], nonce, ct, l.aadScratch)
	if err != nil {
		return nil, symcrypto.ErrDecrypt
	}
	if !l.rw.accept(env.Seq) {
		return nil, errLinkReplay
	}
	l.lastSeen = now
	return pt, nil
}

// deriveLinkKeys derives one link's symmetric keys from the handshake DH
// secret and the full transcript — both identities, both shares, both
// nonces, in initiator-then-responder order, so the two ends agree and a
// transplanted share changes the keys.
func deriveLinkKeys(dh []byte, initID, respID string, initShare, respShare, initNonce, respNonce []byte) symcrypto.SessionKeys {
	w := wire.NewWriter(256)
	w.StringField("peace/backbone-link:v1")
	w.StringField(initID)
	w.StringField(respID)
	w.BytesField(initShare)
	w.BytesField(respShare)
	w.BytesField(initNonce)
	w.BytesField(respNonce)
	return symcrypto.DeriveSessionKeys(dh, w.Bytes())
}
