package backbone

import (
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"net"
	"slices"
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

// seqRun is a run of consecutive ad sequence numbers, both ends included.
type seqRun struct{ lo, hi uint64 }

// maxAheadRuns bounds how many disjoint runs past a gap an adWindow
// remembers. A sequence that would need one more is forgotten: the ad
// itself was still taken in, only its acknowledgement waits for the
// sender's next copy.
const maxAheadRuns = 64

// adWindow tracks which of the peer's owner-ad sequence numbers arrived
// on a link, so a gossip round can acknowledge the highest one below
// which nothing is missing. Ads are sealed in sequence order, so past a
// loss the arrivals form a few runs; once a retransmission fills the gap
// the acknowledgement jumps over all of them.
type adWindow struct {
	contig uint64   // every sequence ≤ contig arrived or was given up by the sender
	ahead  []seqRun // arrived past a gap: ascending, disjoint, non-adjacent, all > contig+1
}

// note records the arrival of seq.
func (w *adWindow) note(seq uint64) {
	if seq <= w.contig {
		return
	}
	if seq == w.contig+1 {
		w.contig = seq
		w.absorb()
		return
	}
	// The run that would hold seq is almost always the last one.
	i := len(w.ahead)
	for i > 0 && w.ahead[i-1].lo > seq {
		i--
	}
	if i > 0 && seq <= w.ahead[i-1].hi {
		return
	}
	joinsPrev := i > 0 && w.ahead[i-1].hi+1 == seq
	joinsNext := i < len(w.ahead) && w.ahead[i].lo == seq+1
	switch {
	case joinsPrev && joinsNext:
		w.ahead[i-1].hi = w.ahead[i].hi
		w.ahead = slices.Delete(w.ahead, i, i+1)
	case joinsPrev:
		w.ahead[i-1].hi = seq
	case joinsNext:
		w.ahead[i].lo = seq
	case len(w.ahead) < maxAheadRuns:
		w.ahead = slices.Insert(w.ahead, i, seqRun{lo: seq, hi: seq})
	}
}

// skipTo records that the sender holds nothing unacknowledged below base
// any more (acknowledged, or expired before a copy got through), so the
// window stops waiting for those sequences.
func (w *adWindow) skipTo(base uint64) {
	if base > w.contig+1 {
		w.contig = base - 1
		w.absorb()
	}
}

// absorb folds the runs contig has reached into it.
func (w *adWindow) absorb() {
	k := 0
	for k < len(w.ahead) && w.ahead[k].lo <= w.contig+1 {
		if w.ahead[k].hi > w.contig {
			w.contig = w.ahead[k].hi
		}
		k++
	}
	w.ahead = slices.Delete(w.ahead, 0, k)
}

// pendingAd is one owner ad numbered for a link and not yet acknowledged
// by the peer.
type pendingAd struct {
	seq  uint64
	ad   *ownerAd  // the node's stored record, immutable
	sent time.Time // first sealed; zero while never sealed
}

// link is one established router-to-router association: the peer's
// identity and address, the AEAD under the derived link key, a send sequence and
// a receive replay window, and the owner ads in flight in both
// directions. It belongs to the node's loop, like every other piece of
// node state. A re-handshake (peer restart, link timeout) replaces the
// whole link object, resetting every sequence space with the keys — the
// new link's ad queue starts over from every unexpired ad the node
// holds.
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
	// Owner-ad plane: the last ad sequence assigned on this link, the ads
	// the peer has not acknowledged (ascending sequence), when the last
	// round left, and the peer's sequences that arrived.
	adSeq     uint64
	unacked   []pendingAd
	lastRound time.Time
	adsIn     adWindow
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

// enqueueAds numbers ads for this link in order, queues them as
// unacknowledged with sent as the time of their first sealing — now when
// the caller seals them next, zero to leave that to the next round — and
// returns the first sequence it assigned.
func (l *link) enqueueAds(sent time.Time, ads ...*ownerAd) uint64 {
	first := l.adSeq + 1
	for _, ad := range ads {
		l.adSeq++
		l.unacked = append(l.unacked, pendingAd{seq: l.adSeq, ad: ad, sent: sent})
	}
	return first
}

// dueAds is the ad half of the round leaving at now. It forgets queued
// ads that expired, then returns a numbered copy of every one that is
// due: never sealed yet, or first sealed before the previous round left
// and still unacknowledged — the peer has had a whole round of its own
// to acknowledge it. With them come the two sequence fields of the
// round: the acknowledgement of the peer's ads, and the lowest sequence
// this side still holds.
func (l *link) dueAds(now time.Time) (due []ownerAd, ack, base uint64) {
	keep := l.unacked[:0]
	for _, p := range l.unacked {
		if !now.Before(p.ad.Expires) {
			continue
		}
		unsealed := p.sent.IsZero()
		if unsealed {
			p.sent = now
		}
		if unsealed || p.sent.Before(l.lastRound) {
			cp := *p.ad
			cp.Seq = p.seq
			due = append(due, cp)
		}
		keep = append(keep, p)
	}
	clear(l.unacked[len(keep):])
	l.unacked = keep
	l.lastRound = now
	base = l.adSeq + 1
	if len(keep) > 0 {
		base = keep[0].seq
	}
	return due, l.adsIn.contig, base
}

// peerRound takes in the two sequence fields of a round from the peer:
// ads it acknowledged leave the queue, and sequences it gave up stop
// holding back this side's acknowledgement.
func (l *link) peerRound(ack, base uint64) {
	k := 0
	for k < len(l.unacked) && l.unacked[k].seq <= ack {
		l.unacked[k].ad = nil
		k++
	}
	l.unacked = l.unacked[k:]
	l.adsIn.skipTo(base)
}

// noteAds records the arrival of the peer's ads.
func (l *link) noteAds(ads []ownerAd) {
	for i := range ads {
		l.adsIn.note(ads[i].Seq)
	}
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
