package transport

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"github.com/peace-mesh/peace/internal/cert"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/wire"
)

// This file defines the wire formats of the metro backbone plane (see
// internal/backbone for the subsystem that speaks them):
//
//   - SessionData wraps one sealed core.DataFrame of user traffic toward
//     the attached router (KindSessionData).
//   - RouterHello / RouterWelcome run the certificate-authenticated link
//     handshake between two routers of one NO.
//   - LinkEnvelope is the AEAD-sealed carrier of everything the two
//     routers exchange after the handshake; its plaintext is a
//     GossipBody, a RelayBody or a list of OwnerAds depending on the
//     frame kind.

// SessionData is established-session user traffic: the payload is a
// core.DataFrame sealed under the session key, exactly like a keepalive
// ping, but carrying application bytes.
type SessionData struct {
	Frame *core.DataFrame
}

// BackboneNonceSize is the length of the handshake nonces mixed into a
// backbone link's keys.
const BackboneNonceSize = 16

// routerHelloTag / routerWelcomeTag version the signed handshake bodies.
const (
	routerHelloTag   = "peace/backbone-hello:v1"
	routerWelcomeTag = "peace/backbone-welcome:v1"
)

// RouterHello opens a backbone link: the initiator's NO-issued
// certificate, a fresh DH share (bn256 G1), a nonce, a timestamp, and an
// ECDSA signature under the certificate's key over all of it. Either
// router of a configured link may initiate; a fresh nonce after a crash
// simply re-runs the handshake and replaces the link keys.
type RouterHello struct {
	Cert      *cert.Certificate
	Share     []byte // marshaled bn256.G1
	Nonce     [BackboneNonceSize]byte
	Timestamp time.Time
	Sig       []byte
}

// SignedBody returns the byte string the hello signature covers. The
// subject identity is bound through the certificate, which is part of
// the body.
func (m *RouterHello) SignedBody() []byte {
	w := wire.NewWriter(256 + len(m.Share))
	w.StringField(routerHelloTag)
	w.BytesField(m.Cert.Marshal())
	w.BytesField(m.Share)
	w.BytesField(m.Nonce[:])
	w.Time(m.Timestamp)
	return w.Bytes()
}

// Marshal encodes the hello.
func (m *RouterHello) Marshal() []byte {
	w := wire.NewWriter(320 + len(m.Share))
	w.BytesField(m.Cert.Marshal())
	w.BytesField(m.Share)
	w.BytesField(m.Nonce[:])
	w.Time(m.Timestamp)
	w.BytesField(m.Sig)
	return w.Bytes()
}

// UnmarshalRouterHello decodes a hello. All fields are copied.
func UnmarshalRouterHello(data []byte) (*RouterHello, error) {
	r := wire.NewReader(data)
	m := &RouterHello{}
	cb, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if m.Cert, err = cert.UnmarshalCertificate(cb); err != nil {
		return nil, err
	}
	share, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	m.Share = append([]byte(nil), share...)
	nonce, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if len(nonce) != BackboneNonceSize {
		return nil, fmt.Errorf("transport: hello nonce size %d", len(nonce))
	}
	copy(m.Nonce[:], nonce)
	if m.Timestamp, err = r.Time(); err != nil {
		return nil, err
	}
	sig, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	m.Sig = append([]byte(nil), sig...)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// RouterWelcome answers a RouterHello: the responder's certificate and DH
// share, the initiator's nonce echoed (binding the answer to that exact
// hello), the responder's own nonce, a timestamp, and a signature over
// all of it.
type RouterWelcome struct {
	Cert      *cert.Certificate
	Share     []byte                  // marshaled bn256.G1
	Echo      [BackboneNonceSize]byte // initiator nonce echoed
	Nonce     [BackboneNonceSize]byte
	Timestamp time.Time
	Sig       []byte
}

// SignedBody returns the byte string the welcome signature covers.
func (m *RouterWelcome) SignedBody() []byte {
	w := wire.NewWriter(256 + len(m.Share))
	w.StringField(routerWelcomeTag)
	w.BytesField(m.Cert.Marshal())
	w.BytesField(m.Share)
	w.BytesField(m.Echo[:])
	w.BytesField(m.Nonce[:])
	w.Time(m.Timestamp)
	return w.Bytes()
}

// Marshal encodes the welcome.
func (m *RouterWelcome) Marshal() []byte {
	w := wire.NewWriter(320 + len(m.Share))
	w.BytesField(m.Cert.Marshal())
	w.BytesField(m.Share)
	w.BytesField(m.Echo[:])
	w.BytesField(m.Nonce[:])
	w.Time(m.Timestamp)
	w.BytesField(m.Sig)
	return w.Bytes()
}

// UnmarshalRouterWelcome decodes a welcome. All fields are copied.
func UnmarshalRouterWelcome(data []byte) (*RouterWelcome, error) {
	r := wire.NewReader(data)
	m := &RouterWelcome{}
	cb, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if m.Cert, err = cert.UnmarshalCertificate(cb); err != nil {
		return nil, err
	}
	share, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	m.Share = append([]byte(nil), share...)
	echo, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if len(echo) != BackboneNonceSize {
		return nil, fmt.Errorf("transport: welcome echo size %d", len(echo))
	}
	copy(m.Echo[:], echo)
	nonce, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if len(nonce) != BackboneNonceSize {
		return nil, fmt.Errorf("transport: welcome nonce size %d", len(nonce))
	}
	copy(m.Nonce[:], nonce)
	if m.Timestamp, err = r.Time(); err != nil {
		return nil, err
	}
	sig, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	m.Sig = append([]byte(nil), sig...)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// LinkEnvelope carries one backbone message on an established link: the
// sender's router ID (selecting which link's keys open it), a strictly
// increasing per-sender sequence number (replay window on the receiver),
// and the AEAD ciphertext. The AAD binds kind, sender and sequence, so
// an envelope cannot be replayed as a different kind or from a different
// peer.
type LinkEnvelope struct {
	From       string
	Seq        uint64
	Ciphertext []byte
}

// linkAADTag versions the envelope AAD.
const linkAADTag = "peace/backbone-aad:v1"

// LinkEnvelopeAAD returns the additional authenticated data sealing one
// envelope of the given kind.
func LinkEnvelopeAAD(kind Kind, from string, seq uint64) []byte {
	w := wire.NewWriter(48 + len(from))
	w.StringField(linkAADTag)
	w.Byte(byte(kind))
	w.StringField(from)
	w.Uint64(seq)
	return w.Bytes()
}

// AppendLinkEnvelopeAAD is LinkEnvelopeAAD without the Writer
// allocation; the layouts are byte-identical (pinned by a test), so
// envelopes sealed by either path open under the other.
func AppendLinkEnvelopeAAD(dst []byte, kind Kind, from string, seq uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(linkAADTag)))
	dst = append(dst, linkAADTag...)
	dst = append(dst, byte(kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(from)))
	dst = append(dst, from...)
	return binary.BigEndian.AppendUint64(dst, seq)
}

// LinkEnvelopeLen returns the marshaled size of a LinkEnvelope from
// `from` whose ciphertext is an AES-GCM sealing (nonce ‖ ct ‖ tag) of a
// ptLen-byte plaintext. The size is deterministic, so backbone egress
// paths can emit the frame header first and seal the envelope in place
// right after it.
func LinkEnvelopeLen(from string, ptLen int) int {
	return 4 + len(from) + 8 + // sender field + sequence
		4 + symcrypto.GCMNonceSize + ptLen + symcrypto.GCMOverhead // ciphertext field
}

// AppendLinkEnvelopeHeader appends the envelope fields that precede the
// sealed bytes — sender, sequence, and the ciphertext length prefix for
// a ptLen-byte plaintext. The caller appends nonce ‖ ct ‖ tag (exactly
// GCMNonceSize+ptLen+GCMOverhead bytes) right after to complete the
// LinkEnvelope wire format.
func AppendLinkEnvelopeHeader(dst []byte, from string, seq uint64, ptLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(from)))
	dst = append(dst, from...)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	return binary.BigEndian.AppendUint32(dst, uint32(symcrypto.GCMNonceSize+ptLen+symcrypto.GCMOverhead))
}

// Marshal encodes the envelope.
func (m *LinkEnvelope) Marshal() []byte {
	w := wire.NewWriter(48 + len(m.From) + len(m.Ciphertext))
	w.StringField(m.From)
	w.Uint64(m.Seq)
	w.BytesField(m.Ciphertext)
	return w.Bytes()
}

// UnmarshalLinkEnvelope decodes an envelope. The ciphertext is copied.
func UnmarshalLinkEnvelope(data []byte) (*LinkEnvelope, error) {
	r := wire.NewReader(data)
	m := &LinkEnvelope{}
	var err error
	if m.From, err = r.StringField(); err != nil {
		return nil, err
	}
	if m.Seq, err = r.Uint64(); err != nil {
		return nil, err
	}
	ct, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	m.Ciphertext = append([]byte(nil), ct...)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// RouteAd advertises reachability of one router in a gossip round.
type RouteAd struct {
	Router string
	Hops   uint32
}

// OwnerAd advertises that Owner adopted the session Next (resumed from
// Prev, previously attached at PrevRouter) and owns it until Expires —
// the grace window during which the previous router forwards in-flight
// frames instead of rejecting them.
//
// Seq numbers one copy of the ad on the link it is sealed for: every
// link direction counts its ads from 1, the receiver acknowledges the
// highest sequence below which it misses nothing (GossipBody.AdAck), and
// the sender re-sends what stays unacknowledged. It is not part of the
// ownership record; a stored record carries 0.
type OwnerAd struct {
	Seq        uint64
	Next       core.SessionID
	Prev       core.SessionID
	Owner      string
	PrevRouter string
	Expires    time.Time
}

// ownerAdMinLen is the encoded size of an OwnerAd with empty router IDs:
// the sequence, two length-prefixed 32-byte session IDs, two string
// headers and the expiry.
const ownerAdMinLen = 8 + 2*(4+32) + 2*4 + 8

func (a *OwnerAd) encodedLen() int {
	return ownerAdMinLen + len(a.Owner) + len(a.PrevRouter)
}

func appendOwnerAd(dst []byte, a *OwnerAd) []byte {
	dst = binary.BigEndian.AppendUint64(dst, a.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(a.Next)))
	dst = append(dst, a.Next[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(a.Prev)))
	dst = append(dst, a.Prev[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(a.Owner)))
	dst = append(dst, a.Owner...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(a.PrevRouter)))
	dst = append(dst, a.PrevRouter...)
	return binary.BigEndian.AppendUint64(dst, uint64(a.Expires.UnixNano()))
}

func readOwnerAd(r *wire.Reader, a *OwnerAd) error {
	var err error
	if a.Seq, err = r.Uint64(); err != nil {
		return err
	}
	next, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(next) != len(a.Next) {
		return fmt.Errorf("transport: owner ad session id size %d", len(next))
	}
	copy(a.Next[:], next)
	prev, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(prev) != len(a.Prev) {
		return fmt.Errorf("transport: owner ad session id size %d", len(prev))
	}
	copy(a.Prev[:], prev)
	if a.Owner, err = r.StringField(); err != nil {
		return err
	}
	if a.PrevRouter, err = r.StringField(); err != nil {
		return err
	}
	if a.Expires, err = r.Time(); err != nil {
		return err
	}
	return nil
}

// OwnerAdsFit returns how many of the leading ads one handoff-announce
// plaintext of at most max bytes can list — at least one, so a sender
// cutting a backlog into announces always makes progress.
func OwnerAdsFit(ads []OwnerAd, max int) int {
	size := 4
	for n := range ads {
		size += ads[n].encodedLen()
		if size > max && n > 0 {
			return n
		}
	}
	return len(ads)
}

// AppendOwnerAds appends the handoff-announce plaintext listing ads to
// dst. Every owner ad travels this way and no other: the immediate flood
// of a fresh handoff lists one, a retransmission round or the backlog of
// a new link as many as OwnerAdsFit allows per envelope.
func AppendOwnerAds(dst []byte, ads []OwnerAd) []byte {
	size := 4
	for i := range ads {
		size += ads[i].encodedLen()
	}
	dst = slices.Grow(dst, size)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ads)))
	for i := range ads {
		dst = appendOwnerAd(dst, &ads[i])
	}
	return dst
}

// UnmarshalOwnerAds decodes a handoff-announce plaintext.
func UnmarshalOwnerAds(data []byte) ([]OwnerAd, error) {
	r := wire.NewReader(data)
	n, err := r.Count(ownerAdMinLen)
	if err != nil {
		return nil, err
	}
	ads := make([]OwnerAd, n)
	for i := range ads {
		if err := readOwnerAd(r, &ads[i]); err != nil {
			return nil, err
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return ads, nil
}

// GossipBody is one gossip round on a link: the sender's boot epoch, its
// acknowledgement of the receiver's owner ads, and its distance-vector
// view of router reachability. It carries no owner ads itself, so its
// size depends on the number of routers, never on the handoff rate.
type GossipBody struct {
	BootEpoch uint64
	// AdAck is the highest ad sequence such that the sender holds every
	// ad the receiver numbered at or below it on this link (or the
	// receiver gave it up, see AdBase).
	AdAck uint64
	// AdBase is the lowest ad sequence the sender still holds
	// unacknowledged for the receiver; one past the last it assigned when
	// it holds none. Everything below is acknowledged or expired, so the
	// receiver stops waiting for it.
	AdBase uint64
	Routes []RouteAd
}

// Marshal encodes the gossip body.
func (m *GossipBody) Marshal() []byte {
	w := wire.NewWriter(32 + 32*len(m.Routes))
	w.Uint64(m.BootEpoch)
	w.Uint64(m.AdAck)
	w.Uint64(m.AdBase)
	w.Uint32(uint32(len(m.Routes)))
	for i := range m.Routes {
		w.StringField(m.Routes[i].Router)
		w.Uint32(m.Routes[i].Hops)
	}
	return w.Bytes()
}

// UnmarshalGossipBody decodes a gossip body.
func UnmarshalGossipBody(data []byte) (*GossipBody, error) {
	r := wire.NewReader(data)
	m := &GossipBody{}
	var err error
	if m.BootEpoch, err = r.Uint64(); err != nil {
		return nil, err
	}
	if m.AdAck, err = r.Uint64(); err != nil {
		return nil, err
	}
	if m.AdBase, err = r.Uint64(); err != nil {
		return nil, err
	}
	nr, err := r.Count(8) // ≥ 4-byte string header + 4-byte hops each
	if err != nil {
		return nil, err
	}
	m.Routes = make([]RouteAd, nr)
	for i := range m.Routes {
		if m.Routes[i].Router, err = r.StringField(); err != nil {
			return nil, err
		}
		if m.Routes[i].Hops, err = r.Uint32(); err != nil {
			return nil, err
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// RelayBody is one multi-hop forwarded data frame: the router that owns
// the session (Target), the router that first accepted the frame from
// the user (Origin), a hop budget, and the marshaled core.DataFrame —
// still sealed under the user's session key; intermediate routers relay
// ciphertext they cannot open.
type RelayBody struct {
	Target  string
	Origin  string
	TTL     uint8
	Payload []byte // marshaled core.DataFrame
}

// Marshal encodes the relay body.
func (m *RelayBody) Marshal() []byte {
	w := wire.NewWriter(32 + len(m.Target) + len(m.Origin) + len(m.Payload))
	w.StringField(m.Target)
	w.StringField(m.Origin)
	w.Byte(m.TTL)
	w.BytesField(m.Payload)
	return w.Bytes()
}

// UnmarshalRelayBody decodes a relay body. The payload is copied.
func UnmarshalRelayBody(data []byte) (*RelayBody, error) {
	r := wire.NewReader(data)
	m := &RelayBody{}
	var err error
	if m.Target, err = r.StringField(); err != nil {
		return nil, err
	}
	if m.Origin, err = r.StringField(); err != nil {
		return nil, err
	}
	if m.TTL, err = r.Byte(); err != nil {
		return nil, err
	}
	p, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	m.Payload = append([]byte(nil), p...)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodeLinkEnvelope frames a sealed envelope under one of the three
// link-encrypted kinds (gossip, relay, handoff announce).
func EncodeLinkEnvelope(kind Kind, env *LinkEnvelope) ([]byte, error) {
	switch kind {
	case KindGossip, KindRelay, KindHandoffAnnounce:
		return EncodeFrame(kind, env.Marshal())
	default:
		return nil, fmt.Errorf("transport: kind %v does not carry a link envelope", kind)
	}
}
