package backbone

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"github.com/peace-mesh/peace/internal/cert"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/transport"
	"github.com/peace-mesh/peace/internal/wire"
)

// The backbone's wire formats. The frame kinds that carry them are in
// transport's one kind table.
//
//   - routerHello / routerWelcome run the certificate-authenticated link
//     handshake between two routers of one NO.
//   - linkEnvelope is the AEAD-sealed carrier of everything the two
//     routers exchange after the handshake; its plaintext is a
//     gossipBody or a relayBody depending on the frame kind, and a
//     relayBody carries a data frame, a list of ownerAds or a list of
//     their acknowledgements depending on its payload kind.

// helloNonceSize is the length of the handshake nonces mixed into a
// backbone link's keys.
const helloNonceSize = 16

// routerHelloTag / routerWelcomeTag version the signed handshake bodies.
const (
	routerHelloTag   = "peace/backbone-hello:v1"
	routerWelcomeTag = "peace/backbone-welcome:v1"
)

// routerHello opens a backbone link: the initiator's NO-issued
// certificate, a fresh DH share (bn256 G1), a nonce, a timestamp, and an
// ECDSA signature under the certificate's key over all of it. Either
// router of a configured link may initiate; a fresh nonce after a crash
// simply re-runs the handshake and replaces the link keys.
type routerHello struct {
	Cert      *cert.Certificate
	Share     []byte // marshaled bn256.G1
	Nonce     [helloNonceSize]byte
	Timestamp time.Time
	Sig       []byte
}

// SignedBody returns the byte string the hello signature covers. The
// subject identity is bound through the certificate, which is part of
// the body.
func (m *routerHello) SignedBody() []byte {
	w := wire.NewWriter(256 + len(m.Share))
	w.StringField(routerHelloTag)
	w.BytesField(m.Cert.Marshal())
	w.BytesField(m.Share)
	w.BytesField(m.Nonce[:])
	w.Time(m.Timestamp)
	return w.Bytes()
}

// Marshal encodes the hello.
func (m *routerHello) Marshal() []byte {
	w := wire.NewWriter(320 + len(m.Share))
	w.BytesField(m.Cert.Marshal())
	w.BytesField(m.Share)
	w.BytesField(m.Nonce[:])
	w.Time(m.Timestamp)
	w.BytesField(m.Sig)
	return w.Bytes()
}

// unmarshalRouterHello decodes a hello. All fields are copied.
func unmarshalRouterHello(data []byte) (*routerHello, error) {
	r := wire.NewReader(data)
	m := &routerHello{}
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
	if len(nonce) != helloNonceSize {
		return nil, fmt.Errorf("backbone: hello nonce size %d", len(nonce))
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

// routerWelcome answers a routerHello: the responder's certificate and DH
// share, the initiator's nonce echoed (binding the answer to that exact
// hello), the responder's own nonce, a timestamp, and a signature over
// all of it.
type routerWelcome struct {
	Cert      *cert.Certificate
	Share     []byte               // marshaled bn256.G1
	Echo      [helloNonceSize]byte // initiator nonce echoed
	Nonce     [helloNonceSize]byte
	Timestamp time.Time
	Sig       []byte
}

// SignedBody returns the byte string the welcome signature covers.
func (m *routerWelcome) SignedBody() []byte {
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
func (m *routerWelcome) Marshal() []byte {
	w := wire.NewWriter(320 + len(m.Share))
	w.BytesField(m.Cert.Marshal())
	w.BytesField(m.Share)
	w.BytesField(m.Echo[:])
	w.BytesField(m.Nonce[:])
	w.Time(m.Timestamp)
	w.BytesField(m.Sig)
	return w.Bytes()
}

// unmarshalRouterWelcome decodes a welcome. All fields are copied.
func unmarshalRouterWelcome(data []byte) (*routerWelcome, error) {
	r := wire.NewReader(data)
	m := &routerWelcome{}
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
	if len(echo) != helloNonceSize {
		return nil, fmt.Errorf("backbone: welcome echo size %d", len(echo))
	}
	copy(m.Echo[:], echo)
	nonce, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if len(nonce) != helloNonceSize {
		return nil, fmt.Errorf("backbone: welcome nonce size %d", len(nonce))
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

// linkEnvelope carries one backbone message on an established link: the
// sender's router ID (selecting which link's keys open it), a strictly
// increasing per-sender sequence number (replay window on the receiver),
// and the AEAD ciphertext. The AAD binds kind, sender and sequence, so
// an envelope cannot be replayed as a different kind or from a different
// peer. A decoded envelope aliases the datagram it came in: From and
// Ciphertext are slices of the ingest slot, valid until its next read.
type linkEnvelope struct {
	From       []byte
	Seq        uint64
	Ciphertext []byte
}

// linkAADTag versions the envelope AAD, and with it the plaintexts sealed
// under it, which carry no label of their own: v2 gave the relay body its
// payload kind and took the ad acknowledgement out of the gossip body, so
// an envelope of a v1 router fails to open instead of being misparsed.
const linkAADTag = "peace/backbone-aad:v2"

// appendLinkEnvelopeAAD appends the additional authenticated data
// sealing one envelope of the given kind: the tag, the kind, the sender
// and the sequence, in the layout of a wire.Writer.
func appendLinkEnvelopeAAD(dst []byte, kind transport.Kind, from string, seq uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(linkAADTag)))
	dst = append(dst, linkAADTag...)
	dst = append(dst, byte(kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(from)))
	dst = append(dst, from...)
	return binary.BigEndian.AppendUint64(dst, seq)
}

// linkEnvelopeLen returns the marshaled size of a linkEnvelope from
// `from` whose ciphertext is an AES-GCM sealing (nonce ‖ ct ‖ tag) of a
// ptLen-byte plaintext. The size is deterministic, so backbone egress
// paths can emit the frame header first and seal the envelope in place
// right after it.
func linkEnvelopeLen(from string, ptLen int) int {
	return 4 + len(from) + 8 + // sender field + sequence
		4 + symcrypto.GCMNonceSize + ptLen + symcrypto.GCMOverhead // ciphertext field
}

// appendLinkEnvelopeHeader appends the envelope fields that precede the
// sealed bytes — sender, sequence, and the ciphertext length prefix for
// a ptLen-byte plaintext. The caller appends nonce ‖ ct ‖ tag (exactly
// GCMNonceSize+ptLen+GCMOverhead bytes) right after to complete the
// linkEnvelope wire format.
func appendLinkEnvelopeHeader(dst []byte, from string, seq uint64, ptLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(from)))
	dst = append(dst, from...)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	return binary.BigEndian.AppendUint32(dst, uint32(symcrypto.GCMNonceSize+ptLen+symcrypto.GCMOverhead))
}

// unmarshalLinkEnvelope decodes an envelope into m, which aliases data:
// nothing is copied.
func unmarshalLinkEnvelope(data []byte, m *linkEnvelope) error {
	r := wire.NewReader(data)
	var err error
	if m.From, err = r.BytesField(); err != nil {
		return err
	}
	if m.Seq, err = r.Uint64(); err != nil {
		return err
	}
	if m.Ciphertext, err = r.BytesField(); err != nil {
		return err
	}
	return r.Finish()
}

// routeAd advertises reachability of one router in a gossip round.
type routeAd struct {
	Router string
	Hops   uint32
}

// ownerAd tells PrevRouter that Owner adopted the session Next (resumed
// from Prev, previously attached at PrevRouter) and owns it until Expires
// — the grace window during which the previous router forwards in-flight
// frames instead of rejecting them. It is relayed to PrevRouter alone,
// which acknowledges it by Next.
type ownerAd struct {
	Next       core.SessionID
	Prev       core.SessionID
	Owner      string
	PrevRouter string
	Expires    time.Time
}

// sessionIDLen is the encoded size of a session ID: length-prefixed.
const sessionIDLen = 4 + len(core.SessionID{})

// ownerAdMinLen is the encoded size of an ownerAd with empty router IDs:
// two session IDs, two string headers and the expiry.
const ownerAdMinLen = 2*sessionIDLen + 2*4 + 8

func (a *ownerAd) encodedLen() int {
	return ownerAdMinLen + len(a.Owner) + len(a.PrevRouter)
}

func appendOwnerAd(dst []byte, a *ownerAd) []byte {
	dst = wire.AppendBytesField(dst, a.Next[:])
	dst = wire.AppendBytesField(dst, a.Prev[:])
	dst = wire.AppendStringField(dst, a.Owner)
	dst = wire.AppendStringField(dst, a.PrevRouter)
	return wire.AppendTime(dst, a.Expires)
}

// readSessionID reads one length-prefixed session ID into id.
func readSessionID(r *wire.Reader, id *core.SessionID) error {
	b, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(b) != len(id) {
		return fmt.Errorf("backbone: session id size %d", len(b))
	}
	copy(id[:], b)
	return nil
}

func readOwnerAd(r *wire.Reader, a *ownerAd) error {
	if err := readSessionID(r, &a.Next); err != nil {
		return err
	}
	if err := readSessionID(r, &a.Prev); err != nil {
		return err
	}
	var err error
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

// ownerAdsFit returns how many of the leading ads one owner-ad payload
// of at most max bytes can list — at least one, so a sender cutting a
// list into relays always makes progress.
func ownerAdsFit(ads []ownerAd, max int) int {
	size := 4
	for n := range ads {
		size += ads[n].encodedLen()
		if size > max && n > 0 {
			return n
		}
	}
	return len(ads)
}

// appendOwnerAds appends the relay payload listing ads to dst.
func appendOwnerAds(dst []byte, ads []ownerAd) []byte {
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

// ownerAdsCount returns how many ads an owner-ad relay payload lists, read
// from its count prefix without decoding them (and never more than its
// length can hold): what a router forwarding the payload counts as sent.
func ownerAdsCount(payload []byte) int {
	if len(payload) < 4 {
		return 0
	}
	return int(min(binary.BigEndian.Uint32(payload), uint32((len(payload)-4)/ownerAdMinLen)))
}

// unmarshalOwnerAds decodes an owner-ad relay payload. Every field is
// copied.
func unmarshalOwnerAds(data []byte) ([]ownerAd, error) {
	r := wire.NewReader(data)
	n, err := r.Count(ownerAdMinLen)
	if err != nil {
		return nil, err
	}
	ads := make([]ownerAd, n)
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

// appendAcks appends the relay payload acknowledging ads to dst: their
// adopted sessions.
func appendAcks(dst []byte, ads []ownerAd) []byte {
	dst = slices.Grow(dst, 4+len(ads)*sessionIDLen)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ads)))
	for i := range ads {
		dst = wire.AppendBytesField(dst, ads[i].Next[:])
	}
	return dst
}

// unmarshalAcks decodes an acknowledgement relay payload.
func unmarshalAcks(data []byte) ([]core.SessionID, error) {
	r := wire.NewReader(data)
	n, err := r.Count(sessionIDLen)
	if err != nil {
		return nil, err
	}
	ids := make([]core.SessionID, n)
	for i := range ids {
		if err := readSessionID(r, &ids[i]); err != nil {
			return nil, err
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return ids, nil
}

// gossipBody is one gossip round on a link: the sender's boot epoch and
// its distance-vector view of router reachability. Its size depends on
// the number of routers, never on the handoff rate.
type gossipBody struct {
	BootEpoch uint64
	Routes    []routeAd
}

// Marshal encodes the gossip body.
func (m *gossipBody) Marshal() []byte {
	w := wire.NewWriter(16 + 32*len(m.Routes))
	w.Uint64(m.BootEpoch)
	w.Uint32(uint32(len(m.Routes)))
	for i := range m.Routes {
		w.StringField(m.Routes[i].Router)
		w.Uint32(m.Routes[i].Hops)
	}
	return w.Bytes()
}

// unmarshalGossipBody decodes a gossip body.
func unmarshalGossipBody(data []byte) (*gossipBody, error) {
	r := wire.NewReader(data)
	m := &gossipBody{}
	var err error
	if m.BootEpoch, err = r.Uint64(); err != nil {
		return nil, err
	}
	nr, err := r.Count(8) // ≥ 4-byte string header + 4-byte hops each
	if err != nil {
		return nil, err
	}
	m.Routes = make([]routeAd, nr)
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

// relayKind says what a relay body's payload is. Routers on the path
// forward every kind alike; only the target reads it.
type relayKind uint8

const (
	relayData relayKind = iota // a marshaled core.DataFrame
	relayAds                   // a list of ownerAds, for their previous router
	relayAcks                  // a list of acknowledged ownerAd Next IDs, for the adopter
)

// relayBody is one message routed multi-hop across the backbone: the
// router it is for (Target), the router that sent it (Origin), a hop
// budget, and a payload of a kind. A data frame stays sealed under the
// user's session key; intermediate routers relay ciphertext they cannot
// open, and owner ads and their acknowledgements they do not read. A
// decoded body aliases the plaintext it came in.
type relayBody struct {
	Target  []byte
	Origin  []byte
	TTL     uint8
	Kind    relayKind
	Payload []byte
}

// relayHeaderLen is the encoded size of a relay body's fields before the
// payload's bytes.
func relayHeaderLen(target, origin string) int {
	return 4 + len(target) + 4 + len(origin) + 1 + 1 + 4
}

// appendRelay appends a relay body from origin to target, with the full
// hop budget, to dst.
func appendRelay(dst []byte, target, origin string, kind relayKind, payload []byte) []byte {
	dst = slices.Grow(dst, relayHeaderLen(target, origin)+len(payload))
	dst = wire.AppendStringField(dst, target)
	dst = wire.AppendStringField(dst, origin)
	dst = append(dst, relayTTL, byte(kind))
	return wire.AppendBytesField(dst, payload)
}

// ttlOffset is where the hop budget of m lies in the plaintext it was
// decoded from, for a router that forwards it in place.
func (m *relayBody) ttlOffset() int { return 4 + len(m.Target) + 4 + len(m.Origin) }

// unmarshalRelayBody decodes a relay body into m, which aliases data:
// nothing is copied.
func unmarshalRelayBody(data []byte, m *relayBody) error {
	r := wire.NewReader(data)
	var err error
	if m.Target, err = r.BytesField(); err != nil {
		return err
	}
	if m.Origin, err = r.BytesField(); err != nil {
		return err
	}
	if m.TTL, err = r.Byte(); err != nil {
		return err
	}
	kind, err := r.Byte()
	if err != nil {
		return err
	}
	m.Kind = relayKind(kind)
	if m.Payload, err = r.BytesField(); err != nil {
		return err
	}
	return r.Finish()
}
