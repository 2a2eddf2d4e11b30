package backbone

import (
	"bytes"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/cert"
	"github.com/peace-mesh/peace/internal/wire"
)

// Marshal encodes the envelope the way sealAppend lays it out, for the
// round trip below; the node itself only ever seals in place.
func (m *linkEnvelope) Marshal() []byte {
	w := wire.NewWriter(48 + len(m.From) + len(m.Ciphertext))
	w.BytesField(m.From)
	w.Uint64(m.Seq)
	w.BytesField(m.Ciphertext)
	return w.Bytes()
}

// Marshal encodes the relay body as appendRelay lays it out, with the hop
// budget and kind the body holds, for the round trip below.
func (m *relayBody) Marshal() []byte {
	w := wire.NewWriter(16 + len(m.Target) + len(m.Origin) + len(m.Payload))
	w.BytesField(m.Target)
	w.BytesField(m.Origin)
	w.Byte(m.TTL)
	w.Byte(byte(m.Kind))
	w.BytesField(m.Payload)
	return w.Bytes()
}

// fuzzBackboneCert builds a structurally complete (unsigned, unverified)
// router certificate for backbone handshake fuzz seeds — the decoders
// under test parse structure only; signature checks happen later.
func fuzzBackboneCert() *cert.Certificate {
	c := &cert.Certificate{SubjectID: "metro-r00", Signature: []byte("sig")}
	c.PublicKey[0] = 1
	c.ExpiresAt = time.Unix(1700000000, 0).UTC()
	return c
}

// FuzzUnmarshalRouterHello throws arbitrary datagram payloads at the
// backbone handshake-initiation decoder: it parses untrusted bytes off
// the router's backbone socket before any authentication, so it must
// never panic and accepted hellos must round-trip byte-identically.
func FuzzUnmarshalRouterHello(f *testing.F) {
	seed := &routerHello{Cert: fuzzBackboneCert(), Share: []byte("dh share"), Sig: []byte("hello sig")}
	seed.Nonce[0] = 9
	seed.Timestamp = time.Unix(1700000001, 0).UTC()
	f.Add(seed.Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := unmarshalRouterHello(data)
		if err != nil {
			return
		}
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("router hello decode/encode round trip not identical")
		}
	})
}

// FuzzUnmarshalRouterWelcome is the responder-side twin.
func FuzzUnmarshalRouterWelcome(f *testing.F) {
	seed := &routerWelcome{Cert: fuzzBackboneCert(), Share: []byte("dh share"), Sig: []byte("welcome sig")}
	seed.Echo[1] = 3
	seed.Nonce[2] = 5
	seed.Timestamp = time.Unix(1700000002, 0).UTC()
	f.Add(seed.Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := unmarshalRouterWelcome(data)
		if err != nil {
			return
		}
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("router welcome decode/encode round trip not identical")
		}
	})
}

// FuzzUnmarshalLinkEnvelope covers the sealed-envelope decoder every
// post-handshake backbone datagram passes through.
func FuzzUnmarshalLinkEnvelope(f *testing.F) {
	f.Add((&linkEnvelope{From: []byte("metro-r01"), Seq: 7, Ciphertext: []byte("aead box")}).Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m linkEnvelope
		if unmarshalLinkEnvelope(data, &m) != nil {
			return
		}
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("link envelope decode/encode round trip not identical")
		}
	})
}

// FuzzUnmarshalGossipBody covers the gossip-round decoder. The body is
// authenticated link plaintext, but a hostile (certified-then-compromised)
// peer controls it fully, so it must fail cleanly on any mutation —
// a truncated route count included.
func FuzzUnmarshalGossipBody(f *testing.F) {
	body := &gossipBody{
		BootEpoch: 42,
		Routes:    []routeAd{{Router: "metro-r02", Hops: 2}},
	}
	f.Add(body.Marshal())
	f.Add((&gossipBody{}).Marshal())
	f.Add([]byte{})
	f.Add(body.Marshal()[:10]) // cut inside the route count
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := unmarshalGossipBody(data)
		if err != nil {
			return
		}
		if len(data) < 12 {
			t.Fatalf("accepted a %d-byte body: epoch and route count need 12", len(data))
		}
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("gossip body decode/encode round trip not identical")
		}
	})
}

// FuzzUnmarshalOwnerAds covers the owner-ad relay payload: the ads an
// adopter relays to their previous router, first copies and re-sends
// alike. Like the gossip body it is peer-controlled link plaintext; the
// ad count must be bounded by the bytes present and a truncated session
// ID refused.
func FuzzUnmarshalOwnerAds(f *testing.F) {
	var next, prev [32]byte
	next[0], prev[0] = 1, 2
	ad := ownerAd{
		Next: next, Prev: prev,
		Owner: "metro-r01", PrevRouter: "metro-r00",
		Expires: time.Unix(1700000003, 0).UTC(),
	}
	one := appendOwnerAds(nil, []ownerAd{ad})
	f.Add(one)
	f.Add(appendOwnerAds(nil, []ownerAd{ad, {}}))
	f.Add(appendOwnerAds(nil, nil))
	f.Add([]byte{})
	f.Add(one[:20])                       // cut inside the first session ID
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // four billion ads in four bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		ads, err := unmarshalOwnerAds(data)
		if err != nil {
			return
		}
		if len(ads)*ownerAdMinLen > len(data) {
			t.Fatalf("%d ads accepted from %d bytes", len(ads), len(data))
		}
		if !bytes.Equal(appendOwnerAds(nil, ads), data) {
			t.Fatal("owner ads decode/encode round trip not identical")
		}
		if n := ownerAdsFit(ads, len(data)); n != len(ads) {
			t.Fatalf("ownerAdsFit says %d of %d ads fit the %d bytes they decoded from", n, len(ads), len(data))
		}
	})
}

// FuzzUnmarshalRelayBody covers the decoder of everything routed across
// the backbone — data frames, owner ads and their acknowledgements — and
// at the target the decoder of each payload kind. The body is decoded in
// place, and a forwarding router patches the hop budget where ttlOffset
// says it lies.
func FuzzUnmarshalRelayBody(f *testing.F) {
	ad := ownerAd{Owner: "metro-r00", PrevRouter: "metro-r03", Expires: time.Unix(1700000003, 0).UTC()}
	ad.Next[0] = 1
	f.Add(appendRelay(nil, "metro-r03", "metro-r00", relayData, []byte("data frame")))
	f.Add([]byte{})
	f.Add(appendRelay(nil, "metro-r03", "metro-r00", relayAds, appendOwnerAds(nil, []ownerAd{ad})))
	f.Add(appendRelay(nil, "metro-r00", "metro-r03", relayAcks, appendAcks(nil, []ownerAd{ad, {}})))
	f.Add(appendRelay(nil, "metro-r03", "metro-r00", 7, []byte("a kind from a later build")))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m relayBody
		if unmarshalRelayBody(data, &m) != nil {
			return
		}
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("relay body decode/encode round trip not identical")
		}
		if data[m.ttlOffset()] != m.TTL {
			t.Fatalf("ttlOffset %d does not hold the hop budget", m.ttlOffset())
		}
		switch m.Kind {
		case relayAds:
			if ads, err := unmarshalOwnerAds(m.Payload); err == nil && !bytes.Equal(appendOwnerAds(nil, ads), m.Payload) {
				t.Fatal("owner-ad payload decode/encode round trip not identical")
			}
		case relayAcks:
			ids, err := unmarshalAcks(m.Payload)
			if err != nil {
				return
			}
			acked := make([]ownerAd, len(ids))
			for i := range ids {
				acked[i].Next = ids[i]
			}
			if !bytes.Equal(appendAcks(nil, acked), m.Payload) {
				t.Fatal("acknowledgement payload decode/encode round trip not identical")
			}
		}
	})
}
