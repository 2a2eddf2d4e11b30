package transport

import (
	"bytes"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/cert"
)

// FuzzDecodeFrame throws arbitrary datagrams at the frame decoder. The
// decoder guards every UDP read in the daemon, so it must never panic and
// every accepted frame must re-encode to the identical datagram.
func FuzzDecodeFrame(f *testing.F) {
	for _, kind := range []Kind{KindBeaconRequest, KindBeacon, KindAccessRequest, KindReject} {
		frame, err := EncodeFrame(kind, []byte("seed payload"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:HeaderSize])
	}
	f.Add([]byte{})
	f.Add([]byte("PEAC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := DecodeFrame(data)
		if err != nil {
			return
		}
		out, err := EncodeFrame(kind, payload)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("decode/encode round trip not identical")
		}
	})
}

// FuzzUnmarshalPingBody throws arbitrary bytes at the keepalive ping-body
// decoder. The body arrives as decrypted session plaintext, but a hostile
// session peer controls it fully, so the decoder must never panic and
// accepted bodies must round-trip byte-identically.
func FuzzUnmarshalPingBody(f *testing.F) {
	f.Add((&PingBody{Nonce: 42}).Marshal())
	f.Add((&PongBody{Nonce: 42, BootEpoch: 7}).Marshal()) // wrong-tag seed
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPingBody(data)
		if err != nil {
			return
		}
		if !bytes.Equal(p.Marshal(), data) {
			t.Fatal("ping body decode/encode round trip not identical")
		}
	})
}

// FuzzUnmarshalPongBody is the pong-side twin: it also carries the boot
// epoch the restart detector trusts, so malformed bodies must fail
// cleanly instead of yielding a half-parsed epoch.
func FuzzUnmarshalPongBody(f *testing.F) {
	f.Add((&PongBody{Nonce: 42, BootEpoch: 7}).Marshal())
	f.Add((&PingBody{Nonce: 42}).Marshal()) // wrong-tag seed
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPongBody(data)
		if err != nil {
			return
		}
		if !bytes.Equal(p.Marshal(), data) {
			t.Fatal("pong body decode/encode round trip not identical")
		}
	})
}

// FuzzDecodeMessage drives the full kind-dispatched message decoder the
// server loop runs on every datagram: any (kind, payload) must either be
// rejected cleanly or produce a message that survives re-encoding.
func FuzzDecodeMessage(f *testing.F) {
	rej := &Reject{Code: RejectQueueFull, Reason: "seed"}
	frame, err := EncodeMessage(rej)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(KindReject), frame[HeaderSize:])
	f.Add(uint8(KindBeaconRequest), []byte{})
	f.Add(uint8(KindBeacon), []byte("not a beacon"))
	// A minimal link envelope, found by this fuzzer: from "", seq "00000000",
	// empty ciphertext.
	f.Add(uint8(KindGossip), []byte("\x00\x00\x00\x0000000000\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, k uint8, payload []byte) {
		msg, err := DecodeMessage(Kind(k), payload)
		if err != nil {
			return
		}
		// Three kinds share the LinkEnvelope type, so its encoder takes the
		// kind explicitly and EncodeMessage cannot choose one from the type.
		if env, ok := msg.(*LinkEnvelope); ok {
			_, err = EncodeLinkEnvelope(Kind(k), env)
		} else {
			_, err = EncodeMessage(msg)
		}
		if err != nil {
			t.Fatalf("accepted %T failed to re-encode: %v", msg, err)
		}
	})
}

// FuzzUnmarshalTicket throws arbitrary bytes at the ticket-plaintext
// decoder. The plaintext only ever arrives through the STEK AEAD, but the
// decoder must still hold up on its own: a key-compromise or a buggy
// caller must yield clean errors, never a panic or a half-parsed ticket,
// and accepted tickets must round-trip byte-identically.
func FuzzUnmarshalTicket(f *testing.F) {
	seed := &Ticket{URLEpoch: 3, CRLEpoch: 1, BootEpoch: 9, Escrow: []byte("escrowed m2")}
	seed.Secret[0] = 0xaa
	seed.Prev[0] = 0xbb
	f.Add(seed.Marshal())
	f.Add((&Ticket{}).Marshal())
	f.Add([]byte{})
	f.Add([]byte("peace/ticket:v1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tk, err := UnmarshalTicket(data)
		if err != nil {
			return
		}
		if !bytes.Equal(tk.Marshal(), data) {
			t.Fatal("ticket decode/encode round trip not identical")
		}
	})
}

// FuzzUnmarshalResumeRequest drives both resume-request decoders — the
// allocating one and the aliasing zero-alloc one the shard loops use — on
// arbitrary datagram payloads. They must agree with each other, never
// panic, and accepted requests must round-trip byte-identically.
func FuzzUnmarshalResumeRequest(f *testing.F) {
	seedReq := &ResumeRequest{Ticket: []byte("sealed blob")}
	seedReq.Nonce[3] = 7
	seedReq.Tag[0] = 1
	f.Add(seedReq.Marshal())
	f.Add([]byte{})
	// Found by this fuzzer: a solution flag that is neither 0 nor 1 used to
	// decode as "no solution" and re-encode differently.
	noncanonical := seedReq.Marshal()
	noncanonical[len(noncanonical)-1] = '0'
	f.Add(noncanonical)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalResumeRequest(data)
		var scratch ResumeRequest
		aliasErr := UnmarshalResumeRequestInto(data, &scratch)
		if (err == nil) != (aliasErr == nil) {
			t.Fatalf("decoders disagree: %v vs %v", err, aliasErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(m.Ticket, scratch.Ticket) || m.Nonce != scratch.Nonce || m.Tag != scratch.Tag {
			t.Fatal("aliasing decoder produced a different request")
		}
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("resume request decode/encode round trip not identical")
		}
	})
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
	seed := &RouterHello{Cert: fuzzBackboneCert(), Share: []byte("dh share"), Sig: []byte("hello sig")}
	seed.Nonce[0] = 9
	seed.Timestamp = time.Unix(1700000001, 0).UTC()
	f.Add(seed.Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalRouterHello(data)
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
	seed := &RouterWelcome{Cert: fuzzBackboneCert(), Share: []byte("dh share"), Sig: []byte("welcome sig")}
	seed.Echo[1] = 3
	seed.Nonce[2] = 5
	seed.Timestamp = time.Unix(1700000002, 0).UTC()
	f.Add(seed.Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalRouterWelcome(data)
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
	f.Add((&LinkEnvelope{From: "metro-r01", Seq: 7, Ciphertext: []byte("aead box")}).Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalLinkEnvelope(data)
		if err != nil {
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
// a truncated acknowledgement or base field included.
func FuzzUnmarshalGossipBody(f *testing.F) {
	body := &GossipBody{
		BootEpoch: 42,
		AdAck:     6000,
		AdBase:    17,
		Routes:    []RouteAd{{Router: "metro-r02", Hops: 2}},
	}
	f.Add(body.Marshal())
	f.Add((&GossipBody{}).Marshal())
	f.Add([]byte{})
	f.Add(body.Marshal()[:12]) // cut inside the acknowledgement
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalGossipBody(data)
		if err != nil {
			return
		}
		if len(data) < 28 {
			t.Fatalf("accepted a %d-byte body: epoch, ack, base and route count need 28", len(data))
		}
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("gossip body decode/encode round trip not identical")
		}
	})
}

// FuzzUnmarshalOwnerAds covers the handoff-announce plaintext: the
// numbered owner ads of a flood, a retransmission or a link-up backlog.
// Like the gossip body it is peer-controlled link plaintext; the ad count
// must be bounded by the bytes present and a truncated sequence refused.
func FuzzUnmarshalOwnerAds(f *testing.F) {
	var next, prev [32]byte
	next[0], prev[0] = 1, 2
	ad := OwnerAd{
		Seq:  7,
		Next: next, Prev: prev,
		Owner: "metro-r01", PrevRouter: "metro-r00",
		Expires: time.Unix(1700000003, 0).UTC(),
	}
	one := AppendOwnerAds(nil, []OwnerAd{ad})
	f.Add(one)
	f.Add(AppendOwnerAds(nil, []OwnerAd{ad, {Seq: 8}}))
	f.Add(AppendOwnerAds(nil, nil))
	f.Add([]byte{})
	f.Add(one[:8])                        // cut inside the sequence
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // four billion ads in four bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		ads, err := UnmarshalOwnerAds(data)
		if err != nil {
			return
		}
		if len(ads)*ownerAdMinLen > len(data) {
			t.Fatalf("%d ads accepted from %d bytes", len(ads), len(data))
		}
		if !bytes.Equal(AppendOwnerAds(nil, ads), data) {
			t.Fatal("owner ads decode/encode round trip not identical")
		}
		if n := OwnerAdsFit(ads, len(data)); n != len(ads) {
			t.Fatalf("OwnerAdsFit says %d of %d ads fit the %d bytes they decoded from", n, len(ads), len(data))
		}
	})
}

// FuzzUnmarshalRelayBody covers the relay-wrapper decoder that carries
// forwarded data frames across the backbone.
func FuzzUnmarshalRelayBody(f *testing.F) {
	f.Add((&RelayBody{Target: "metro-r03", Origin: "metro-r00", TTL: 8, Payload: []byte("data frame")}).Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalRelayBody(data)
		if err != nil {
			return
		}
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("relay body decode/encode round trip not identical")
		}
	})
}
