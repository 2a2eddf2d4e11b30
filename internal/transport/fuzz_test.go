package transport

import (
	"bytes"
	"testing"

	"github.com/peace-mesh/peace/internal/core"
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
	f.Add((&PingBody{Nonce: 42}).appendTo(nil))
	f.Add((&PongBody{Nonce: 42, BootEpoch: 7}).appendTo(nil)) // wrong-tag seed
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p PingBody
		if p.unmarshal(data) != nil {
			return
		}
		if !bytes.Equal(p.appendTo(nil), data) {
			t.Fatal("ping body decode/encode round trip not identical")
		}
	})
}

// FuzzUnmarshalPongBody is the pong-side twin: it also carries the boot
// epoch the restart detector trusts, so malformed bodies must fail
// cleanly instead of yielding a half-parsed epoch.
func FuzzUnmarshalPongBody(f *testing.F) {
	f.Add((&PongBody{Nonce: 42, BootEpoch: 7}).appendTo(nil))
	f.Add((&PingBody{Nonce: 42}).appendTo(nil)) // wrong-tag seed
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p PongBody
		if p.unmarshal(data) != nil {
			return
		}
		if !bytes.Equal(p.appendTo(nil), data) {
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
	f.Add(uint8(KindSessionData), (&core.DataFrame{Seq: 1, Encrypted: true, Payload: []byte("sealed")}).Marshal())
	f.Fuzz(func(t *testing.T, k uint8, payload []byte) {
		msg, err := DecodeMessage(Kind(k), payload)
		if err != nil {
			return
		}
		// Three kinds share the sealed core.DataFrame, so their frames
		// take the kind explicitly and EncodeMessage cannot choose one
		// from the type.
		switch m := msg.(type) {
		case *core.DataFrame:
			_, err = EncodeFrame(Kind(k), m.Marshal())
		default:
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
