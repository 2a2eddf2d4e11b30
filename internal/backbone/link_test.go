package backbone

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/transport"
)

func TestReplayWindow(t *testing.T) {
	w := &replayWindow{}
	if w.accept(0) {
		t.Fatal("sequence 0 accepted")
	}
	for _, seq := range []uint64{1, 2, 3} {
		if !w.accept(seq) {
			t.Fatalf("fresh seq %d rejected", seq)
		}
	}
	for _, seq := range []uint64{1, 2, 3} {
		if w.accept(seq) {
			t.Fatalf("replayed seq %d accepted", seq)
		}
	}
	// Out-of-order within the window.
	if !w.accept(10) || !w.accept(7) || w.accept(7) {
		t.Fatal("window reorder handling broken")
	}
	// Far jump resets the bitmap; everything ≥64 behind is refused.
	if !w.accept(1000) {
		t.Fatal("forward jump rejected")
	}
	if w.accept(936) {
		t.Fatal("seq 64 behind high accepted")
	}
	if !w.accept(937) {
		t.Fatal("seq 63 behind high rejected")
	}
}

func TestLinkSealOpenReplayAndKindBinding(t *testing.T) {
	dh := []byte("metro test dh secret")
	nonceA := []byte("aaaaaaaaaaaaaaaa")
	nonceB := []byte("bbbbbbbbbbbbbbbb")
	keys := deriveLinkKeys(dh, "r0", "r1", []byte("shareA"), []byte("shareB"), nonceA, nonceB)
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
	a := newLink("r1", addr, keys, time.Now()) // r0's view
	b := newLink("r0", addr, keys, time.Now()) // r1's view

	enc := a.sealAppend(nil, transport.KindGossip, "r0", []byte("hello"))
	pt, err := b.open(transport.KindGossip, decodeEnvelope(t, bytes.Clone(enc)), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "hello" {
		t.Fatalf("roundtrip = %q", pt)
	}
	// Replay of the same envelope (a fresh copy: open decrypts in place) is
	// refused after decryption, by the replay window.
	if _, err := b.open(transport.KindGossip, decodeEnvelope(t, enc), time.Now()); !errors.Is(err, errLinkReplay) {
		t.Fatalf("replayed envelope: %v, want errLinkReplay", err)
	}
	// The kind is bound into the AAD: a gossip envelope replayed as a
	// relay fails authentication outright.
	env2 := decodeEnvelope(t, a.sealAppend(nil, transport.KindGossip, "r0", []byte("hello")))
	if _, err := b.open(transport.KindRelay, env2, time.Now()); err == nil {
		t.Fatal("kind confusion accepted")
	}
	// Different transcripts derive different keys.
	other := deriveLinkKeys(dh, "r0", "r1", []byte("shareA"), []byte("shareB"), nonceB, nonceA)
	if other == keys {
		t.Fatal("transcript not bound into link keys")
	}
}

// decodeEnvelope decodes a sealed envelope the way the receiving node
// does, aliasing enc.
func decodeEnvelope(t *testing.T, enc []byte) *linkEnvelope {
	t.Helper()
	env := new(linkEnvelope)
	if err := unmarshalLinkEnvelope(enc, env); err != nil {
		t.Fatal(err)
	}
	return env
}

// sealAppend must produce exactly the marshaled linkEnvelope wire
// format: linkEnvelopeLen is exact and the standard decode+open path
// accepts the envelopes. TestWireKnownAnswers pins the AAD and header
// bytes.
func TestLinkSealAppendWireCompatible(t *testing.T) {
	keys := deriveLinkKeys([]byte("dh"), "r0", "r1", []byte("sA"), []byte("sB"),
		[]byte("aaaaaaaaaaaaaaaa"), []byte("bbbbbbbbbbbbbbbb"))
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
	a := newLink("r1", addr, keys, time.Now())
	b := newLink("r0", addr, keys, time.Now())

	for i, pt := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("gossip"), 200)} {
		enc := a.sealAppend(nil, transport.KindGossip, "r0", pt)
		if len(enc) != linkEnvelopeLen("r0", len(pt)) {
			t.Fatalf("envelope %d: len %d, linkEnvelopeLen %d",
				i, len(enc), linkEnvelopeLen("r0", len(pt)))
		}
		var env linkEnvelope
		if err := unmarshalLinkEnvelope(enc, &env); err != nil {
			t.Fatalf("envelope %d: decode: %v", i, err)
		}
		out, err := b.open(transport.KindGossip, &env, time.Now())
		if err != nil {
			t.Fatalf("envelope %d: open: %v", i, err)
		}
		if !bytes.Equal(out, pt) {
			t.Fatalf("envelope %d: plaintext mismatch", i)
		}
	}

	// Both ends seal under the same link key; their random nonce bases
	// keep the deterministic nonces disjoint. Fresh links pin the same
	// (seq, payload) on both sides.
	pa := newLink("r1", addr, keys, time.Now()).sealAppend(nil, transport.KindGossip, "r0", []byte("same"))
	pb := newLink("r0", addr, keys, time.Now()).sealAppend(nil, transport.KindGossip, "r0", []byte("same"))
	if bytes.Equal(pa, pb) {
		t.Fatal("two links produced identical sealed envelopes: nonce bases collided")
	}
}
