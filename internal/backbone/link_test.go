package backbone

import (
	"bytes"
	"crypto/rand"
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

	env, err := a.seal(rand.Reader, transport.KindGossip, "r0", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := b.open(transport.KindGossip, env, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "hello" {
		t.Fatalf("roundtrip = %q", pt)
	}
	// Replay of the same envelope is refused after decryption.
	if _, err := b.open(transport.KindGossip, env, time.Now()); err == nil {
		t.Fatal("replayed envelope accepted")
	}
	// The kind is bound into the AAD: a gossip envelope replayed as a
	// relay fails authentication outright.
	env2, err := a.seal(rand.Reader, transport.KindGossip, "r0", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.open(transport.KindRelay, env2, time.Now()); err == nil {
		t.Fatal("kind confusion accepted")
	}
	// Different transcripts derive different keys.
	other := deriveLinkKeys(dh, "r0", "r1", []byte("shareA"), []byte("shareB"), nonceB, nonceA)
	if other == keys {
		t.Fatal("transcript not bound into link keys")
	}
}

// sealAppend must produce exactly the marshaled-LinkEnvelope wire
// format the random-nonce seal path produces: LinkEnvelopeLen is exact,
// the standard decode+open path accepts the envelopes, and the AAD
// append twin stays byte-identical to the Writer-built one.
func TestLinkSealAppendWireCompatible(t *testing.T) {
	keys := deriveLinkKeys([]byte("dh"), "r0", "r1", []byte("sA"), []byte("sB"),
		[]byte("aaaaaaaaaaaaaaaa"), []byte("bbbbbbbbbbbbbbbb"))
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
	a := newLink("r1", addr, keys, time.Now())
	b := newLink("r0", addr, keys, time.Now())

	for _, seq := range []uint64{1, 255, 1 << 40} {
		want := transport.LinkEnvelopeAAD(transport.KindRelay, "r0", seq)
		got := transport.AppendLinkEnvelopeAAD(nil, transport.KindRelay, "r0", seq)
		if !bytes.Equal(got, want) {
			t.Fatalf("seq %d: append AAD %x != writer AAD %x", seq, got, want)
		}
	}

	for i, pt := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("gossip"), 200)} {
		enc := a.sealAppend(nil, transport.KindGossip, "r0", pt)
		if len(enc) != transport.LinkEnvelopeLen("r0", len(pt)) {
			t.Fatalf("envelope %d: len %d, LinkEnvelopeLen %d",
				i, len(enc), transport.LinkEnvelopeLen("r0", len(pt)))
		}
		env, err := transport.UnmarshalLinkEnvelope(enc)
		if err != nil {
			t.Fatalf("envelope %d: decode: %v", i, err)
		}
		out, err := b.open(transport.KindGossip, env, time.Now())
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

// TestAdWindow pins the acknowledgement a link reports: the highest
// sequence below which nothing is missing, over in-order arrival, loss,
// reordering, duplicates, the sender giving sequences up, and more gaps
// than the window remembers.
func TestAdWindow(t *testing.T) {
	var w adWindow
	for seq := uint64(1); seq <= 3; seq++ {
		w.note(seq)
	}
	if w.contig != 3 || len(w.ahead) != 0 {
		t.Fatalf("in order: contig %d, ahead %v", w.contig, w.ahead)
	}
	// 4 is lost; 5–7 and 9 arrive, 6 twice, 8 late.
	for _, seq := range []uint64{5, 6, 6, 7, 9, 8} {
		w.note(seq)
	}
	if w.contig != 3 || len(w.ahead) != 1 || w.ahead[0] != (seqRun{5, 9}) {
		t.Fatalf("past a gap: contig %d, ahead %v", w.contig, w.ahead)
	}
	w.note(2) // a duplicate of something long held
	w.note(4) // the retransmission fills the gap
	if w.contig != 9 || len(w.ahead) != 0 {
		t.Fatalf("gap filled: contig %d, ahead %v", w.contig, w.ahead)
	}
	// 10 and 11 expire unsent: the sender's base says so.
	w.note(13)
	w.skipTo(12)
	if w.contig != 11 {
		t.Fatalf("base 12: contig %d", w.contig)
	}
	w.note(12)
	if w.contig != 13 || len(w.ahead) != 0 {
		t.Fatalf("after base: contig %d, ahead %v", w.contig, w.ahead)
	}
	w.skipTo(5) // a stale base never moves the window back
	if w.contig != 13 {
		t.Fatalf("stale base moved contig to %d", w.contig)
	}
	// Runs arriving out of order stay sorted and merge when they touch.
	for _, seq := range []uint64{30, 20, 25, 21, 24, 22, 23} {
		w.note(seq)
	}
	if len(w.ahead) != 2 || w.ahead[0] != (seqRun{20, 25}) || w.ahead[1] != (seqRun{30, 30}) {
		t.Fatalf("merge: ahead %v", w.ahead)
	}
	// More gaps than the window remembers: the extra run is forgotten, the
	// rest still collapse once the gaps fill.
	w = adWindow{}
	for i := 0; i <= maxAheadRuns; i++ {
		w.note(uint64(2 * (i + 1)))
	}
	if len(w.ahead) != maxAheadRuns {
		t.Fatalf("ahead holds %d runs, want the cap %d", len(w.ahead), maxAheadRuns)
	}
	for i := 0; i <= maxAheadRuns; i++ {
		w.note(uint64(2*i + 1))
	}
	if want := uint64(2*maxAheadRuns + 1); w.contig != want || len(w.ahead) != 0 {
		t.Fatalf("capped window: contig %d (want %d), ahead %v", w.contig, want, w.ahead)
	}
}

// TestLinkAdQueue walks one link's send queue through a flood, a round
// that must leave it alone, the round that re-sends it, an
// acknowledgement, a backlog and an expiry.
func TestLinkAdQueue(t *testing.T) {
	keys := deriveLinkKeys([]byte("dh"), "r0", "r1", []byte("sA"), []byte("sB"),
		[]byte("aaaaaaaaaaaaaaaa"), []byte("bbbbbbbbbbbbbbbb"))
	t0 := time.Unix(1700000000, 0)
	l := newLink("r1", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}, keys, t0)
	const round = 200 * time.Millisecond
	ad := func(b byte, expires time.Time) *transport.OwnerAd {
		a := &transport.OwnerAd{Owner: "r0", PrevRouter: "r1", Expires: expires}
		a.Next[0] = b
		return a
	}
	late := t0.Add(time.Hour)

	if due, ack, base := l.dueAds(t0); len(due) != 0 || ack != 0 || base != 1 {
		t.Fatalf("empty link: due %d, ack %d, base %d", len(due), ack, base)
	}
	// A flood is sealed by its caller; the round that follows leaves it to
	// the peer's acknowledgement, the one after re-sends it, and so does
	// every later one.
	if seq := l.enqueueAds(t0, ad(1, late)); seq != 1 {
		t.Fatalf("first ad numbered %d", seq)
	}
	if due, _, base := l.dueAds(t0.Add(round)); len(due) != 0 || base != 1 {
		t.Fatalf("round after the flood: due %d, base %d", len(due), base)
	}
	for i := 2; i <= 3; i++ {
		due, _, _ := l.dueAds(t0.Add(time.Duration(i) * round))
		if len(due) != 1 || due[0].Seq != 1 || due[0].Next[0] != 1 {
			t.Fatalf("round %d: due %+v", i, due)
		}
	}
	l.peerRound(1, 0)
	if due, _, base := l.dueAds(t0.Add(4 * round)); len(due) != 0 || base != 2 {
		t.Fatalf("after the acknowledgement: due %d, base %d", len(due), base)
	}
	// A backlog is never sealed by its caller: the next round takes all of
	// it, then waits like for a flood. One of the three expires unheard.
	l.enqueueAds(time.Time{}, ad(2, late), ad(3, t0.Add(5*round+round/2)), ad(4, late))
	due, _, base := l.dueAds(t0.Add(5 * round))
	if len(due) != 3 || due[0].Seq != 2 || due[2].Seq != 4 || base != 2 {
		t.Fatalf("backlog round: due %+v, base %d", due, base)
	}
	if due, _, _ := l.dueAds(t0.Add(6 * round)); len(due) != 0 {
		t.Fatalf("round after the backlog: due %d", len(due))
	}
	l.peerRound(2, 0)
	due, _, base = l.dueAds(t0.Add(7 * round))
	if len(due) != 1 || due[0].Seq != 4 || base != 4 {
		t.Fatalf("after expiry and a partial acknowledgement: due %+v, base %d", due, base)
	}
	l.noteAds([]transport.OwnerAd{{Seq: 1}, {Seq: 3}})
	l.peerRound(4, 3)
	if due, ack, base := l.dueAds(t0.Add(8 * round)); len(due) != 0 || ack != 3 || base != 5 {
		t.Fatalf("drained: due %d, ack %d, base %d", len(due), ack, base)
	}
}
