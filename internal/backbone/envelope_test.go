package backbone_test

import (
	"testing"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/transport"
)

// envelopeAllocCeiling is what receiving one sealed envelope may allocate:
// its decode, the sender's link lookup and the open. The envelope is
// decoded into a value the loop owns, aliasing the ingest slot, and opened
// in place, so the ceiling is 0.
const envelopeAllocCeiling = 0

// linkedPair is a plane of two nodes with their link up and their servers
// closed: MemStats counts every goroutine of the process, and a stepped
// node serving envelopes needs no server.
func linkedPair(t *testing.T) *plane {
	p := newPlane(t, 2, backbone.Config{})
	p.connect([][2]int{{0, 1}}, func() bool {
		_, ok := p.nodes[1].HopsTo(p.nodes[0].ID())
		return ok
	})
	for _, srv := range p.servers {
		srv.Close()
	}
	return p
}

// TestEnvelopeReceiveAllocs serves empty handoff announces, envelopes with
// nothing inside to decode, from one reused ingest slot and holds the
// receive side of an envelope to envelopeAllocCeiling.
func TestEnvelopeReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	p := linkedPair(t)
	slot := backbone.NewEnvelopeSlot(p.nodes[0], p.nodes[1])
	empty := backbone.AnnouncePlaintext("", "", p.clock.Now())
	now := p.clock.Now()
	drops := p.counter(1, "backbone_envelope_drops")
	allocs := testing.AllocsPerRun(200, func() {
		slot.Serve(transport.KindHandoffAnnounce, empty, now)
	})
	if got := p.counter(1, "backbone_envelope_drops"); got != drops {
		t.Fatalf("%d of the envelopes dropped", got-drops)
	}
	t.Logf("%.1f allocs per received envelope", allocs)
	if allocs > envelopeAllocCeiling {
		t.Fatalf("%.1f allocs per received envelope, ceiling %d", allocs, envelopeAllocCeiling)
	}
}

// TestEnvelopeConsumersCopy holds every consumer of an envelope's
// plaintext to copying what it keeps. The plaintext is opened in place in
// the ingest slot, which the next read overwrites, so a gossip round and
// an owner ad are served from one slot that is scribbled over after each
// dispatch, and what the node learned must still read as it was sent.
func TestEnvelopeConsumersCopy(t *testing.T) {
	p := linkedPair(t)
	slot := backbone.NewEnvelopeSlot(p.nodes[0], p.nodes[1])
	now := p.clock.Now()

	slot.Serve(transport.KindGossip, backbone.GossipPlaintext("router-far", 1), now)
	if hops, ok := p.nodes[1].HopsTo("router-far"); !ok || hops != 2 {
		t.Errorf("route to router-far after its gossip = %d, %v; want 2 hops", hops, ok)
	}

	next := sid("copy/next", 0)
	ad := backbone.AnnouncePlaintext("router-owner", "router-prev", now.Add(planeGrace), next)
	slot.Serve(transport.KindHandoffAnnounce, ad, now)
	if owner, ok := p.nodes[1].OwnerOf(next); !ok || owner != "router-owner" {
		t.Errorf("owner of the announced session = %q, %v; want router-owner", owner, ok)
	}
}
