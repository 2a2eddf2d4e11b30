package backbone_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
)

// envelopeAllocCeiling is what receiving one sealed envelope may allocate:
// its decode, the sender's link lookup and the open. The envelope is
// decoded into a value the loop owns, aliasing the ingest slot, and opened
// in place, so the ceiling is 0.
const envelopeAllocCeiling = 0

// linkedLine is a plane of n nodes with the line of their links up and
// their servers closed: MemStats counts every goroutine of the process,
// and a stepped node serving envelopes needs no server.
func linkedLine(t *testing.T, n int) *plane {
	p := newPlane(t, n, backbone.Config{})
	p.linkLine(n)
	for _, srv := range p.servers {
		srv.Close()
	}
	return p
}

// TestEnvelopeReceiveAllocs serves relays that list no owner ad,
// envelopes with nothing inside to decode but the relay body, from one
// reused ingest slot and holds the receive side of an envelope to
// envelopeAllocCeiling.
func TestEnvelopeReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	p := linkedLine(t, 2)
	slot := backbone.NewEnvelopeSlot(p.nodes[0], p.nodes[1])
	empty := backbone.AdsRelay(p.nodes[1].ID(), p.nodes[0].ID(), p.clock.Now())
	now := p.clock.Now()
	drops := p.counter(1, "backbone_envelope_drops")
	allocs := testing.AllocsPerRun(200, func() {
		slot.Serve(transport.KindRelay, empty, now)
	})
	if got := p.counter(1, "backbone_envelope_drops"); got != drops {
		t.Fatalf("%d of the envelopes dropped", got-drops)
	}
	t.Logf("%.1f allocs per received envelope", allocs)
	if allocs > envelopeAllocCeiling {
		t.Fatalf("%.1f allocs per received envelope, ceiling %d", allocs, envelopeAllocCeiling)
	}
}

// TestRelayReceiveAllocs holds both ends of a relayed data frame's stay
// at a router to envelopeAllocCeiling. At a hop on its path the relay
// body is decoded in place, its hop budget patched in the opened
// plaintext, and that plaintext sealed again on the next link; at its
// target the frame is opened into the session the router holds. The hop
// router's egress is flushed between envelopes outside the count, as its
// loop flushes each batch: the allocations of the fault layer under its
// socket are the test's, not the node's.
func TestRelayReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	p := linkedLine(t, 3)
	near, mid, far := p.nodes[0].ID(), p.nodes[1], p.nodes[2].ID()
	slot := backbone.NewEnvelopeSlot(p.nodes[0], mid)
	now := p.clock.Now()
	const runs = 100
	// counted serves envelopes 0 to runs, and returns what the ones after
	// the first allocated.
	counted := func(serve func(i int)) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var ms runtime.MemStats
		var mallocs uint64
		for i := 0; i <= runs; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			serve(i)
			runtime.ReadMemStats(&ms)
			if i > 0 {
				mallocs += ms.Mallocs - before
			}
			mid.Flush()
		}
		return mallocs
	}
	stats := p.servers[1].Stats()

	transit := backbone.DataRelay(far, near, []byte("a frame router 1 cannot open"))
	relayed := stats.FramesRelayed()
	hop := counted(func(int) { slot.Serve(transport.KindRelay, transit, now) })
	if got := stats.FramesRelayed() - relayed; got != runs+1 {
		t.Fatalf("router 1 forwarded %d of %d relays", got, runs+1)
	}

	// The sessions' twin seals what router 1 opens: one frame per envelope,
	// sequence numbers rising as the session's replay window wants them.
	id := p.hold(1, "relay-allocs", 0)
	user := core.ResumeSession(id, []byte("secret"), []byte("cn"), []byte("sn"), "user", now)
	user.ID = id
	held := make([][]byte, runs+1)
	for i := range held {
		frame, err := user.AppendSealedData(nil, []byte("in-flight frame"))
		if err != nil {
			t.Fatal(err)
		}
		held[i] = backbone.DataRelay(mid.ID(), near, frame)
	}
	delivered := stats.DataDelivered()
	target := counted(func(i int) { slot.Serve(transport.KindRelay, held[i], now) })
	if got := stats.DataDelivered() - delivered; got != runs+1 {
		t.Fatalf("router 1 opened %d of %d relayed frames", got, runs+1)
	}

	t.Logf("%.1f allocs per forwarded relay, %.1f per delivered one", float64(hop)/runs, float64(target)/runs)
	if hop > envelopeAllocCeiling*runs || target > envelopeAllocCeiling*runs {
		t.Fatalf("%d allocs over %d forwarded relays and %d over %d delivered, ceiling %d each",
			hop, runs, target, runs, envelopeAllocCeiling)
	}
}

// TestEnvelopeConsumersCopy holds every consumer of an envelope's
// plaintext to copying what it keeps. The plaintext is opened in place in
// the ingest slot, which the next read overwrites, so a gossip round, an
// owner ad and an acknowledgement are served from one slot that is
// scribbled over after each dispatch, and what the node learned must
// still read as it was sent.
func TestEnvelopeConsumersCopy(t *testing.T) {
	p := linkedLine(t, 2)
	slot := backbone.NewEnvelopeSlot(p.nodes[0], p.nodes[1])
	r0, r1 := p.nodes[0].ID(), p.nodes[1].ID()

	slot.Serve(transport.KindGossip, backbone.GossipPlaintext("router-far", 1), p.clock.Now())
	if hops, ok := p.nodes[1].HopsTo("router-far"); !ok || hops != 2 {
		t.Errorf("route to router-far after its gossip = %d, %v; want 2 hops", hops, ok)
	}

	// unheard has router i adopt a session away from router j with its
	// first copy lost, so only what the slot serves can settle it.
	unheard := func(i, j int, label string) core.SessionID {
		p.faults[i].PartitionFor(time.Hour)
		next := p.adopt(i, j, label, 0, 1)[0]
		p.flushInboxes()
		p.faults[i].PartitionFor(0)
		if got := p.nodes[i].Unacked(); got != 1 {
			t.Fatalf("%s holds %d unacknowledged ads, want 1", p.nodes[i].ID(), got)
		}
		return next
	}

	// Router 1 keeps the ad's record, and the ad to acknowledge to its
	// owner: the acknowledgement it sends at its next step must settle
	// router 0's ad.
	next := unheard(0, 1, "copy-ad")
	slot.Serve(transport.KindRelay, backbone.AdsRelay(r1, r0, p.clock.Now().Add(planeGrace), next), p.clock.Now())
	if owner, ok := p.nodes[1].OwnerOf(next); !ok || owner != r0 {
		t.Errorf("owner of the relayed session = %q, %v; want %s", owner, ok, r0)
	}
	p.stepNodes()
	if got := p.nodes[0].Unacked(); got != 0 {
		t.Errorf("router 0 holds %d unacknowledged ads after router 1's step", got)
	}

	next = unheard(1, 0, "copy-ack")
	slot.Serve(transport.KindRelay, backbone.AcksRelay(r1, r0, next), p.clock.Now())
	if got := p.nodes[1].Unacked(); got != 0 {
		t.Errorf("router 1 holds %d unacknowledged ads after their acknowledgement", got)
	}
}
