package backbone_test

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/chaos"
	"github.com/peace-mesh/peace/internal/transport"
)

// The metro tests drive real backbone nodes through chaos.Testbed, which
// imports this package — hence the external test package.

func newMetro(t *testing.T, cfg chaos.TestbedConfig) *chaos.Testbed {
	t.Helper()
	tb, err := chaos.NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func testClientConfig() transport.ClientConfig {
	return transport.ClientConfig{
		RetransmitTimeout: 80 * time.Millisecond,
		MaxTimeout:        2 * time.Second,
		MaxRetries:        16,
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(15 * time.Millisecond)
	}
}

// TestMetroRoamingWave drives the full harness: a small metro, every
// user roaming through several cross-router handoffs, every invariant
// asserted by the report.
func TestMetroRoamingWave(t *testing.T) {
	m := newMetro(t, chaos.TestbedConfig{Routers: 4, Users: 6})
	rep := m.RoamingWave(testCtx(t), 3)
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Pairings != 6 {
		t.Fatalf("pairings = %d, want 6", rep.Pairings)
	}
	if rep.Resumed != 18 {
		t.Fatalf("resumed = %d, want 18", rep.Resumed)
	}
	if rep.FramesRelayed == 0 {
		t.Fatal("no frames crossed the backbone relay")
	}
	// Ring of 4: every node holds exactly two live links.
	for i, s := range m.Servers {
		if got := s.Stats().GossipPeers(); got != 2 {
			t.Errorf("router %d gossip_peers = %d, want 2", i, got)
		}
	}
	// Multi-hop: at least one node reaches the opposite corner in 2 hops.
	if h, ok := m.Nodes[0].HopsTo(m.Nodes[2].ID()); !ok || h != 2 {
		t.Errorf("hops r0→r2 = %d (%v), want 2", h, ok)
	}
}

// TestStaleEpochPinsAtAdoptingRouter bumps revocation state on the
// adopting router only: its epochs run ahead of the ticket's pins, so
// the resume is refused (anti-rollback on session state) and the client
// falls back to one — exactly one — fresh pairing.
func TestStaleEpochPinsAtAdoptingRouter(t *testing.T) {
	m := newMetro(t, chaos.TestbedConfig{Routers: 2})
	ctx := testCtx(t)

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := transport.NewClient(conn, m.Servers[0].Addr(), m.Net.Users[0], testClientConfig())
	if _, err := cl.Attach(ctx); err != nil {
		t.Fatal(err)
	}

	// Only the adopting router advances its revocation epochs.
	if err := m.BumpRevocation(1, 1); err != nil {
		t.Fatal(err)
	}

	cl.Retarget(m.Servers[1].Addr())
	if _, err := cl.Resume(ctx); err == nil {
		t.Fatal("resume with stale epoch pins succeeded")
	}
	if got := m.Servers[1].Stats().ResumeRejects(); got == 0 {
		t.Fatal("adopting router recorded no resume reject")
	}
	if got := m.Servers[1].Stats().HandoffsIn(); got != 0 {
		t.Fatalf("refused handoff still counted: handoffs_in = %d", got)
	}

	// The fallback path re-pairs from scratch at the new router.
	if _, err := cl.AttachOrResume(ctx); err != nil {
		t.Fatalf("fallback pairing: %v", err)
	}
	if got := cl.Stats().AttachSuccesses(); got != 2 {
		t.Fatalf("attach successes = %d, want 2 (original + fallback)", got)
	}
}

// TestHandoffDuringBackbonePartition cuts the previous router off the
// backbone while the user roams. The handoff itself succeeds (the user
// plane is unaffected), the ownership announcement cannot reach the old
// router until the partition heals, and then the periodic gossip — not
// the one-shot flood, which was lost — delivers it, after which in-flight
// frames forward.
func TestHandoffDuringBackbonePartition(t *testing.T) {
	m := newMetro(t, chaos.TestbedConfig{Routers: 3})
	ctx := testCtx(t)
	if !m.WaitConverged() {
		t.Fatal("backbone never converged")
	}

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := transport.NewClient(conn, m.Servers[0].Addr(), m.Net.Users[0], testClientConfig())
	if _, err := cl.Attach(ctx); err != nil {
		t.Fatal(err)
	}

	// Partition the old router's backbone, then roam away from it.
	m.Backbone[0].PartitionFor(time.Hour)
	cl.Retarget(m.Servers[1].Addr())
	sess, err := cl.Resume(ctx)
	if err != nil {
		t.Fatalf("resume during backbone partition: %v", err)
	}
	if got := m.Servers[1].Stats().HandoffsIn(); got != 1 {
		t.Fatalf("handoffs_in = %d, want 1", got)
	}

	// The announcement must not have crossed the partition.
	time.Sleep(300 * time.Millisecond)
	if _, ok := m.Nodes[0].OwnerOf(sess.ID); ok {
		t.Fatal("ownership crossed a partitioned backbone")
	}
	if got := m.Servers[0].Stats().HandoffsOut(); got != 0 {
		t.Fatalf("partitioned router counted handoffs_out = %d", got)
	}

	// Heal. Gossip re-advertises the unexpired owner ad until it lands.
	m.Backbone[0].PartitionFor(0)
	waitFor(t, func() bool {
		owner, ok := m.Nodes[0].OwnerOf(sess.ID)
		return ok && owner == m.Nodes[1].ID()
	}, "ownership convergence after heal")
	waitFor(t, func() bool { return m.Servers[0].Stats().HandoffsOut() == 1 }, "handoffs_out")

	// In-flight frame through the old router now forwards to the owner.
	if err := cl.SendDataVia(m.Servers[0].Addr(), []byte("late frame")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return m.Servers[1].Stats().DataDelivered() >= 1 }, "relayed delivery")
	if m.Servers[0].Stats().FramesRelayed() == 0 {
		t.Fatal("old router did not relay the in-flight frame")
	}
}

// duplicating sends every outgoing datagram twice — the harshest
// sustained duplication a UDP path can produce.
var duplicating = chaos.FaultPlan{Duplicate: 1}

// TestDuplicateHandoffIdempotence doubles every client datagram and
// every backbone datagram. The resume reply cache must serve the
// duplicate without minting a second session, the adopting router must
// count one handoff, and duplicated ownership announcements must not
// double handoffs_out or the grace-window release.
func TestDuplicateHandoffIdempotence(t *testing.T) {
	m := newMetro(t, chaos.TestbedConfig{Routers: 2})
	for _, bb := range m.Backbone {
		bb.SetPlans(chaos.FaultPlan{}, duplicating)
	}
	ctx := testCtx(t)
	if !m.WaitConverged() {
		t.Fatal("backbone never converged")
	}

	raw, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	cl := transport.NewClient(chaos.Wrap(raw, chaos.FaultPlan{}, duplicating, 1), m.Servers[0].Addr(), m.Net.Users[0], testClientConfig())
	if _, err := cl.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	if got := cl.Stats().AttachSuccesses(); got != 1 {
		t.Fatalf("attach successes = %d, want 1", got)
	}

	cl.Retarget(m.Servers[1].Addr())
	if _, err := cl.Resume(ctx); err != nil {
		t.Fatal(err)
	}

	if got := m.Servers[1].Stats().ResumesServed(); got != 1 {
		t.Fatalf("resumes served = %d, want 1 (duplicate must hit the reply cache)", got)
	}
	if got := m.Servers[1].Stats().HandoffsIn(); got != 1 {
		t.Fatalf("handoffs_in = %d, want 1", got)
	}
	if got := m.Servers[1].Stats().Duplicates(); got == 0 {
		t.Fatal("no duplicate was actually exercised")
	}
	waitFor(t, func() bool { return m.Servers[0].Stats().HandoffsOut() == 1 }, "handoffs_out")
	// Give duplicated announcements and gossip repeats time to arrive.
	time.Sleep(400 * time.Millisecond)
	if got := m.Servers[0].Stats().HandoffsOut(); got != 1 {
		t.Fatalf("handoffs_out = %d after duplicates, want exactly 1", got)
	}
	if m.Net.Routers[0].Sessions() != 1 {
		// The grace window is long; the previous session must still be
		// resident exactly once (released only after the window closes).
		t.Fatalf("old router sessions = %d, want 1", m.Net.Routers[0].Sessions())
	}
}
