package mesh

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/chaos"
	"github.com/peace-mesh/peace/internal/transport"
)

// TestRoamingWaveExactlyOnePairing drives the real metro backbone — not
// the simulated-radio handoff of UserStation.Roam, which re-runs the full
// AKA by design — through a roaming wave: every client performs K
// cross-router moves and every one of them must ride its resumption
// ticket, leaving exactly one full pairing per client. This is the mesh
// scenario counterpart of the unlinkability test below: ticket handoff
// trades the fresh-AKA unlinkability of a plain roam for continuity, and
// the accountability escrow is re-logged by the adopting router instead.
func TestRoamingWaveExactlyOnePairing(t *testing.T) {
	const (
		routers = 5
		users   = 10
		moves   = 4
	)
	m, err := chaos.NewTestbed(chaos.TestbedConfig{Routers: routers, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	rep := m.RoamingWave(ctx, moves)
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Pairings != users {
		t.Fatalf("pairings = %d across %d clients × %d moves, want exactly %d",
			rep.Pairings, users, moves, users)
	}
	if rep.Resumed != users*moves {
		t.Fatalf("resumed = %d, want %d (every move a ticket handoff)", rep.Resumed, users*moves)
	}
	if rep.Fallbacks != 0 {
		t.Fatalf("%d moves fell back to a fresh pairing", rep.Fallbacks)
	}

	// Router-side ledger agrees: the metro established exactly one session
	// per client the expensive way and served every move off a ticket.
	established, resumed := 0, 0
	for _, r := range m.Net.Routers {
		st := r.Stats()
		established += st.SessionsEstablished
		resumed += st.SessionsResumed
	}
	if established != users {
		t.Errorf("router-side sessions established = %d, want %d", established, users)
	}
	if resumed != users*moves {
		t.Errorf("router-side sessions resumed = %d, want %d", resumed, users*moves)
	}
}

// TestHandoffReEscrowsAccountability checks the accountability half of a
// ticket handoff: the adopting router re-logs the roamed session's M.2
// escrow under the new session id, so the network operator can audit the
// session at the router actually serving it — continuity never opens an
// accountability gap.
func TestHandoffReEscrowsAccountability(t *testing.T) {
	m, err := chaos.NewTestbed(chaos.TestbedConfig{Routers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := transport.NewClient(conn, m.Servers[0].Addr(), m.Net.Users[0], transport.ClientConfig{
		RetransmitTimeout: 80 * time.Millisecond,
		MaxTimeout:        2 * time.Second,
		MaxRetries:        16,
	})
	first, err := cl.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cl.Retarget(m.Servers[1].Addr())
	adopted, err := cl.Resume(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The adopting router can answer an audit for the session it serves...
	if _, err := m.Net.NO.AuditSession(m.Net.Routers[1], adopted.ID); err != nil {
		t.Fatalf("audit at adopting router: %v", err)
	}
	// ...and the original escrow at the issuing router stays on file.
	if _, err := m.Net.NO.AuditSession(m.Net.Routers[0], first.ID); err != nil {
		t.Fatalf("audit at issuing router: %v", err)
	}
	// A router that never saw the session has nothing to answer with.
	if _, err := m.Net.NO.AuditSession(m.Net.Routers[0], adopted.ID); err == nil {
		t.Fatal("issuing router answered an audit for a session it never adopted")
	}
}
