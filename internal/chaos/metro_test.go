package chaos

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/transport"
)

// TestMetroSoak is the metro roaming acceptance scenario: users roam
// across a faulty, mid-wave-partitioned backbone with 100% session
// continuity, and every router refuses the closing revocation rollback.
// Short mode (and the race detector) runs a reduced metro; `make
// metro-soak` runs the full 8-router / 200-user configuration.
func TestMetroSoak(t *testing.T) {
	cfg := MetroSoakConfig{
		TestbedConfig: TestbedConfig{Routers: 8, Users: 48, Seed: 42, Faults: MetroFaults, Logf: t.Logf},
		Moves:         3,
		PartitionLen:  2 * time.Second,
	}
	if testing.Short() || raceEnabled {
		cfg.Routers = 4
		cfg.Users = 12
		cfg.Moves = 2
		cfg.PartitionLen = time.Second
	}
	rep, err := MetroSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("metro soak: pairings=%d resumed=%d handoffsIn=%d handoffsOut=%d relayed=%d delivered=%d",
		rep.Pairings, rep.Resumed, rep.HandoffsIn, rep.HandoffsOut,
		rep.FramesRelayed, rep.Delivered)
	t.Logf("metro soak: injected=%+v partitioned=%s rollbacksRefused=%d",
		rep.Injected, rep.PartitionedRouter, rep.RollbacksRefused)
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.Pairings != int64(rep.Users) {
		t.Fatalf("session continuity broken: %d pairings for %d users", rep.Pairings, rep.Users)
	}
	if rep.RollbacksRefused != rep.Routers {
		t.Fatalf("anti-rollback: %d/%d routers refused", rep.RollbacksRefused, rep.Routers)
	}
}

// TestMetroReportJSONShape pins the report field names meshsoak serializes.
func TestMetroReportJSONShape(t *testing.T) {
	rep := &MetroReport{Routers: 8, Users: 200, Moves: 3}
	rep.violate("example %d", 1)
	if len(rep.Violations) != 1 || rep.Violations[0] != "example 1" {
		t.Fatalf("violate() = %v", rep.Violations)
	}
	if s := fmt.Sprintf("%d/%d/%d", rep.Routers, rep.Users, rep.Moves); s != "8/200/3" {
		t.Fatal(s)
	}
}

// TestRoamingWaveExactlyOnePairing drives the metro backbone through a
// roaming wave: every client performs K cross-router moves and every one of
// them must ride its resumption ticket, leaving exactly one full pairing per
// client. Ticket handoff trades the fresh-AKA unlinkability of a plain roam
// for continuity, and the accountability escrow is re-logged by the
// adopting router instead (TestHandoffReEscrowsAccountability).
func TestRoamingWaveExactlyOnePairing(t *testing.T) {
	const (
		routers = 5
		users   = 10
		moves   = 4
	)
	m, err := NewTestbed(TestbedConfig{Routers: routers, Users: users})
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
	m, err := NewTestbed(TestbedConfig{Routers: 2})
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
