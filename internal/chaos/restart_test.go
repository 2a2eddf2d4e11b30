package chaos

import (
	"testing"
)

// TestRestartSoakResumesViaTickets rides a fleet through repeated server
// restarts sharing one STEK ring and demands the re-attach economics of
// the resumption subsystem: one pairing per client total, every restart
// recovered over the symmetric ticket path.
func TestRestartSoakResumesViaTickets(t *testing.T) {
	cfg := RestartSoakConfig{TestbedConfig: TestbedConfig{Users: 12, Seed: 11, Logf: t.Logf}, Restarts: 3}
	if testing.Short() || raceEnabled {
		cfg.Users = 6
		cfg.Restarts = 2
	}
	rep, err := RestartSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("restart-soak: fulls=%d resumes=%d verifications=%d resumed=%d tickets=%d",
		rep.FullHandshakes, rep.Resumes, rep.ExpensiveVerifications, rep.SessionsResumed, rep.TicketsIssued)
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	// Without STEK rotation the pairing budget is exactly one per client.
	if rep.FullHandshakes != int64(rep.Users) {
		t.Fatalf("full handshakes = %d, want %d (one per client, ever)", rep.FullHandshakes, rep.Users)
	}
}

// TestRestartSoakSTEKRetirement retires the ticket key mid-sequence and
// expects exactly one fallback handshake per client — the bounded cost of
// a key rotation — with resumption re-engaged afterwards.
func TestRestartSoakSTEKRetirement(t *testing.T) {
	if testing.Short() {
		t.Skip("rotation soak in -short mode")
	}
	cfg := RestartSoakConfig{TestbedConfig: TestbedConfig{Users: 8, Seed: 13, Logf: t.Logf}, Restarts: 3, RotateBeforeRestart: 2}
	if raceEnabled {
		cfg.Users = 4
	}
	rep, err := RestartSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rotation-soak: fulls=%d resumes=%d verifications=%d",
		rep.FullHandshakes, rep.Resumes, rep.ExpensiveVerifications)
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	// Initial attach + exactly one rotation fallback per client.
	if rep.FullHandshakes != int64(2*rep.Users) {
		t.Fatalf("full handshakes = %d, want %d (1 initial + 1 per rotation)", rep.FullHandshakes, 2*rep.Users)
	}
	// The restarts NOT behind the rotation still resumed.
	if rep.Resumes < int64(rep.Users*(rep.Restarts-1)) {
		t.Fatalf("resumes = %d, want >= %d", rep.Resumes, rep.Users*(rep.Restarts-1))
	}
}
