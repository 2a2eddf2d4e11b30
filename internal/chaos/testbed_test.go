package chaos

import (
	"testing"
	"time"
)

// TestTestbedRestartsMetroRouter restarts one router of a ring: its
// backbone node comes back on the same address and re-links, its clients
// resume on their tickets (the STEK ring is shared), and the rest of the
// fleet never notices.
func TestTestbedRestartsMetroRouter(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Routers: 3, Users: 3, Keepalive: 50 * time.Millisecond, Logf: t.Logf}.withFleetClient())
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	var v Verdict
	fleetUp := func() bool { return tb.Established() == 3 }
	if err := tb.Launch(0, 3); err != nil {
		t.Fatal(err)
	}
	if !tb.Settle(&v, "fleet attach", fleetUp) || !tb.WaitConverged() {
		t.Fatalf("metro never came up: %v", v.Violations)
	}

	before := tb.Servers[1].BootEpoch()
	if err := tb.Restart(1); err != nil {
		t.Fatal(err)
	}
	if got := tb.Servers[1].BootEpoch(); got != before+1 {
		t.Fatalf("boot epoch %d after restart, want %d", got, before+1)
	}
	if !tb.Settle(&v, "fleet re-established", fleetUp) {
		t.Fatalf("%v", v.Violations)
	}
	if !tb.WaitConverged() {
		t.Fatal("backbone never re-converged around the restarted router")
	}
	if got := tb.ProbeKeys(&v); got != 3 || v.Failed() {
		t.Fatalf("%d/3 sessions agree on keys: %v", got, v.Violations)
	}
	for i, cl := range tb.Clients {
		if got := cl.Stats().AttachSuccesses(); got != 1 {
			t.Errorf("client %d paired %d times, want 1 (restart must ride the ticket)", i, got)
		}
	}
}
