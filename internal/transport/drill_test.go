package transport_test

import (
	"testing"

	"github.com/peace-mesh/peace/internal/chaos"
	"github.com/peace-mesh/peace/internal/transport"
)

// The acceptance drills of this package run on chaos.Testbed, which
// imports it — hence the external test package.

// TestHandshakeSurvivesLoss wraps both directions in a 25%-loss link and
// expects every session to establish via retransmission.
func TestHandshakeSurvivesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy handshake sweep in -short mode")
	}
	rep, err := chaos.Loopback(chaos.TestbedConfig{
		Users:  12,
		Faults: chaos.FaultPlan{Drop: 0.25},
		Seed:   7,
		Client: transport.TestClientConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("%d/%d handshakes failed: %v", rep.Users-rep.Established, rep.Users, rep.Violations)
	}
	if rep.DatagramsDropped == 0 {
		t.Fatal("lossy link dropped nothing — loss injection broken")
	}
	if rep.ClientRetransmits == 0 {
		t.Fatal("no retransmissions despite induced loss")
	}
}

// TestLoopbackAcceptance is the acceptance criterion from the transport
// issue: ≥100 concurrent full M.1–M.3 handshakes over real UDP loopback
// with ≥5% induced datagram loss, every one recovered by retransmission.
func TestLoopbackAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("100-user acceptance sweep in -short mode")
	}
	if transport.RaceEnabled {
		t.Skip("100-user acceptance sweep under the race detector")
	}
	rep, err := chaos.Loopback(chaos.TestbedConfig{
		Users:  100,
		Faults: chaos.FaultPlan{Drop: 0.05},
		Seed:   42,
		Client: transport.TestClientConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Established < 100 || rep.Failed() {
		t.Fatalf("established %d: %v", rep.Established, rep.Violations)
	}
	if rep.DatagramsDropped == 0 {
		t.Fatal("no datagrams dropped at 5%% loss — injection broken")
	}
	t.Logf("%d handshakes in %v (%.1f/s, p50 %v, p99 %v, %d retransmits, %d drops)",
		rep.Established, rep.Elapsed, rep.HandshakesPerSec, rep.P50, rep.P99,
		rep.ClientRetransmits, rep.DatagramsDropped)
}

// TestRevocationDrillConvergesViaDeltas is the acceptance drill for the
// revocation-distribution subsystem: a persistent user population
// re-attaches across several epochs while the operator keeps revoking,
// and after the cold-start bootstrap every client must follow the URL
// purely through signed deltas.
func TestRevocationDrillConvergesViaDeltas(t *testing.T) {
	cfg := chaos.DrillConfig{
		TestbedConfig:  chaos.TestbedConfig{Users: 4, Client: transport.TestClientConfig()},
		Rounds:         3,
		RevokePerRound: 2,
	}
	rep, err := chaos.RevocationDrill(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("attach failures: %v", rep.Violations)
	}
	if want := cfg.Users * cfg.Rounds; rep.Established != want {
		t.Fatalf("established %d of %d", rep.Established, want)
	}
	// Cold start costs at most one full snapshot per list; everything
	// after must ride deltas.
	if rep.SnapshotsPerClientMax > 2 {
		t.Fatalf("some client fetched %d full snapshots", rep.SnapshotsPerClientMax)
	}
	// Two revocation pushes → two URL epochs → every client applies at
	// least two deltas.
	if want := int64(cfg.Users * (cfg.Rounds - 1)); rep.DeltaFetches < want {
		t.Fatalf("delta fetches %d < %d", rep.DeltaFetches, want)
	}
	if rep.Server.Value("rev_delta_fetches") == 0 {
		t.Fatal("server served no deltas")
	}
	if rep.FinalURLEpoch < 2 {
		t.Fatalf("final URL epoch %d", rep.FinalURLEpoch)
	}
	if want := (cfg.Rounds - 1) * cfg.RevokePerRound; rep.URLSize != want {
		t.Fatalf("URL size %d, want %d", rep.URLSize, want)
	}
	srvEpoch, ok := rep.Server.Get("url_epoch")
	if !ok || srvEpoch.Uint != rep.FinalURLEpoch {
		t.Fatalf("server gauge epoch %d, router at %d", srvEpoch.Uint, rep.FinalURLEpoch)
	}
}
