package chaos

import (
	"testing"
	"time"
)

// TestChaosSoak is the acceptance scenario: a fleet of self-healing
// clients soaks under 10% loss + 5% corruption + 2% duplication + 2%
// reordering, survives a mid-run revocation bump, a server restart and a
// partition, and ends with every client re-established and zero invariant
// violations. Short mode (and the race detector, where pairing math runs
// an order of magnitude slower) runs a reduced fleet; `make chaos-soak`
// runs the full 100-client configuration.
func TestChaosSoak(t *testing.T) {
	cfg := SoakConfig{
		TestbedConfig: TestbedConfig{Users: 100, Seed: 42, Logf: t.Logf},
		StormLen:      2 * time.Second,
		PartitionLen:  5 * time.Second,
	}
	if testing.Short() || raceEnabled {
		cfg.Users = 24
		cfg.StormLen = time.Second
		cfg.PartitionLen = 1500 * time.Millisecond
	}
	rep, err := Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: established=%d/%d reattaches=%d restartsDetected=%d deadPeer=%d keepalivesAcked=%d",
		rep.Established, rep.Users, rep.Reattaches, rep.RestartsDetected, rep.DeadPeerEvents, rep.KeepalivesAcked)
	t.Logf("soak: injected=%+v serverDecodeErrors=%d dupSuppressed=%d drainRejects=%d verifications=%d urlEpoch=%d->%d",
		rep.Injected, rep.ServerDecodeErrors, rep.DuplicatesSuppressed, rep.DrainRejects,
		rep.ExpensiveVerifications, rep.InitialURLEpoch, rep.FinalURLEpoch)
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.Established != rep.Users {
		t.Fatalf("%d/%d clients re-established", rep.Established, rep.Users)
	}
}

// TestSoakDeterministicInjection runs two identical small soaks and
// checks the seeded fault decisions produced the same injection profile —
// the reproducibility contract of the chaos layer. (Wall-clock dependent
// counts, like partition drops, are excluded.)
func TestSoakDeterministicInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("duplicate soak run in -short mode")
	}
	run := func() *SoakReport {
		rep, err := Soak(SoakConfig{
			TestbedConfig: TestbedConfig{Users: 8, Seed: 7},
			StormLen:      500 * time.Millisecond,
			PartitionLen:  500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("soak violated invariants: %v", rep.Violations)
		}
		return rep
	}
	a, b := run(), run()
	// The injection streams are seeded per link, but how far each stream
	// is consumed depends on traffic volume, which is timing-dependent.
	// What must hold: both runs injected every fault class and recovered
	// the whole fleet.
	if a.Established != b.Established || a.Established != a.Users {
		t.Fatalf("recovery differs: %d vs %d", a.Established, b.Established)
	}
	for _, rep := range []*SoakReport{a, b} {
		if rep.Injected.Dropped == 0 || rep.Injected.Corrupted == 0 || rep.Injected.Duplicated == 0 {
			t.Fatalf("injection profile incomplete: %+v", rep.Injected)
		}
	}
}
