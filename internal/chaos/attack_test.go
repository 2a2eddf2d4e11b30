package chaos

import (
	"errors"
	"testing"
	"time"
)

// TestAttackSoak is the adaptive-DoS acceptance scenario: a spoofed-
// source flood an order of magnitude above the legitimate rate storms
// the attach ingress while half the fleet holds sessions and the other
// half attaches through the flood. The run must trip suspicion, ratchet
// the demanded difficulty at least two steps, refuse replayed solutions,
// keep ≥95% of the legit fleet on working sessions, buy the attacker
// (almost) no pairings, and decay back to difficulty zero within the
// bound once the storm stops. `make attack-soak` runs the full
// configuration; short mode and the race detector shrink it.
func TestAttackSoak(t *testing.T) {
	cfg := AttackConfig{
		TestbedConfig: TestbedConfig{Users: 16, Seed: 42, Logf: t.Logf},
		StormLen:      2 * time.Second,
	}
	if testing.Short() || raceEnabled {
		cfg.Users = 6
		cfg.Flooders = 2
		cfg.SpoofedSources = 4
		cfg.StormLen = 1500 * time.Millisecond
	}
	rep, err := AttackSoak(cfg)
	if err != nil {
		if errors.Is(err, ErrSpoofedBindUnsupported) {
			t.Skipf("host cannot bind secondary loopback addresses: %v", err)
		}
		t.Fatal(err)
	}
	t.Logf("attack: %d attacker datagrams, difficulty %d->%d->%d (decayed in %v)",
		rep.AttackerDatagrams, rep.BaseDifficulty, rep.PeakDifficulty, rep.FinalDifficulty, rep.DecayedIn)
	t.Logf("attack: legit alive=%d/%d keepalivesAcked=%d sessions=%d verifications=%d",
		rep.LegitAlive, rep.LegitUsers, rep.KeepalivesAcked, rep.SessionsEstablished, rep.ExpensiveVerifications)
	t.Logf("attack: puzzles issued=%d verified=%d rejected=%d replays=%d ratelimitDropped=%d",
		rep.PuzzlesIssued, rep.PuzzlesVerified, rep.PuzzlesRejected, rep.SolutionReplays, rep.RatelimitDropped)
	t.Logf("attack: solve cost %d@%d vs %d@%d, urlEpoch %d->%d",
		rep.SolveCostBase, rep.BaseDifficulty, rep.SolveCostPeak, rep.PeakDifficulty,
		rep.InitialURLEpoch, rep.FinalURLEpoch)
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
}
