package chaos

import (
	"fmt"
	"testing"
	"time"
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
