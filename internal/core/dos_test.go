package core

import (
	"crypto/rand"
	"errors"
	"testing"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/sgs"
)

func TestDoSPuzzleRequiredWhenDefenseOn(t *testing.T) {
	tb := newTestbed(t, 1, 1, 1)
	u := tb.user("0", 0)
	r := tb.routers["MR-0"]
	r.SetDoSDefense(true)

	beacon, err := r.Beacon()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := u.HandleBeacon(beacon, "grp-0")
	if err != nil {
		t.Fatal(err)
	}
	if !m2.HasSolution {
		t.Fatal("user did not solve the beacon puzzle")
	}
	// Legitimate user with a solution gets in.
	if _, _, err := r.HandleAccessRequest(m2); err != nil {
		t.Fatalf("puzzled user rejected: %v", err)
	}

	// An attacker that strips the solution is shed before any pairing.
	beacon2, err := r.Beacon()
	if err != nil {
		t.Fatal(err)
	}
	m2b, err := u.HandleBeacon(beacon2, "grp-0")
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats().ExpensiveVerifications
	m2b.HasSolution = false
	if _, _, err := r.HandleAccessRequest(m2b); !errors.Is(err, ErrPuzzleRequired) {
		t.Fatalf("solution-less M.2 accepted: %v", err)
	}
	after := r.Stats()
	if after.ExpensiveVerifications != before {
		t.Fatal("router performed expensive verification on a puzzle-less request")
	}
	if after.RejectedPuzzle == 0 {
		t.Fatal("cheap rejection not counted")
	}
}

func TestDoSWrongSolutionShedCheaply(t *testing.T) {
	tb := newTestbed(t, 1, 1, 1)
	u := tb.user("0", 0)
	r := tb.routers["MR-0"]
	r.SetDoSDefense(true)

	beacon, err := r.Beacon()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := u.HandleBeacon(beacon, "grp-0")
	if err != nil {
		t.Fatal(err)
	}
	m2.Solution += 12345 // wrong with overwhelming probability at difficulty 4... retry if unlucky
	before := r.Stats().ExpensiveVerifications
	_, _, err = r.HandleAccessRequest(m2)
	if err == nil {
		t.Skip("solution collision at low test difficulty; skip")
	}
	if !errors.Is(err, ErrPuzzleRequired) {
		t.Fatalf("want ErrPuzzleRequired, got %v", err)
	}
	if r.Stats().ExpensiveVerifications != before {
		t.Fatal("expensive verification performed despite wrong solution")
	}
}

// floodRouter sends bogus M.2s (garbage signatures) and returns the stats
// delta; used by the DoS experiment (E6) and this test.
func floodRouter(t testing.TB, tb *testbed, r *MeshRouter, n int, withSolutions bool) RouterStats {
	t.Helper()
	beacon, err := r.Beacon()
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats()

	for i := 0; i < n; i++ {
		k, _ := bn256.RandomScalar(rand.Reader)
		gj := new(bn256.G1).ScalarBaseMult(k)
		bogus := &AccessRequest{
			GJ:        gj,
			GR:        beacon.GR,
			Timestamp: tb.clock.Now(),
			Sig:       forgeSignature(t),
		}
		if withSolutions && beacon.Puzzle != nil {
			bogus.HasSolution = true
			bogus.Solution = beacon.Puzzle.Solve()
		}
		_, _, _ = r.HandleAccessRequest(bogus)
	}

	after := r.Stats()
	return RouterStats{
		RequestsSeen:           after.RequestsSeen - before.RequestsSeen,
		RejectedPuzzle:         after.RejectedPuzzle - before.RejectedPuzzle,
		RejectedAuth:           after.RejectedAuth - before.RejectedAuth,
		ExpensiveVerifications: after.ExpensiveVerifications - before.ExpensiveVerifications,
	}
}

// forgeSignature builds a structurally valid but cryptographically bogus
// group signature (what an outsider attacker can produce).
func forgeSignature(t testing.TB) *sgs.Signature {
	t.Helper()
	r, _ := bn256.RandomScalar(rand.Reader)
	c, _ := bn256.RandomScalar(rand.Reader)
	sa, _ := bn256.RandomScalar(rand.Reader)
	sx, _ := bn256.RandomScalar(rand.Reader)
	sd, _ := bn256.RandomScalar(rand.Reader)
	_, t1, _ := bn256.RandomG1(rand.Reader)
	_, t2, _ := bn256.RandomG1(rand.Reader)
	return &sgs.Signature{R: r, T1: t1, T2: t2, C: c, SAlpha: sa, SX: sx, SDelta: sd}
}

func TestDoSFloodSheddingWithPuzzles(t *testing.T) {
	tb := newTestbed(t, 1, 1, 1)
	r := tb.routers["MR-0"]

	// Without defense: every bogus request costs expensive verification.
	const n = 3
	statsOff := floodRouter(t, tb, r, n, false)
	if statsOff.ExpensiveVerifications != n {
		t.Fatalf("without defense: %d expensive verifications, want %d", statsOff.ExpensiveVerifications, n)
	}

	// With defense: solution-less floods cost zero expensive work.
	r.SetDoSDefense(true)
	statsOn := floodRouter(t, tb, r, n, false)
	if statsOn.ExpensiveVerifications != 0 {
		t.Fatalf("with defense: %d expensive verifications, want 0", statsOn.ExpensiveVerifications)
	}
	if statsOn.RejectedPuzzle != n {
		t.Fatalf("with defense: %d puzzle rejections, want %d", statsOn.RejectedPuzzle, n)
	}
}
