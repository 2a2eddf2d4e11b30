package transport

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
)

// testDoSPolicy is a fast adaptive policy for wire tests: four failures
// within the window trip suspicion at a trivially solvable difficulty.
func testDoSPolicy() core.DoSPolicy {
	return core.DoSPolicy{
		Enabled:            true,
		Window:             5 * time.Second,
		SuspicionThreshold: 4,
		QuietPeriod:        time.Second,
		BaseDifficulty:     2,
		StepInterval:       50 * time.Millisecond,
		DecayInterval:      50 * time.Millisecond,
	}
}

// floodGarbageAccess sends n undecodable access-request datagrams — the
// cheap forgery flood the adaptive monitor counts as failure evidence.
func floodGarbageAccess(t *testing.T, conn net.PacketConn, dst net.Addr, n int) {
	t.Helper()
	frame, err := EncodeFrame(KindAccessRequest, []byte("not an access request at all"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := conn.WriteTo(frame, dst); err != nil {
			t.Fatal(err)
		}
	}
}

// awaitDifficulty polls until the router demands a nonzero puzzle
// difficulty (suspicion tripped) or the deadline passes.
func awaitDifficulty(t *testing.T, r *core.MeshRouter) uint8 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if d := r.RequiredDifficulty(); d > 0 {
			return d
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("suspicion never tripped")
	return 0
}

// readMessage reads frames from conn until one of the wanted kind
// arrives, decoding it; unrelated frames (stray beacons) are skipped.
func readMessage(t *testing.T, conn net.PacketConn, want Kind) any {
	t.Helper()
	buf := make([]byte, 65536)
	deadline := time.Now().Add(5 * time.Second)
	_ = conn.SetReadDeadline(deadline)
	for time.Now().Before(deadline) {
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			t.Fatalf("waiting for %v: %v", want, err)
		}
		kind, payload, err := DecodeFrame(buf[:n])
		if err != nil {
			t.Fatalf("undecodable frame: %v", err)
		}
		if kind != want {
			continue
		}
		msg, err := DecodeMessage(kind, payload)
		if err != nil {
			t.Fatalf("decode %v: %v", kind, err)
		}
		return msg
	}
	t.Fatalf("no %v frame arrived", want)
	return nil
}

// TestPuzzleGateLiveWire drives the suspicion → puzzle loop end-to-end
// on raw sockets: a garbage flood trips the adaptive monitor, after
// which a pre-storm M.2 (signed before any puzzle was demanded) is
// refused with RejectPuzzle carrying a challenge; attaching the solution
// to the very same signed M.2 — the solution rides outside the signed
// transcript — gets the session established.
func TestPuzzleGateLiveWire(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-dos", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.SeedUserRevocations(); err != nil {
		t.Fatal(err)
	}
	ln.Routers[0].SetDoSPolicy(testDoSPolicy())
	srv := NewServer(mustListen(t), ln.Routers[0], ServerConfig{
		BootEpoch:         1,
		DoSSampleInterval: 10 * time.Millisecond,
	})
	defer srv.Close()

	raw := mustListen(t)
	defer raw.Close()

	// Calm network: the beacon carries no puzzle, and the M.2 built from
	// it carries no solution.
	breq, err := EncodeMessage(&BeaconRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteTo(breq, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	b := readMessage(t, raw, KindBeacon).(*core.Beacon)
	if b.Puzzle != nil {
		t.Fatal("calm-network beacon carries a puzzle")
	}
	m2, err := ln.Users[0].HandleBeacon(b, core.GroupID("grp-dos"))
	if err != nil {
		t.Fatal(err)
	}
	if m2.HasSolution {
		t.Fatal("calm-network M.2 carries a solution")
	}

	floodGarbageAccess(t, raw, srv.Addr(), 6)
	need := awaitDifficulty(t, ln.Routers[0])
	if want := testDoSPolicy().BaseDifficulty; need != want {
		t.Fatalf("demanded difficulty %d, want base %d", need, want)
	}

	// The pre-storm M.2 is now refused before any decode work, and the
	// reject carries the current challenge.
	frame, err := EncodeMessage(m2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteTo(frame, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	rej := readMessage(t, raw, KindReject).(*Reject)
	if rej.Code != RejectPuzzle {
		t.Fatalf("reject code %v, want RejectPuzzle", rej.Code)
	}
	if rej.Puzzle == nil {
		t.Fatal("RejectPuzzle carries no challenge")
	}
	if want := core.NewSessionID(m2.GR, m2.GJ); rej.Session != want {
		t.Fatalf("reject addressed to %s, want %s (pre-decode session id)", rej.Session, want)
	}

	// Solve and retry the *same* signed M.2: the solution fields live
	// outside the group-signed transcript, so no re-sign is needed.
	m2.HasSolution = true
	m2.Solution = rej.Puzzle.Solve()
	m2.PuzzleIssuedAt = rej.Puzzle.IssuedAt
	m2.PuzzleDifficulty = rej.Puzzle.Difficulty
	frame, err = EncodeMessage(m2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteTo(frame, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	confirm := readMessage(t, raw, KindAccessConfirm).(*core.AccessConfirm)
	if core.NewSessionID(confirm.GR, confirm.GJ) != core.NewSessionID(m2.GR, m2.GJ) {
		t.Fatal("confirm for the wrong session")
	}

	// A fresh beacon now advertises the challenge to everyone — once the
	// sampler's next tick has seen the difficulty move and dropped the cached
	// calm-network frame, which a warm run reaches this line ahead of.
	var b2 *core.Beacon
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if _, err := raw.WriteTo(breq, srv.Addr()); err != nil {
			t.Fatal(err)
		}
		if b2 = readMessage(t, raw, KindBeacon).(*core.Beacon); b2.Puzzle != nil {
			break
		}
	}
	if b2.Puzzle == nil || b2.Puzzle.Difficulty != need {
		t.Fatalf("storm beacon puzzle %+v, want difficulty %d", b2.Puzzle, need)
	}

	st := srv.Stats()
	if st.DoSPuzzlesRejected() == 0 {
		t.Fatal("dos_puzzles_rejected not bumped")
	}
	if st.DoSPuzzlesIssued() == 0 {
		t.Fatal("dos_puzzles_issued not bumped")
	}
	if st.DoSPuzzlesVerified() == 0 {
		t.Fatal("dos_puzzles_verified not bumped")
	}
	// The sampler mirrors controller state into the gauges.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !srv.Stats().DoSSuspicion() {
		time.Sleep(5 * time.Millisecond)
	}
	if !srv.Stats().DoSSuspicion() {
		t.Fatal("dos_suspicion gauge never set")
	}
	if got := srv.Stats().DoSDifficulty(); got != int64(need) {
		t.Fatalf("dos_difficulty gauge %d, want %d", got, need)
	}
}

// TestClientAttachUnderActiveDefense attaches a stock client while the
// router is already demanding puzzles: the beacon carries the challenge,
// the client's budgeted solver answers it off the hot path, and the
// handshake completes without RejectPuzzle round trips.
func TestClientAttachUnderActiveDefense(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-dos", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ln.Routers[0].SetDoSPolicy(testDoSPolicy())
	srv := NewServer(mustListen(t), ln.Routers[0], ServerConfig{
		BootEpoch:         1,
		DoSSampleInterval: 10 * time.Millisecond,
	})
	defer srv.Close()

	attacker := mustListen(t)
	defer attacker.Close()
	floodGarbageAccess(t, attacker, srv.Addr(), 6)
	awaitDifficulty(t, ln.Routers[0])
	// Wait for the sampler to invalidate the cached beacon so the client
	// solicits one that already carries the challenge.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && srv.Stats().DoSDifficulty() == 0 {
		time.Sleep(5 * time.Millisecond)
	}

	conn := mustListen(t)
	defer conn.Close()
	cl := NewClient(conn, srv.Addr(), ln.Users[0], testClientConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := cl.Attach(ctx); err != nil {
		t.Fatalf("attach under active defense: %v", err)
	}
	if srv.Stats().DoSPuzzlesVerified() == 0 {
		t.Fatal("attach succeeded without a verified solution")
	}
}

// TestClientResumeUnderActiveDefense resumes a ticket while puzzles are
// demanded: the first resume attempt carries no solution and is refused
// with RejectPuzzle, and the client's retry — fresh nonce, solved
// challenge under the request MAC — completes the cheap path.
func TestClientResumeUnderActiveDefense(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-dos", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ln.Routers[0].SetDoSPolicy(testDoSPolicy())
	srv := NewServer(mustListen(t), ln.Routers[0], ServerConfig{
		BootEpoch:         1,
		DoSSampleInterval: 10 * time.Millisecond,
	})
	defer srv.Close()

	conn := mustListen(t)
	defer conn.Close()
	cl := NewClient(conn, srv.Addr(), ln.Users[0], testClientConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := cl.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	if !cl.HasTicket() {
		t.Fatal("attach issued no ticket")
	}

	attacker := mustListen(t)
	defer attacker.Close()
	floodGarbageAccess(t, attacker, srv.Addr(), 6)
	awaitDifficulty(t, ln.Routers[0])

	rejected := srv.Stats().DoSPuzzlesRejected()
	if _, err := cl.Resume(ctx); err != nil {
		t.Fatalf("resume under active defense: %v", err)
	}
	if srv.Stats().DoSPuzzlesRejected() == rejected {
		t.Fatal("first resume attempt was not puzzle-gated")
	}
	if srv.Stats().DoSPuzzlesVerified() == 0 {
		t.Fatal("resume solution never verified")
	}
	if srv.Stats().ResumesServed() == 0 {
		t.Fatal("resume did not take the cheap path")
	}
}

// TestSolutionReplayTable covers the cross-source replay suppression: the
// first source to present a solution owns it, retransmits from the same
// source pass, any other source is refused, and the two-generation
// rotation keeps the table bounded without forgetting fresh entries.
func TestSolutionReplayTable(t *testing.T) {
	tab := newSolutionReplayTable(4)
	at := time.Unix(1700000000, 0)

	if !tab.admit(at, 8, 42, "src-a") {
		t.Fatal("first presentation refused")
	}
	if !tab.admit(at, 8, 42, "src-a") {
		t.Fatal("same-source retransmit refused")
	}
	if tab.admit(at, 8, 42, "src-b") {
		t.Fatal("cross-source replay admitted")
	}
	// A different triple (same solution, different issue time) is a
	// different puzzle and admits freely.
	if !tab.admit(at.Add(time.Second), 8, 42, "src-b") {
		t.Fatal("distinct puzzle refused")
	}

	// Rotation: overflow the current generation and check that a recent
	// entry still blocks replays (it lives in the previous generation).
	for i := uint64(0); i < 8; i++ {
		tab.admit(at, 8, 1000+i, "src-c")
	}
	if len(tab.cur) > 4 || len(tab.prev) > 4 {
		t.Fatalf("generations grew past the bound: cur=%d prev=%d", len(tab.cur), len(tab.prev))
	}
	if tab.admit(at, 8, 1007, "src-d") {
		t.Fatal("fresh entry forgotten by rotation")
	}
}
