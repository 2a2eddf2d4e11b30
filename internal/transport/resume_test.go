package transport

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/transport/batchio"
)

// resumeRig provisions one attached client against a ticket-issuing
// server and returns everything the lifecycle tests poke at.
type resumeRig struct {
	ln   *LocalNetwork
	srv  *Server
	cl   *Client
	ring *symcrypto.TicketKeyRing
	sess *core.Session
}

func newResumeRig(t *testing.T, cfg core.Config) *resumeRig {
	t.Helper()
	ln, err := NewLocalNetwork(cfg, "grp-0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := symcrypto.NewTicketKeyRing(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mustListen(t), ln.Routers[0], ServerConfig{TicketKeys: ring, BootEpoch: 71})
	t.Cleanup(srv.Close)

	conn := mustListen(t)
	t.Cleanup(func() { conn.Close() })
	cl := NewClient(conn, srv.Addr(), ln.Users[0], testClientConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sess, err := cl.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !cl.HasTicket() {
		t.Fatal("attach did not mint a resumption ticket")
	}
	return &resumeRig{ln: ln, srv: srv, cl: cl, ring: ring, sess: sess}
}

// detach simulates the client losing its session (restart detected, dead
// peer) while keeping its ticket.
func (r *resumeRig) detach() { r.cl.setSession(nil, 0, "") }

// TestResumeRoundTrip re-attaches over the ticket path and checks the
// result is a real session — key agreement holds, the router adopted it,
// the accountability escrow survived, and no second pairing ran.
func TestResumeRoundTrip(t *testing.T) {
	rig := newResumeRig(t, core.Config{})
	verifications := rig.ln.Routers[0].Stats().ExpensiveVerifications
	rig.detach()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sess, err := rig.cl.Resume(ctx)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if sess.ID == rig.sess.ID {
		t.Fatal("resume reused the old session id")
	}

	// Key agreement on the NEW session, both directions.
	routerSess, ok := rig.ln.Routers[0].SessionByID(sess.ID)
	if !ok {
		t.Fatal("router did not adopt the resumed session")
	}
	frame, err := routerSess.SealData(rand.Reader, []byte("post-resume"))
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := sess.OpenData(frame); err != nil || string(pt) != "post-resume" {
		t.Fatalf("key agreement after resume: %q %v", pt, err)
	}

	// Accountability: the escrowed M.2 follows the resumed session, so an
	// audit of the new session id still opens the original signer.
	if _, ok := rig.ln.Routers[0].LoggedAccessRequest(sess.ID); !ok {
		t.Fatal("resumed session has no escrowed access request")
	}

	// The whole point: zero additional pairings.
	rs := rig.ln.Routers[0].Stats()
	if rs.ExpensiveVerifications != verifications {
		t.Fatalf("resume ran %d expensive verifications", rs.ExpensiveVerifications-verifications)
	}
	if rs.SessionsResumed != 1 {
		t.Fatalf("SessionsResumed = %d, want 1", rs.SessionsResumed)
	}
	if rig.srv.Stats().ResumesServed() != 1 {
		t.Fatal("server resume counter not bumped")
	}
	if rig.cl.Stats().ResumeSuccesses() != 1 {
		t.Fatal("client resume counter not bumped")
	}
	// The reissued ticket chains: a second resume works too.
	rig.detach()
	if _, err := rig.cl.Resume(ctx); err != nil {
		t.Fatalf("second resume on reissued ticket: %v", err)
	}
}

// TestResumeTicketExpiry moves the router's clock past the ticket
// lifetime and expects the resume to be refused as unusable, with
// AttachOrResume falling back to a full handshake that mints a fresh
// ticket.
func TestResumeTicketExpiry(t *testing.T) {
	clock := newStepClock(time.Now())
	// Revocation lists must outlive the jump, or the fallback attach would
	// refuse them as past their next update.
	rig := newResumeRig(t, core.Config{Clock: clock, RevocationUpdatePeriod: time.Hour})
	rig.detach()
	clock.Advance(ticketLifetime + time.Nanosecond)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := rig.cl.Resume(ctx); !errors.Is(err, ErrTicketUnusable) {
		t.Fatalf("want ErrTicketUnusable for expired ticket, got %v", err)
	}
	if _, err := rig.cl.AttachOrResume(ctx); err != nil {
		t.Fatalf("fallback attach: %v", err)
	}
	if rig.cl.Stats().ResumeFallbacks() != 1 {
		t.Fatalf("ResumeFallbacks = %d, want 1", rig.cl.Stats().ResumeFallbacks())
	}
	if !rig.cl.HasTicket() {
		t.Fatal("fallback attach did not mint a fresh ticket")
	}
}

// TestResumeSTEKRotationGrace rotates the server's ticket key ring: one
// rotation keeps old tickets resumable (the grace generation), a second
// retires the sealing key and forces a full handshake.
func TestResumeSTEKRotationGrace(t *testing.T) {
	rig := newResumeRig(t, core.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// One rotation: the ticket was sealed by what is now the grace key.
	if err := rig.ring.Rotate(rand.Reader); err != nil {
		t.Fatal(err)
	}
	rig.detach()
	if _, err := rig.cl.Resume(ctx); err != nil {
		t.Fatalf("resume within the old-key grace window: %v", err)
	}
	// The resume reissued a ticket under the NEW key, so the client rides
	// rotations indefinitely as long as it re-attaches at least once per
	// generation.

	// Two more rotations without contact: the held ticket's generation is
	// gone from the ring.
	if err := rig.ring.Rotate(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if err := rig.ring.Rotate(rand.Reader); err != nil {
		t.Fatal(err)
	}
	rig.detach()
	if _, err := rig.cl.Resume(ctx); !errors.Is(err, ErrTicketUnusable) {
		t.Fatalf("want ErrTicketUnusable after STEK retired, got %v", err)
	}
	attaches := rig.cl.Stats().AttachSuccesses()
	if _, err := rig.cl.AttachOrResume(ctx); err != nil {
		t.Fatalf("fallback attach: %v", err)
	}
	if got := rig.cl.Stats().AttachSuccesses(); got != attaches+1 {
		t.Fatalf("fallback did not run exactly one full attach (got %d)", got-attaches)
	}
}

// TestResumeStaleRevocationRefs advances the router's URL epoch after the
// ticket was issued and expects the resume to be refused with the
// revocation-staleness error: a revocation may have landed on the ticket
// holder, so the cheap path must not skip the membership re-check. The
// fallback full attach re-syncs revocation state and succeeds.
func TestResumeStaleRevocationRefs(t *testing.T) {
	rig := newResumeRig(t, core.Config{})

	// Revoke a bystander: the epoch moves although OUR holder stays valid —
	// the policy is conservative by construction.
	tok, err := rig.ln.NO.TokenOf("grp-0", rig.ln.Users[0].Credentials()[0].Index+7)
	if err != nil {
		t.Fatal(err)
	}
	rig.ln.NO.RevokeUserKey(tok)
	if err := rig.ln.RefreshRevocations(); err != nil {
		t.Fatal(err)
	}
	rig.srv.InvalidateBeacon()
	rig.detach()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := rig.cl.Resume(ctx); !errors.Is(err, core.ErrRevocationStale) {
		t.Fatalf("want ErrRevocationStale after epoch advance, got %v", err)
	}
	if _, err := rig.cl.AttachOrResume(ctx); err != nil {
		t.Fatalf("fallback attach after revocation advance: %v", err)
	}
	// The fresh ticket pins the NEW epochs, so resumption works again.
	rig.detach()
	if _, err := rig.cl.Resume(ctx); err != nil {
		t.Fatalf("resume on re-pinned ticket: %v", err)
	}
}

// TestResumeReplayIdempotence replays a captured resume request datagram
// and expects the reply cache to answer byte-identically without minting
// a second session — the resume-path extension of the M.2 idempotence
// property.
func TestResumeReplayIdempotence(t *testing.T) {
	rig := newResumeRig(t, core.Config{})
	rig.detach()

	// Capture the resume request on its way out.
	var captured []byte
	rig.cl.conn = newScriptedConn(rig.cl.conn, func(p []byte) bool {
		if k, _, err := DecodeFrame(p); err == nil && k == KindResumeRequest {
			captured = append([]byte(nil), p...)
		}
		return false
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := rig.cl.Resume(ctx); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("no resume request captured")
	}
	resumed := rig.ln.Routers[0].Stats().SessionsResumed

	// Replay twice from a fresh socket.
	attacker := mustListen(t)
	defer attacker.Close()
	var replies [][]byte
	buf := make([]byte, 65536)
	for i := 0; i < 2; i++ {
		if _, err := attacker.WriteTo(captured, rig.srv.Addr()); err != nil {
			t.Fatal(err)
		}
		_ = attacker.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, _, err := attacker.ReadFrom(buf)
		if err != nil {
			t.Fatalf("replay %d: expected cached confirm: %v", i, err)
		}
		if k, _, err := DecodeFrame(buf[:n]); err != nil || k != KindResumeConfirm {
			t.Fatalf("replay %d answered with %v, %v", i, k, err)
		}
		replies = append(replies, append([]byte(nil), buf[:n]...))
	}
	if string(replies[0]) != string(replies[1]) {
		t.Fatal("replayed confirms differ")
	}
	if got := rig.ln.Routers[0].Stats().SessionsResumed; got != resumed {
		t.Fatalf("replay minted %d extra sessions", got-resumed)
	}
	if rig.srv.Stats().Duplicates() < 2 {
		t.Fatal("resume replays not counted as duplicates")
	}
}

// TestResumeTamperedTicketRefused flips a ticket byte and expects a clean
// refusal (AEAD integrity), not a session.
func TestResumeTamperedTicketRefused(t *testing.T) {
	rig := newResumeRig(t, core.Config{})
	rig.detach()
	rig.cl.mu.Lock()
	rig.cl.ticket.blob = append([]byte(nil), rig.cl.ticket.blob...)
	rig.cl.ticket.blob[len(rig.cl.ticket.blob)/2] ^= 0x40
	rig.cl.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := rig.cl.Resume(ctx); !errors.Is(err, ErrTicketUnusable) {
		t.Fatalf("want ErrTicketUnusable for tampered ticket, got %v", err)
	}
	if rig.srv.Stats().ResumeRejects() == 0 {
		t.Fatal("server resume-reject counter not bumped")
	}
}

// TestMaintainResumesAfterRestart restarts the server (new incarnation,
// same STEK ring, same socket address) and expects Maintain to re-attach
// via the ticket path — zero additional full handshakes.
func TestMaintainResumesAfterRestart(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := symcrypto.NewTicketKeyRing(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	serverConn := mustListen(t)
	srv := NewServer(serverConn, ln.Routers[0], ServerConfig{BootEpoch: 1, TicketKeys: ring})

	conn := mustListen(t)
	defer conn.Close()
	cl := NewClient(conn, srv.Addr(), ln.Users[0], testClientConfig())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- cl.Maintain(ctx, MaintainConfig{
			KeepaliveInterval: 50 * time.Millisecond,
			PingTimeout:       300 * time.Millisecond,
			MaxMissed:         2,
			AttachTimeout:     15 * time.Second,
			ReattachMin:       20 * time.Millisecond,
			ReattachMax:       100 * time.Millisecond,
		})
	}()

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitFor(func() bool { return cl.Session() != nil }, "initial attach")
	if cl.Stats().AttachSuccesses() != 1 {
		t.Fatalf("initial attaches = %d", cl.Stats().AttachSuccesses())
	}

	// Restart: kill the incarnation, reboot the router state, come back on
	// the same address with the same ticket ring but a new boot epoch.
	addr := srv.Addr().String()
	srv.Close()
	ln.Routers[0].Reboot()
	serverConn2, err := net.ListenPacket("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(serverConn2, ln.Routers[0], ServerConfig{BootEpoch: 2, TicketKeys: ring})
	defer srv2.Close()

	waitFor(func() bool { return cl.BootEpoch() == 2 && cl.Session() != nil }, "re-attach to new incarnation")
	if got := cl.Stats().AttachSuccesses(); got != 1 {
		t.Fatalf("restart forced %d full handshakes; want re-attach via ticket", got-1)
	}
	if cl.Stats().ResumeSuccesses() == 0 {
		t.Fatal("no resume recorded across restart")
	}
	if cl.Stats().RestartsDetected() == 0 {
		t.Fatal("restart not detected")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("maintain exited with %v", err)
	}
}

// handoffRecorder is a HandoffObserver that notes, each time it runs,
// which replies the server's cache holds at that moment. The server calls
// it on a shard loop; the test reads it through seen.
type handoffRecorder struct {
	srv      *Server
	mu       sync.Mutex
	calls    int
	confirms int // cached ResumeConfirm frames seen by the last call
	inFlight int // claimed exchanges without a reply seen by the last call
}

func (h *handoffRecorder) HandoffAdopted(prev, next core.SessionID, prevRouter string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls++
	h.confirms, h.inFlight = 0, 0 // of this call
	for i := range h.srv.replies.stripes {
		s := &h.srv.replies.stripes[i]
		s.mu.Lock()
		for _, e := range s.m {
			if e.frame == nil {
				h.inFlight++
			} else if k, _, err := DecodeFrame(e.frame); err == nil && k == KindResumeConfirm {
				h.confirms++
			}
		}
		s.mu.Unlock()
	}
}

func (h *handoffRecorder) seen() (calls, confirms, inFlight int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls, h.confirms, h.inFlight
}

// TestHandoffAnnouncedAfterConfirm roams a ticket to a second router and
// checks the order of the adopting server's work: by the time the
// backbone observer runs — and seals its flood — the confirm is already
// in the reply cache, so the announcement costs the client's round trip
// nothing and a request whose confirm failed would have announced
// nothing. The adoption is still counted, and a replayed request gets
// the cached confirm without a second announcement. The observer runs
// after the confirm's flush, so the client may hold the confirm first;
// the test waits for the call.
func TestHandoffAnnouncedAfterConfirm(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := symcrypto.NewTicketKeyRing(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	home := NewServer(mustListen(t), ln.Routers[0], ServerConfig{TicketKeys: ring, BootEpoch: 71})
	t.Cleanup(home.Close)
	away := NewServer(mustListen(t), ln.Routers[1], ServerConfig{TicketKeys: ring, BootEpoch: 72})
	t.Cleanup(away.Close)
	rec := &handoffRecorder{srv: away}
	away.SetBackbone(nil, rec)

	conn := mustListen(t)
	t.Cleanup(func() { conn.Close() })
	var captured []byte
	cl := NewClient(newScriptedConn(conn, func(p []byte) bool {
		if k, _, err := DecodeFrame(p); err == nil && k == KindResumeRequest {
			captured = append([]byte(nil), p...)
		}
		return false
	}), home.Addr(), ln.Users[0], testClientConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := cl.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	cl.Retarget(away.Addr())
	if _, err := cl.Resume(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the handoff announcement", func() bool {
		calls, _, _ := rec.seen()
		return calls > 0
	})

	calls, confirms, inFlight := rec.seen()
	if calls != 1 {
		t.Fatalf("observer ran %d times, want 1", calls)
	}
	if confirms != 1 || inFlight != 0 {
		t.Fatalf("observer ran with %d cached confirms and %d exchanges still in flight, want 1 and 0",
			confirms, inFlight)
	}
	if got := away.Stats().HandoffsIn(); got != 1 {
		t.Fatalf("handoffs_in = %d, want 1", got)
	}

	attacker := mustListen(t)
	defer attacker.Close()
	if _, err := attacker.WriteTo(captured, away.Addr()); err != nil {
		t.Fatal(err)
	}
	_ = attacker.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 65536)
	n, _, err := attacker.ReadFrom(buf)
	if err != nil {
		t.Fatalf("replayed request: expected the cached confirm: %v", err)
	}
	if k, _, err := DecodeFrame(buf[:n]); err != nil || k != KindResumeConfirm {
		t.Fatalf("replay answered with %v, %v", k, err)
	}
	if calls, _, _ := rec.seen(); calls != 1 || away.Stats().HandoffsIn() != 1 {
		t.Fatalf("replay announced again: observer calls %d, handoffs_in %d", calls, away.Stats().HandoffsIn())
	}
}

// TestEscrowSurvivesRoam follows one user's M.2 through attach → resume →
// cross-router handoff → resume. Every router that holds one of the
// user's sessions must log exactly the attach's M.2 bytes for it, and the
// operator's audit of it must name the user's group. The last resume is
// driven through dispatch on a test shard loop, so the test can scribble
// over the loop's opened-ticket scratch afterwards: the network log must
// not share its bytes, which also hold the resumption secret.
func TestEscrowSurvivesRoam(t *testing.T) {
	const group = "grp-roam"
	ln, err := NewLocalNetwork(core.Config{}, group, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := symcrypto.NewTicketKeyRing(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	home := NewServer(mustListen(t), ln.Routers[0], ServerConfig{TicketKeys: ring, BootEpoch: 71})
	t.Cleanup(home.Close)
	away := NewServer(mustListen(t), ln.Routers[1], ServerConfig{TicketKeys: ring, BootEpoch: 72})
	t.Cleanup(away.Close)

	conn := mustListen(t)
	t.Cleanup(func() { conn.Close() })
	var m2 []byte
	cl := NewClient(newScriptedConn(conn, func(p []byte) bool {
		if k, payload, err := DecodeFrame(p); err == nil && k == KindAccessRequest && m2 == nil {
			m2 = append([]byte(nil), payload...)
		}
		return false
	}), home.Addr(), ln.Users[0], testClientConfig())

	logged := func(r *core.MeshRouter, id core.SessionID, step string) {
		t.Helper()
		m, ok := r.LoggedAccessRequest(id)
		if !ok {
			t.Fatalf("%s: %s logged no M.2 for the session", step, r.ID())
		}
		if !bytes.Equal(m.Marshal(), m2) {
			t.Fatalf("%s: %s logged an M.2 that differs from the attach's", step, r.ID())
		}
		res, err := ln.NO.AuditSession(r, id)
		if err != nil || res.Group != group {
			t.Fatalf("%s: audit at %s named %q (%v), want %q", step, r.ID(), res.Group, err, group)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	attached, err := cl.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	logged(ln.Routers[0], attached.ID, "attach")
	resumed, err := cl.Resume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	logged(ln.Routers[0], resumed.ID, "resume")
	cl.Retarget(away.Addr())
	handed, err := cl.Resume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if away.Stats().HandoffsIn() != 1 {
		t.Fatal("the resume at the second router was not a handoff")
	}
	logged(ln.Routers[1], handed.ID, "handoff")

	// The last resume, through dispatch on a shard loop the test holds.
	out := &lastDatagramConn{}
	eg := batchio.NewEgress(out, 32, time.Hour, batchio.NewPool(egressFrameSize), nil)
	t.Cleanup(eg.Close)
	l := &shardLoop{eg: eg}
	held := cl.heldTicket()
	req, frame, err := resumeRequest(held, cl.user.Now(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	away.dispatch(l, away.router.Now(), &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}, frame)
	away.endBatch(l)
	kind, payload, err := DecodeFrame(out.last)
	if err != nil || kind != KindResumeConfirm {
		t.Fatalf("last resume answered %v: %v", kind, err)
	}
	var confirm ResumeConfirm
	if err := UnmarshalResumeConfirmInto(payload, &confirm); err != nil {
		t.Fatal(err)
	}
	last, _, err := openResumeConfirm(held, &req.Nonce, &confirm, cl.user.Now())
	if err != nil {
		t.Fatal(err)
	}
	logged(ln.Routers[1], last.ID, "second resume")

	scratch := l.ticketPT[:cap(l.ticketPT)]
	if !bytes.Contains(scratch, m2) {
		t.Fatal("the shard loop's ticket scratch does not hold the opened escrow")
	}
	for i := range scratch {
		scratch[i] = 0xa5
	}
	logged(ln.Routers[1], last.ID, "after the ticket scratch was overwritten")
	logged(ln.Routers[1], handed.ID, "after the ticket scratch was overwritten")
}

// TestKnownGapSTEKHolderResumesAsVictim records that every router of a
// metro seals and opens tickets under one STEK ring, so whoever holds the
// ring can resume as any user at any router, and the honest router then
// logs the victim's M.2 as the escrow of the holder's session. It asserts
// today's behaviour, not a goal: when each router seals under its own
// ring (ROADMAP item 20(b)) both forgeries must be refused and this test
// flips, as TestKnownGapTokenRecoverableFromSignature will for item 1(1).
//
// A client attaches at the first of two routers on one ring. The ring's
// holder then sends two resume requests through the second router's
// dispatch, on a shard loop the test holds: (i) with the victim's ticket,
// opened with the ring for its secret, and (ii) with a ticket it minted
// with the ring around the victim's M.2, as any router logs it, and a
// secret of its own choosing. Both draw a ResumeConfirm, the second router
// logs the victim's M.2 for each session, and the operator's audit names
// the victim's group.
func TestKnownGapSTEKHolderResumesAsVictim(t *testing.T) {
	const group = "grp-victim"
	ln, err := NewLocalNetwork(core.Config{}, group, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := symcrypto.NewTicketKeyRing(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	home := NewServer(mustListen(t), ln.Routers[0], ServerConfig{TicketKeys: ring, BootEpoch: 81})
	t.Cleanup(home.Close)
	away := NewServer(mustListen(t), ln.Routers[1], ServerConfig{TicketKeys: ring, BootEpoch: 82})
	t.Cleanup(away.Close)

	conn := mustListen(t)
	t.Cleanup(func() { conn.Close() })
	cl := NewClient(conn, home.Addr(), ln.Users[0], testClientConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	attached, err := cl.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	logged, ok := ln.Routers[0].LoggedAccessRequest(attached.ID)
	if !ok {
		t.Fatal("the attach logged no M.2")
	}
	victimM2 := logged.Marshal()

	out := &lastDatagramConn{}
	eg := batchio.NewEgress(out, 32, time.Hour, batchio.NewPool(egressFrameSize), nil)
	t.Cleanup(eg.Close)
	l := &shardLoop{eg: eg}
	// resumeAsVictim steps one resume request for held through the second
	// router and checks what it adopted and logged.
	resumeAsVictim := func(step string, held *resumeTicket) {
		t.Helper()
		req, frame, err := resumeRequest(held, away.router.Now(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		away.dispatch(l, away.router.Now(), &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}, frame)
		away.endBatch(l)
		kind, payload, err := DecodeFrame(out.last)
		if err != nil || kind != KindResumeConfirm {
			t.Fatalf("%s: answered %v (%v) — if tickets no longer open at another router, flip this test (ROADMAP item 20(b))", step, kind, err)
		}
		var confirm ResumeConfirm
		if err := UnmarshalResumeConfirmInto(payload, &confirm); err != nil {
			t.Fatal(err)
		}
		sess, _, err := openResumeConfirm(held, &req.Nonce, &confirm, away.router.Now())
		if err != nil {
			t.Fatalf("%s: the holder cannot open its confirm: %v", step, err)
		}
		m, ok := ln.Routers[1].LoggedAccessRequest(sess.ID)
		if !ok || !bytes.Equal(m.Marshal(), victimM2) {
			t.Fatalf("%s: the second router did not log the victim's M.2 for the holder's session", step)
		}
		if res, err := ln.NO.AuditSession(ln.Routers[1], sess.ID); err != nil || res.Group != group {
			t.Fatalf("%s: audit named %q (%v), want the victim's group %q", step, res.Group, err, group)
		}
	}

	// (i) The victim's ticket, as a resume request carries it, opened with
	// the ring for the secret that keys the request's MAC.
	blob := cl.heldTicket().blob
	opened, err := OpenTicket(blob, ring)
	if err != nil {
		t.Fatal(err)
	}
	resumeAsVictim("opened ticket", &resumeTicket{blob: blob, secret: opened.Secret[:], prev: opened.Prev})

	// (ii) A ticket minted around the victim's M.2, with a secret the
	// holder chose and the epochs every beacon announces.
	minted := &Ticket{
		Prev:     core.SessionID{0x5e},
		Router:   ln.Routers[0].ID(),
		URLEpoch: ln.Routers[1].RevocationEpoch(revocation.ListURL),
		CRLEpoch: ln.Routers[1].RevocationEpoch(revocation.ListCRL),
		Expiry:   away.router.Now().Add(time.Hour),
		Escrow:   victimM2,
	}
	copy(minted.Secret[:], "a secret of the ring holder's own")
	forged, err := minted.Seal(rand.Reader, ring)
	if err != nil {
		t.Fatal(err)
	}
	resumeAsVictim("minted ticket", &resumeTicket{blob: forged, secret: minted.Secret[:], prev: minted.Prev})
}
