package transport

import (
	"context"
	"crypto/rand"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
)

// testClientConfig keeps the first retransmissions quick (lossy tests
// converge fast) while leaving a deep retry budget: under heavy
// concurrency the router's verification queue, not the network, is the
// dominant latency, and a client must keep waiting through it.
func testClientConfig() ClientConfig {
	return ClientConfig{
		RetransmitTimeout: 80 * time.Millisecond,
		MaxTimeout:        2 * time.Second,
		MaxRetries:        16,
	}
}

func mustListen(t *testing.T) net.PacketConn {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestHandshakeOverUDP drives several concurrent users through the full
// M.1–M.3 AKA over real loopback sockets and checks both session halves
// agree on keys.
func TestHandshakeOverUDP(t *testing.T) {
	const users = 8
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, users)
	if err != nil {
		t.Fatal(err)
	}
	serverConn := mustListen(t)
	srv := NewServer(serverConn, ln.Routers[0], ServerConfig{})
	defer srv.Close()

	type result struct {
		sess *core.Session
		err  error
	}
	results := make([]result, users)
	done := make(chan int, users)
	for i := 0; i < users; i++ {
		go func(i int) {
			conn := mustListen(t)
			defer conn.Close()
			cl := NewClient(conn, srv.Addr(), ln.Users[i], testClientConfig())
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			s, err := cl.Attach(ctx)
			results[i] = result{s, err}
			done <- i
		}(i)
	}
	for i := 0; i < users; i++ {
		<-done
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("user %d: %v", i, r.err)
		}
		routerSess, ok := ln.Routers[0].SessionByID(r.sess.ID)
		if !ok {
			t.Fatalf("user %d: router has no session %s", i, r.sess.ID)
		}
		// Key agreement: a frame sealed by the router side must open on
		// the user side.
		frame, err := routerSess.SealData(rand.Reader, []byte("welcome"))
		if err != nil {
			t.Fatal(err)
		}
		pt, err := r.sess.OpenData(frame)
		if err != nil || string(pt) != "welcome" {
			t.Fatalf("user %d: key agreement failed: %q %v", i, pt, err)
		}
	}
	if got := ln.Routers[0].Stats().SessionsEstablished; got != users {
		t.Fatalf("router established %d sessions, want %d", got, users)
	}
}

// TestLoneAttachNeedsNoRetransmit pins that an access confirm leaves the
// server without help. The server's egress has no flush timer and its read
// loop flushes only after a datagram arrives, so on an otherwise silent
// socket an M.3 that its ingest drainer merely queued could leave only
// when the client's retransmitted M.2 replayed the reply cache. The
// retransmit timeout is far beyond any handshake, so a retransmit here can
// mean nothing else.
func TestLoneAttachNeedsNoRetransmit(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mustListen(t), ln.Routers[0], ServerConfig{})
	defer srv.Close()

	conn := mustListen(t)
	defer conn.Close()
	cl := NewClient(conn, srv.Addr(), ln.Users[0], ClientConfig{RetransmitTimeout: 10 * time.Second, MaxRetries: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := cl.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	if n := cl.Stats().Retransmits(); n != 0 {
		t.Fatalf("a lone attach needed %d retransmits: its M.3 waited in the egress spooler", n)
	}
}

// scriptedConn drops the outgoing datagrams its policy picks, reporting
// a successful send — a test's exact loss pattern ("drop the first M.2").
// Random loss is chaos.Conn's job; see drill_test.go.
type scriptedConn struct {
	net.PacketConn
	mu   sync.Mutex
	drop func(p []byte) bool
}

func newScriptedConn(conn net.PacketConn, drop func(p []byte) bool) *scriptedConn {
	return &scriptedConn{PacketConn: conn, drop: drop}
}

func (c *scriptedConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	c.mu.Lock()
	drop := c.drop(p)
	c.mu.Unlock()
	if drop {
		return len(p), nil
	}
	return c.PacketConn.WriteTo(p, addr)
}

// scriptKindDrop returns a drop policy that discards the first `drops`
// frames of the given kind.
func scriptKindDrop(kind Kind, drops int) func(p []byte) bool {
	remaining := drops
	return func(p []byte) bool {
		k, _, err := DecodeFrame(p)
		if err != nil || k != kind {
			return false
		}
		if remaining > 0 {
			remaining--
			return true
		}
		return false
	}
}

// TestRecoveryFromDroppedMessages drops the first copy of each AKA
// message in turn (M.1 beacon, M.2 request, M.3 confirm) and expects the
// retransmission machinery to recover every time.
func TestRecoveryFromDroppedMessages(t *testing.T) {
	cases := []struct {
		name       string
		serverDrop Kind // dropped on the server's send path
		clientDrop Kind // dropped on the client's send path
	}{
		{"dropped M.1 beacon", KindBeacon, KindInvalid},
		{"dropped M.2 access request", KindInvalid, KindAccessRequest},
		{"dropped M.3 confirm", KindAccessConfirm, KindInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			serverConn := net.PacketConn(mustListen(t))
			if tc.serverDrop != KindInvalid {
				serverConn = newScriptedConn(serverConn, scriptKindDrop(tc.serverDrop, 1))
			}
			srv := NewServer(serverConn, ln.Routers[0], ServerConfig{})
			defer srv.Close()

			clientConn := net.PacketConn(mustListen(t))
			defer clientConn.Close()
			if tc.clientDrop != KindInvalid {
				clientConn = newScriptedConn(clientConn, scriptKindDrop(tc.clientDrop, 1))
			}
			cl := NewClient(clientConn, srv.Addr(), ln.Users[0], testClientConfig())
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			if _, err := cl.Attach(ctx); err != nil {
				t.Fatalf("attach: %v", err)
			}
			if cl.Stats().Retransmits() == 0 {
				t.Fatal("recovered without retransmitting — drop script did not bite")
			}
		})
	}
}

// TestDuplicateAccessRequestSuppressed replays a captured M.2 datagram
// and expects the server to answer from its reply cache without a second
// session or a second expensive verification.
func TestDuplicateAccessRequestSuppressed(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	serverConn := mustListen(t)
	srv := NewServer(serverConn, ln.Routers[0], ServerConfig{})
	defer srv.Close()

	// Capture the client's M.2 on its way out.
	var captured []byte
	clientConn := newScriptedConn(mustListen(t), func(p []byte) bool {
		if k, _, err := DecodeFrame(p); err == nil && k == KindAccessRequest {
			captured = append([]byte(nil), p...)
		}
		return false
	})
	defer clientConn.Close()
	cl := NewClient(clientConn, srv.Addr(), ln.Users[0], testClientConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := cl.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("no M.2 captured")
	}
	verifications := ln.Routers[0].Stats().ExpensiveVerifications

	// Replay from a fresh socket (an on-path attacker, or the client's own
	// retransmission arriving late).
	attacker := mustListen(t)
	defer attacker.Close()
	if _, err := attacker.WriteTo(captured, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	// The cached confirm is replayed to the sender.
	_ = attacker.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 65536)
	n, _, err := attacker.ReadFrom(buf)
	if err != nil {
		t.Fatalf("expected replayed confirm: %v", err)
	}
	kind, _, err := DecodeFrame(buf[:n])
	if err != nil || kind != KindAccessConfirm {
		t.Fatalf("replay answered with %v, %v", kind, err)
	}

	if got := ln.Routers[0].Stats().ExpensiveVerifications; got != verifications {
		t.Fatalf("replay triggered %d extra verifications", got-verifications)
	}
	if got := ln.Routers[0].Stats().SessionsEstablished; got != 1 {
		t.Fatalf("replay minted a session: %d established", got)
	}
	if srv.Stats().Duplicates() == 0 {
		t.Fatal("duplicate counter not bumped")
	}
}

// TestRevokedUserRejectedOnWire revokes a user's credential and expects
// the on-wire handshake to fail with a revocation reject, not a timeout.
func TestRevokedUserRejectedOnWire(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := ln.NO.TokenOf("grp-0", ln.Users[0].Credentials()[0].Index)
	if err != nil {
		t.Fatal(err)
	}
	ln.NO.RevokeUserKey(tok)
	if err := ln.RefreshRevocations(); err != nil {
		t.Fatal(err)
	}

	serverConn := mustListen(t)
	srv := NewServer(serverConn, ln.Routers[0], ServerConfig{})
	defer srv.Close()

	clientConn := mustListen(t)
	defer clientConn.Close()
	cl := NewClient(clientConn, srv.Addr(), ln.Users[0], testClientConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err = cl.Attach(ctx)
	if !errors.Is(err, core.ErrRevokedUser) {
		t.Fatalf("want ErrRevokedUser, got %v", err)
	}

	// The unrevoked neighbor still attaches.
	conn2 := mustListen(t)
	defer conn2.Close()
	cl2 := NewClient(conn2, srv.Addr(), ln.Users[1], testClientConfig())
	if _, err := cl2.Attach(ctx); err != nil {
		t.Fatalf("unrevoked user: %v", err)
	}
}
