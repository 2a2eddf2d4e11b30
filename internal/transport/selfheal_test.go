package transport

import (
	"context"
	"crypto/rand"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// rebind listens on the exact address a just-closed server vacated.
func rebind(t *testing.T, addr net.Addr) net.PacketConn {
	t.Helper()
	var lastErr error
	for i := 0; i < 50; i++ {
		conn, err := net.ListenPacket("udp", addr.String())
		if err == nil {
			return conn
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("rebind %v: %v", addr, lastErr)
	return nil
}

// TestMaintainSurvivesServerRestart is the core self-healing scenario:
// a maintained client exchanges keepalives, the server process "restarts"
// (volatile session state lost, new boot epoch), and the client detects
// the restart through the authenticated boot-epoch change and re-attaches
// on its own.
func TestMaintainSurvivesServerRestart(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	serverConn := mustListen(t)
	srv := NewServer(serverConn, ln.Routers[0], ServerConfig{BootEpoch: 100})

	conn := mustListen(t)
	defer conn.Close()
	cfg := testClientConfig()
	cfg.Seed = 11
	cl := NewClient(conn, srv.Addr(), ln.Users[0], cfg)

	ctx, cancel := context.WithCancel(context.Background())
	maintainDone := make(chan error, 1)
	go func() {
		maintainDone <- cl.Maintain(ctx, MaintainConfig{
			KeepaliveInterval: 40 * time.Millisecond,
			PingTimeout:       120 * time.Millisecond,
			// High enough that the brief restart gap cannot trip the
			// dead-peer path: this test must exercise restart detection.
			MaxMissed:   1000,
			ReattachMin: 30 * time.Millisecond,
			ReattachMax: 200 * time.Millisecond,
		})
	}()

	waitFor(t, 10*time.Second, "initial attach", func() bool {
		return cl.Session() != nil && cl.BootEpoch() == 100
	})
	waitFor(t, 5*time.Second, "keepalives acked", func() bool {
		return cl.Stats().KeepalivesAcked() >= 2
	})

	// Restart: volatile state (sessions, outstanding beacons) is lost, the
	// listen address survives, and the new incarnation has a new epoch.
	addr := srv.Addr()
	srv.Close()
	ln.Routers[0].Reboot()
	srv2 := NewServer(rebind(t, addr), ln.Routers[0], ServerConfig{BootEpoch: 200})
	defer srv2.Close()

	waitFor(t, 15*time.Second, "re-attach to new incarnation", func() bool {
		return cl.Session() != nil && cl.BootEpoch() == 200
	})
	if got := cl.Stats().RestartsDetected(); got < 1 {
		t.Fatalf("restarts detected = %d, want >= 1", got)
	}
	if got := cl.Stats().Reattaches(); got < 1 {
		t.Fatalf("reattaches = %d, want >= 1", got)
	}
	if got := srv2.Stats().UnknownSessionRejects(); got < 1 {
		t.Fatalf("unknown-session rejects = %d, want >= 1", got)
	}

	// The healed session is fully functional end to end.
	sess := cl.Session()
	routerSess, ok := ln.Routers[0].SessionByID(sess.ID)
	if !ok {
		t.Fatalf("router has no session %s after re-attach", sess.ID)
	}
	frame, err := routerSess.SealData(rand.Reader, []byte("post-restart"))
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := sess.OpenData(frame); err != nil || string(pt) != "post-restart" {
		t.Fatalf("healed session broken: %q %v", pt, err)
	}

	cancel()
	if err := <-maintainDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Maintain returned %v, want context.Canceled", err)
	}
}

// TestMaintainDeadPeerDetection kills the server without a replacement:
// the client must declare the peer dead after MaxMissed silent rounds,
// then recover once a server comes back.
func TestMaintainDeadPeerDetection(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	serverConn := mustListen(t)
	srv := NewServer(serverConn, ln.Routers[0], ServerConfig{BootEpoch: 31})

	conn := mustListen(t)
	defer conn.Close()
	cfg := testClientConfig()
	cfg.Seed = 12
	cl := NewClient(conn, srv.Addr(), ln.Users[0], cfg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = cl.Maintain(ctx, MaintainConfig{
			KeepaliveInterval: 30 * time.Millisecond,
			PingTimeout:       80 * time.Millisecond,
			MaxMissed:         2,
			ReattachMin:       30 * time.Millisecond,
			ReattachMax:       200 * time.Millisecond,
			AttachTimeout:     2 * time.Second,
		})
	}()

	waitFor(t, 10*time.Second, "initial attach", func() bool {
		return cl.Session() != nil
	})

	addr := srv.Addr()
	srv.Close()
	waitFor(t, 10*time.Second, "dead-peer detection", func() bool {
		return cl.Stats().DeadPeerEvents() >= 1 && cl.Session() == nil
	})

	srv2 := NewServer(rebind(t, addr), ln.Routers[0], ServerConfig{BootEpoch: 32})
	defer srv2.Close()
	waitFor(t, 15*time.Second, "recovery after outage", func() bool {
		return cl.Session() != nil && cl.BootEpoch() == 32
	})
	if got := cl.Stats().Reattaches(); got < 1 {
		t.Fatalf("reattaches = %d, want >= 1", got)
	}
}

// TestDrainRefusesNewServesOld checks graceful drain: established
// sessions keep their keepalives answered while fresh attaches are
// refused with the transient draining code.
func TestDrainRefusesNewServesOld(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	serverConn := mustListen(t)
	srv := NewServer(serverConn, ln.Routers[0], ServerConfig{BootEpoch: 51})
	defer srv.Close()

	conn0 := mustListen(t)
	defer conn0.Close()
	cfg := testClientConfig()
	cfg.Seed = 31
	cl0 := NewClient(conn0, srv.Addr(), ln.Users[0], cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := cl0.Attach(ctx); err != nil {
		t.Fatal(err)
	}

	dctx, dcancel := context.WithTimeout(ctx, 5*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !srv.Draining() {
		t.Fatal("server does not report draining")
	}

	// Established session: keepalive still served.
	if err := pingRound(ctx, cl0, 500*time.Millisecond); err != nil {
		t.Fatalf("keepalive during drain: %v", err)
	}

	// New attach: refused with the transient code until the budget runs out.
	conn1 := mustListen(t)
	defer conn1.Close()
	cl1 := NewClient(conn1, srv.Addr(), ln.Users[1], ClientConfig{
		RetransmitTimeout: 30 * time.Millisecond,
		MaxTimeout:        60 * time.Millisecond,
		MaxRetries:        1,
		Seed:              32,
	})
	if _, err := cl1.Attach(ctx); !errors.Is(err, ErrHandshakeTimeout) {
		t.Fatalf("attach during drain = %v, want ErrHandshakeTimeout", err)
	}
	if got := srv.Stats().DrainRejects(); got < 1 {
		t.Fatalf("drain rejects = %d, want >= 1", got)
	}
}
