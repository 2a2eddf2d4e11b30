package transport

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
)

// routerAddr is where the stepped client believes its router is.
var routerAddr = &net.UDPAddr{IP: net.IPv4(203, 0, 113, 1), Port: 5000}

// clientRig steps one client's phases against the gate rig's server: a
// frame a step sends is dispatched as a datagram from srcA and the
// server's reply goes to recv; when nothing answers, the clock the user
// and the router share moves to the step's deadline and expire runs. No
// socket is read or written and nothing sleeps.
type clientRig struct {
	*gateRig
	clock *core.FixedClock
	cl    *Client
	// answer stands between the client and the router: it takes each
	// frame the client sends and returns what comes back, or nil. Rows
	// replace it to drop, reject or inspect; route is the plain trip.
	answer func(frame []byte) []byte
	sent   []time.Time // when each frame left
}

// maxRigSteps bounds one run: an exchange still going after this many
// steps never gives up.
const maxRigSteps = 1000

func newClientRig(t *testing.T) *clientRig {
	clock := &core.FixedClock{T: time.Unix(1_750_000_000, 0)}
	return &clientRig{gateRig: newGateRig(t, clock), clock: clock}
}

// reset gives the rig a fresh server and a fresh client with cfg, whose
// frames take the plain round trip.
func (r *clientRig) reset(t *testing.T, cfg ClientConfig) {
	r.t = t
	r.serve(ServerConfig{})
	r.cl = NewClient(nil, routerAddr, r.ln.Users[0], cfg)
	r.answer, r.sent = r.route, nil
}

func (r *clientRig) route(frame []byte) []byte { return r.step(srcA, frame) }

// run steps p until it ends, or until stop holds, and returns how it
// ended.
func (r *clientRig) run(p phase, stop func() bool) error {
	r.t.Helper()
	st := p.start(r.clock.Now())
	for n := 0; !st.done && (stop == nil || !stop()); n++ {
		if n == maxRigSteps {
			r.t.Fatalf("phase still running after %d steps", n)
		}
		if st.send != nil {
			r.sent = append(r.sent, r.clock.Now())
			if reply := r.answer(st.send); reply != nil {
				kind, payload, ok := r.cl.frameFrom(routerAddr, reply)
				if !ok {
					r.t.Fatal("the client refused the router's reply")
				}
				st = p.recv(r.clock.Now(), kind, payload)
				continue
			}
		}
		r.clock.T = st.deadline
		st = p.expire(r.clock.Now())
	}
	return st.err
}

// clientCounters reads every counter of a client's registry.
func clientCounters(cl *Client) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range cl.Stats().Snapshot() {
		if s.Kind == metrics.KindCounter {
			out[s.Name] = s.Int
		}
	}
	return out
}

// wantCounters fails t unless every named counter has its value.
func wantCounters(t *testing.T, cl *Client, want map[string]int64) {
	t.Helper()
	got := clientCounters(cl)
	for name, v := range want {
		if got[name] != v {
			t.Errorf("counter %s = %d, want %d", name, got[name], v)
		}
	}
}

// kinds returns the frames among sent whose kind is k.
func kinds(sent [][]byte, k Kind) [][]byte {
	var out [][]byte
	for _, f := range sent {
		if frameKind(f) == k {
			out = append(out, f)
		}
	}
	return out
}

// recording wraps the rig's answer so every frame the client sends is
// kept.
func (r *clientRig) recording() *[][]byte {
	var sent [][]byte
	next := r.answer
	r.answer = func(frame []byte) []byte {
		sent = append(sent, append([]byte(nil), frame...))
		return next(frame)
	}
	return &sent
}

// keeper builds Maintain's phase for the rig's client, holding sess as
// established with the given boot epoch (the rig's server runs epoch 9).
func (r *clientRig) keeper(sess *core.Session, epoch uint64) *keeper {
	r.cl.setSession(sess, epoch, "")
	return newKeeper(r.cl, MaintainConfig{KeepaliveInterval: time.Second, PingTimeout: 500 * time.Millisecond, MaxMissed: 3})
}

// foreignSession is a session the rig's router does not hold.
func foreignSession(t *testing.T, now time.Time) *core.Session {
	nonce := make([]byte, ResumeNonceSize)
	if _, err := rand.Read(nonce); err != nil {
		t.Fatal(err)
	}
	return core.ResumeSession(core.SessionID{1}, make([]byte, core.ResumeSecretSize), nonce, nonce, "router", now)
}

// TestClientStepMatrix characterizes the client's phases as steps, run
// against the router's dispatch on one clock: the retransmit schedule,
// the transient-reject budget, puzzle recovery on both handshakes, the
// frames an exchange refuses, and the keepalive's judgments of a round.
func TestClientStepMatrix(t *testing.T) {
	rig := newClientRig(t)
	defaults := ClientConfig{}.withDefaults()
	rows := []struct {
		name string
		cfg  ClientConfig
		run  func(t *testing.T, r *clientRig)
	}{
		{"silence", ClientConfig{}, func(t *testing.T, r *clientRig) {
			r.answer = func([]byte) []byte { return nil }
			if err := r.run(&attachRun{c: r.cl}, nil); !errors.Is(err, ErrHandshakeTimeout) {
				t.Fatalf("attach against silence = %v, want ErrHandshakeTimeout", err)
			}
			if len(r.sent) != 1+defaults.MaxRetries {
				t.Fatalf("%d sends, want %d", len(r.sent), 1+defaults.MaxRetries)
			}
			nominal := defaults.RetransmitTimeout
			for i := 1; i < len(r.sent); i++ {
				gap := r.sent[i].Sub(r.sent[i-1])
				lo, hi := time.Duration(float64(nominal)*(1-jitter)), time.Duration(float64(nominal)*(1+jitter))
				if gap < lo || gap > hi {
					t.Errorf("retransmit %d after %v, want within [%v, %v]", i, gap, lo, hi)
				}
				nominal = min(nominal*backoffFactor, defaults.MaxTimeout)
			}
			wantCounters(t, r.cl, map[string]int64{"retransmits": int64(defaults.MaxRetries), "timeouts": 1})
		}},
		{"transient-rejects-rearm-budget", ClientConfig{MaxRetries: 2}, func(t *testing.T, r *clientRig) {
			r.drain() // every M.2 draws RejectDraining; beacons still flow
			sent := r.recording()
			if err := r.run(&attachRun{c: r.cl}, nil); !errors.Is(err, ErrHandshakeTimeout) {
				t.Fatalf("attach while draining = %v, want ErrHandshakeTimeout", err)
			}
			budgets := int64(1 + queueFullResets)
			if n := int64(len(kinds(*sent, KindAccessRequest))); n != 3*budgets {
				t.Fatalf("%d M.2s sent, want %d: 3 per budget, re-armed %d times", n, 3*budgets, queueFullResets)
			}
			wantCounters(t, r.cl, map[string]int64{"rejects": 3 * budgets, "retransmits": 2 * budgets, "timeouts": 1})
		}},
		{"backpressure-outlasted", ClientConfig{MaxRetries: 2}, func(t *testing.T, r *clientRig) {
			// Six queue-full rejects are two budgets of three sends: only
			// re-arming lets the seventh M.2 through.
			rejected := 0
			r.answer = func(frame []byte) []byte {
				kind, payload, _ := DecodeFrame(frame)
				if kind != KindAccessRequest || rejected == 6 {
					return r.route(frame)
				}
				m2, err := core.UnmarshalAccessRequest(payload)
				if err != nil {
					t.Fatal(err)
				}
				rejected++
				return r.encode(&Reject{Session: core.NewSessionID(m2.GR, m2.GJ), Code: RejectQueueFull, Reason: "synthetic backpressure"})
			}
			sent := r.recording()
			if err := r.run(&attachRun{c: r.cl}, nil); err != nil {
				t.Fatalf("attach through backpressure: %v", err)
			}
			if n := len(kinds(*sent, KindAccessRequest)); n != 7 {
				t.Fatalf("%d M.2s sent, want 7", n)
			}
			wantCounters(t, r.cl, map[string]int64{"rejects": 6, "attach_successes": 1, "timeouts": 0})
		}},
		{"puzzle-on-access-request", ClientConfig{}, func(t *testing.T, r *clientRig) {
			// Defense engages between the beacon and the M.2.
			r.answer = func(frame []byte) []byte {
				if frameKind(frame) == KindAccessRequest {
					r.router().SetDoSDefense(true)
				}
				return r.route(frame)
			}
			sent := r.recording()
			if err := r.run(&attachRun{c: r.cl}, nil); err != nil {
				t.Fatalf("attach through a puzzle demand: %v", err)
			}
			m2s := kinds(*sent, KindAccessRequest)
			if len(m2s) != 2 {
				t.Fatalf("%d M.2s sent, want 2", len(m2s))
			}
			first, second := r.decode(m2s[0], KindAccessRequest).(*core.AccessRequest), r.decode(m2s[1], KindAccessRequest).(*core.AccessRequest)
			if first.HasSolution || !second.HasSolution {
				t.Fatalf("solutions: first %v, second %v; want only the second", first.HasSolution, second.HasSolution)
			}
			// Everything before the solution flag — shares, timestamp and
			// group signature — is the same bytes.
			_, refused, _ := DecodeFrame(m2s[0])
			_, solved, _ := DecodeFrame(m2s[1])
			if !bytes.HasPrefix(solved, refused[:len(refused)-1]) {
				t.Fatal("the solved M.2 is not the same signed request")
			}
			sid := core.NewSessionID(first.GR, first.GJ)
			if s := r.cl.Session(); s == nil || s.ID != sid {
				t.Fatal("the attach did not establish the requested session")
			}
			wantCounters(t, r.cl, map[string]int64{"rejects": 1, "retransmits": 0})
		}},
		{"puzzle-on-resume", ClientConfig{}, func(t *testing.T, r *clientRig) {
			r.cl.storeTicket(r.ticket, r.sess)
			r.router().SetDoSDefense(true)
			sent := r.recording()
			if err := r.run(&resumeRun{exchange: exchange{c: r.cl}, t: r.cl.heldTicket()}, nil); err != nil {
				t.Fatalf("resume through a puzzle demand: %v", err)
			}
			reqs := kinds(*sent, KindResumeRequest)
			if len(reqs) != 2 {
				t.Fatalf("%d resume requests sent, want 2", len(reqs))
			}
			first, second := r.decode(reqs[0], KindResumeRequest).(*ResumeRequest), r.decode(reqs[1], KindResumeRequest).(*ResumeRequest)
			if first.HasSolution || !second.HasSolution {
				t.Fatalf("solutions: first %v, second %v; want only the second", first.HasSolution, second.HasSolution)
			}
			if first.Nonce == second.Nonce {
				t.Fatal("the solved resume reused the refused request's nonce")
			}
			wantCounters(t, r.cl, map[string]int64{"rejects": 1, "resume_successes": 1})
		}},
		{"refused-frames-change-nothing", ClientConfig{}, func(t *testing.T, r *clientRig) {
			a := &attachRun{c: r.cl}
			checked := false
			r.answer = func(frame []byte) []byte {
				reply := r.route(frame)
				if checked || frameKind(frame) != KindAccessRequest {
					return reply
				}
				checked = true
				x := a.x.(*exchange)
				_, other, otherSid := r.accessRequest()
				otherM3 := r.route(other)
				corrupt, err := EncodeFrame(KindAccessConfirm, []byte{1, 2, 3})
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []struct {
					name     string
					from     net.Addr
					datagram []byte
					counter  string
					framed   bool // a well-formed frame from the router
				}{
					{"stray-source", srcB, reply, "unhandled", false},
					{"undecodable-frame", routerAddr, []byte{0xff, 0, 1}, "decode_errors", false},
					{"corrupt-M.3", routerAddr, corrupt, "decode_errors", true},
					{"another-session's-M.3", routerAddr, otherM3, "unhandled", true},
					{"another-session's-reject", routerAddr, r.encode(&Reject{Session: otherSid, Code: RejectAuth}), "unhandled", true},
				} {
					before, deadline := clientCounters(r.cl), x.deadline
					if kind, payload, ok := r.cl.frameFrom(s.from, s.datagram); ok {
						if st := a.recv(r.clock.Now(), kind, payload); st.done || st.send != nil || !st.deadline.Equal(deadline) {
							t.Errorf("%s: step %+v, want the same wait", s.name, st)
						}
					}
					want := map[string]int64{"bytes_in": int64(len(s.datagram)), s.counter: 1}
					if s.framed {
						want["frames_in"] = 1
					}
					for name, v := range clientCounters(r.cl) {
						if d := v - before[name]; d != want[name] {
							t.Errorf("%s: counter %s moved by %d, want %d", s.name, name, d, want[name])
						}
					}
				}
				return reply
			}
			if err := r.run(a, nil); err != nil {
				t.Fatalf("attach after the refused frames: %v", err)
			}
		}},
		{"resume-refuses-another-exchange", ClientConfig{}, func(t *testing.T, r *clientRig) {
			r.cl.storeTicket(r.ticket, r.sess)
			p := &resumeRun{exchange: exchange{c: r.cl}, t: r.cl.heldTicket()}
			_, other, _ := r.resumeRequest(false)
			otherConfirm := r.route(other)
			first := true
			r.answer = func(frame []byte) []byte {
				if first {
					first = false
					before := clientCounters(r.cl)
					kind, payload, _ := r.cl.frameFrom(routerAddr, otherConfirm)
					if st := p.recv(r.clock.Now(), kind, payload); st.done {
						t.Fatal("a confirm for another exchange completed the resume")
					}
					if d := clientCounters(r.cl)["unhandled"] - before["unhandled"]; d != 1 {
						t.Errorf("unhandled moved by %d, want 1", d)
					}
				}
				return r.route(frame)
			}
			if err := r.run(p, nil); err != nil {
				t.Fatalf("resume: %v", err)
			}
		}},
		{"pong-with-new-boot-epoch", ClientConfig{}, func(t *testing.T, r *clientRig) {
			start := r.clock.Now()
			k := r.keeper(r.sess, 8)
			r.run(k, func() bool { return r.cl.Stats().Reattaches() == 1 })
			if len(r.sent) != 1 || r.sent[0].Sub(start) != k.cfg.KeepaliveInterval {
				t.Fatalf("pings at %v, want one a keepalive interval in", r.sent)
			}
			if r.cl.Session() != nil {
				t.Fatal("the session outlived the restart")
			}
			wantCounters(t, r.cl, map[string]int64{"keepalives_sent": 1, "keepalives_acked": 1, "restarts_detected": 1, "reattaches": 1, "keepalives_missed": 0})
		}},
		{"unknown-session-confirmed-by-beacon", ClientConfig{}, func(t *testing.T, r *clientRig) {
			r.run(r.keeper(foreignSession(t, r.clock.Now()), 8), func() bool { return r.cl.Stats().Reattaches() == 1 })
			if r.cl.Session() != nil {
				t.Fatal("the session outlived the confirmed restart")
			}
			wantCounters(t, r.cl, map[string]int64{"rejects": 1, "restarts_detected": 1, "reattaches": 1, "keepalives_missed": 0})
		}},
		{"unknown-session-with-unchanged-epoch", ClientConfig{}, func(t *testing.T, r *clientRig) {
			sess := foreignSession(t, r.clock.Now())
			r.run(r.keeper(sess, 9), func() bool { return r.cl.stats.keepalivesMissed.Load() == 1 })
			if r.cl.Session() != sess {
				t.Fatal("an unconfirmed hint tore the session down")
			}
			wantCounters(t, r.cl, map[string]int64{"rejects": 1, "restarts_detected": 0, "reattaches": 0, "keepalives_missed": 1})
		}},
		{"silent-rounds-declare-peer-dead", ClientConfig{}, func(t *testing.T, r *clientRig) {
			r.answer = func([]byte) []byte { return nil }
			start := r.clock.Now()
			k := r.keeper(r.sess, 9)
			r.run(k, func() bool { return r.cl.Stats().DeadPeerEvents() == 1 })
			round := k.cfg.KeepaliveInterval + k.cfg.PingTimeout
			for i, at := range r.sent {
				if want := start.Add(k.cfg.KeepaliveInterval + time.Duration(i)*round); !at.Equal(want) {
					t.Errorf("ping %d at %v, want %v", i, at.Sub(start), want.Sub(start))
				}
			}
			if len(r.sent) != k.cfg.MaxMissed || r.cl.Session() != nil {
				t.Fatalf("%d pings, session %v; want %d and none", len(r.sent), r.cl.Session(), k.cfg.MaxMissed)
			}
			wantCounters(t, r.cl, map[string]int64{"keepalives_missed": int64(k.cfg.MaxMissed), "dead_peer_events": 1, "reattaches": 1})
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rig.reset(t, row.cfg)
			row.run(t, rig)
		})
	}
}

// pingRound runs one keepalive round of c over its socket and reports
// how it ended: nil when a valid pong came back.
func pingRound(ctx context.Context, c *Client, timeout time.Duration) error {
	k := newKeeper(c, MaintainConfig{PingTimeout: timeout})
	x, err := k.ping(c.user.Now(), c.Session())
	if err != nil {
		return err
	}
	return c.drive(ctx, x)
}

// TestRetargetWhileMaintain repoints a maintained client over and over
// while its keepalives run. Run under -race: the driver reads the router
// address under the client's lock, so Retarget is safe at any moment.
func TestRetargetWhileMaintain(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mustListen(t), ln.Routers[0], ServerConfig{BootEpoch: 61})
	defer srv.Close()
	conn := mustListen(t)
	defer conn.Close()
	cl := NewClient(conn, srv.Addr(), ln.Users[0], testClientConfig())

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- cl.Maintain(ctx, MaintainConfig{KeepaliveInterval: 5 * time.Millisecond, PingTimeout: 200 * time.Millisecond})
	}()
	waitFor(t, 10*time.Second, "initial attach", func() bool { return cl.Session() != nil })

	// The same router under two address values: every Retarget is a
	// write the driver must not race with.
	a := srv.Addr().(*net.UDPAddr)
	b := &net.UDPAddr{IP: a.IP, Port: a.Port}
	acked := cl.Stats().KeepalivesAcked()
	for i, deadline := 0, time.Now().Add(10*time.Second); cl.Stats().KeepalivesAcked() < acked+5; i++ {
		if time.Now().After(deadline) {
			t.Fatal("keepalives stopped while the client was retargeted")
		}
		cl.Retarget([]net.Addr{a, b}[i%2])
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Maintain returned %v, want context.Canceled", err)
	}
}
