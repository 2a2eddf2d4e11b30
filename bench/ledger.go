package main

import (
	"crypto/rand"
	"fmt"
	"net"
	"runtime"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/sgs"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/transport"
)

// attachLedger prices one cold attach from outside. Until budget is spent
// it alternates a plain Client.Attach (the untraced reference) with an
// attach the benchmark drives step by step through the layers' public
// calls, recording a span per step. The server's part of the M.2→M.3 round
// trip is a black box on the wire; it is attributed by replaying the
// captured M.2 in process through the calls the server makes for it:
// decode, the router's batch entry point (on the served router, whose
// beacon the M.2 answers) with Verifier.Verify and SweepState.Check
// beneath it, the escrow's Marshal, Ticket.Seal, EncodeMessage. What the
// rows do not explain is transport.attach_residual_us: queueing, syscalls,
// scheduling.
func attachLedger(seed int64, budget time.Duration, tr *tracer, out metrics) (*ledger, error) {
	d, err := newDeployment(1, 2)
	if err != nil {
		return nil, err
	}
	srv, err := d.serve(0, transport.ServerConfig{BootEpoch: 1})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cl, clConn, err := d.client(0, srv, seed)
	if err != nil {
		return nil, err
	}
	defer clConn.Close()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	// The replay's own verifier, sweep state and STEK ring, warmed up so
	// their lazily built tables are not charged to the first operation.
	gpk := d.no.GroupPublicKey()
	verifier := sgs.NewVerifier(gpk)
	sweep := sgs.NewSweepState(gpk)
	sweep.Update(d.routers[0].RevocationEpoch(revocation.ListURL), d.revoked)
	ring, err := symcrypto.NewTicketKeyRing(rand.Reader)
	if err != nil {
		return nil, err
	}
	step := &stepper{d: d, srv: srv, conn: conn, user: d.users[1], verifier: verifier, sweep: sweep, ring: ring, tr: tr}
	if _, err := attach(cl); err != nil {
		return nil, fmt.Errorf("ledger warm-up: %w", err)
	}
	if err := step.attach(-1); err != nil {
		return nil, fmt.Errorf("ledger warm-up: %w", err)
	}
	tr.spans = tr.spans[:0]

	var untraced []float64
	for op, start := 0, time.Now(); op < minSamples || time.Since(start) < budget; op++ {
		start := time.Now()
		if _, err := attach(cl); err != nil {
			return nil, fmt.Errorf("ledger attach: %w", err)
		}
		untraced = append(untraced, float64(time.Since(start).Nanoseconds())/1e3)
		if err := step.attach(op); err != nil {
			return nil, fmt.Errorf("ledger stepwise attach: %w", err)
		}
	}

	self, total := tr.micros()
	traced := median(total["attach"])
	row := func(name string) ledgerRow { return ledgerRow{Name: name, Us: median(self[name])} }
	l := newLedger("attach_cold", traced, median(untraced), "transport.attach_residual", []ledgerRow{
		row("transport.m1_rtt"),
		row("core.user_handle_beacon"),
		row("transport.encode_m2"),
		row("transport.decode_m2"),
		row("sgs.verify"),
		row("sgs.sweep_check16"),
		{Name: "core.router_establish", Us: median(self["core.router_handle_m2"])},
		row("core.m2_marshal"),
		row("transport.ticket_seal"),
		row("transport.encode_m3"),
		row("transport.decode_m3"),
		row("core.user_handle_m3"),
	})

	n := len(total["attach"])
	out.set("transport.m1_rtt_us", median(total["transport.m1_rtt"]), "us", n)
	out.set("transport.m2_m3_rtt_us", median(total["transport.m2_m3_rtt"]), "us", n)
	out.set("transport.attach_residual_us", l.Residual.Us, "us", n)
	out.set("core.user_handle_beacon_us", median(total["core.user_handle_beacon"]), "us", n)
	out.set("core.router_handle_m2_us", median(total["core.router_handle_m2"]), "us", n)
	out.set("core.user_handle_m3_us", median(total["core.user_handle_m3"]), "us", n)
	out.set("sgs.verify_us", median(total["sgs.verify"]), "us", n)
	out.set("sgs.sweep_check16_us", median(total["sgs.sweep_check16"]), "us", n)
	out.set("transport.decode_m2_us", median(total["transport.decode_m2"]), "us", n)
	out.set("transport.ticket_seal_us", median(total["transport.ticket_seal"]), "us", n)
	out.set("transport.encode_m3_ns", median(total["transport.encode_m3"])*1e3, "ns", n)
	out.set("bench.trace_overhead_frac", traced/l.UntracedP50-1, "1", n)
	out.set("bench.attach_ledger_sum_frac", l.namedShare(), "1", n)
	return l, nil
}

// stepper drives one attach step by step.
type stepper struct {
	d        *deployment
	srv      *transport.Server
	conn     net.PacketConn
	user     *core.User
	verifier *sgs.Verifier
	sweep    *sgs.SweepState
	ring     *symcrypto.TicketKeyRing
	tr       *tracer
	buf      [65536]byte
}

// attach runs M.1–M.3 for the stepper's user as the spans
// attach → {m1_rtt, user_handle_beacon, encode_m2, m2_m3_rtt → replay
// rows, decode_m3, user_handle_m3}. Every M.3 must pass
// User.HandleAccessConfirm.
func (s *stepper) attach(op int) error {
	tr := s.tr
	root := tr.begin("attach", -1, op, false)

	var beacon *core.Beacon
	err := tr.in("transport.m1_rtt", root, op, false, func() (err error) {
		beacon, err = solicitBeacon(s.conn, s.srv.Addr())
		return err
	})
	if err != nil {
		return err
	}
	if gaps := s.user.RevocationGaps(beacon); len(gaps) != 0 {
		return fmt.Errorf("user is %d revocation lists behind the beacon", len(gaps))
	}
	var m2 *core.AccessRequest
	if err := tr.in("core.user_handle_beacon", root, op, false, func() (err error) {
		m2, err = s.user.HandleBeacon(beacon, benchGroup)
		return err
	}); err != nil {
		return err
	}
	var frame []byte
	if err := tr.in("transport.encode_m2", root, op, false, func() (err error) {
		frame, err = transport.EncodeMessage(m2)
		return err
	}); err != nil {
		return err
	}

	rtt := tr.begin("transport.m2_m3_rtt", root, op, false)
	n, err := s.exchange(frame)
	tr.end(rtt)
	if err != nil {
		return err
	}
	var m3 *core.AccessConfirm
	if err := tr.in("transport.decode_m3", root, op, false, func() error {
		kind, payload, err := transport.DecodeFrame(s.buf[:n])
		if err != nil {
			return err
		}
		if kind != transport.KindAccessConfirm {
			return fmt.Errorf("router answered M.2 with %v", kind)
		}
		m3, err = core.UnmarshalAccessConfirm(payload)
		return err
	}); err != nil {
		return err
	}
	if err := tr.in("core.user_handle_m3", root, op, false, func() error {
		_, err := s.user.HandleAccessConfirm(m3)
		return err
	}); err != nil {
		return err
	}
	tr.end(root)
	return s.replay(rtt, op, frame)
}

// exchange sends one frame and waits for the answer.
func (s *stepper) exchange(frame []byte) (int, error) {
	if _, err := s.conn.WriteTo(frame, s.srv.Addr()); err != nil {
		return 0, err
	}
	if err := s.conn.SetReadDeadline(time.Now().Add(opTimeout)); err != nil {
		return 0, err
	}
	n, _, err := s.conn.ReadFrom(s.buf[:])
	return n, err
}

// replay re-runs, as children of the black-box span, what the server did
// with the captured M.2.
func (s *stepper) replay(parent, op int, frame []byte) error {
	tr := s.tr
	var m2 *core.AccessRequest
	if err := tr.in("transport.decode_m2", parent, op, true, func() error {
		_, payload, err := transport.DecodeFrame(frame)
		if err != nil {
			return err
		}
		m2, err = core.UnmarshalAccessRequest(payload)
		return err
	}); err != nil {
		return err
	}

	// The router's batch entry point is what the ingest drainer calls, at
	// any fill; Verify and Check are replayed beneath it so that its self
	// time is the rest: precheck, DH, key derivation, M.3.
	handle := tr.begin("core.router_handle_m2", parent, op, true)
	res := s.d.routers[0].HandleAccessRequestBatch([]*core.AccessRequest{m2})[0]
	tr.end(handle)
	if res.Err != nil {
		return res.Err
	}
	transcript := m2.SignedTranscript()
	if err := tr.in("sgs.verify", handle, op, true, func() error {
		return s.verifier.Verify(transcript, m2.Sig)
	}); err != nil {
		return err
	}
	if err := tr.in("sgs.sweep_check16", handle, op, true, func() error {
		if revoked, _ := s.sweep.Check(transcript, m2.Sig); revoked {
			return fmt.Errorf("replayed M.2 sweeps as revoked")
		}
		return nil
	}); err != nil {
		return err
	}

	var escrow []byte
	if err := tr.in("core.m2_marshal", parent, op, true, func() error {
		escrow = m2.Marshal()
		return nil
	}); err != nil {
		return err
	}
	if err := tr.in("transport.ticket_seal", parent, op, true, func() error {
		t := &transport.Ticket{
			Prev:     res.Session.ID,
			Router:   s.d.routers[0].ID(),
			URLEpoch: s.d.routers[0].RevocationEpoch(revocation.ListURL),
			CRLEpoch: s.d.routers[0].RevocationEpoch(revocation.ListCRL),
			Expiry:   time.Now().Add(10 * time.Minute),
			Escrow:   escrow,
		}
		copy(t.Secret[:], res.Session.ResumptionSecret())
		blob, err := t.Seal(rand.Reader, s.ring)
		res.Confirm.Ticket = blob
		return err
	}); err != nil {
		return err
	}
	return tr.in("transport.encode_m3", parent, op, true, func() error {
		_, err := transport.EncodeMessage(res.Confirm)
		return err
	})
}

// roamLedger measures ticket resumes and handoffs of one client, alone in
// a two-router metro, through Client.Resume, and how long the ownership
// announcement of a handoff takes to reach the previous router
// (confirm received → Node.OwnerOf there). The resume's cost rows come
// from the layer timings already in layers; the rest is
// transport.resume_residual_us.
func roamLedger(seed int64, ops int, layers metrics) (*ledger, error) {
	env, err := newRoamEnv(seed)
	if err != nil {
		return nil, err
	}
	defer env.close()

	ro := env.roamers[0]
	var resumes, handoffs, propagation []float64
	for i := 0; i < ops; i++ {
		d, err := ro.resume(env, false)
		if err != nil {
			return nil, fmt.Errorf("ledger resume: %w", err)
		}
		resumes = append(resumes, float64(d.Nanoseconds())/1e3)
	}
	for i := 0; i < ops; i++ {
		prev := ro.at
		d, err := ro.resume(env, true)
		if err != nil {
			return nil, fmt.Errorf("ledger handoff: %w", err)
		}
		confirmed := time.Now()
		handoffs = append(handoffs, float64(d.Nanoseconds())/1e3)
		for {
			if owner, ok := env.m.nodes[prev].OwnerOf(ro.sess.ID); ok && owner == env.m.nodes[ro.at].ID() {
				break
			}
			if time.Since(confirmed) > opTimeout {
				return nil, fmt.Errorf("ownership of a handed-off session never reached %s", env.m.nodes[prev].ID())
			}
			runtime.Gosched()
		}
		propagation = append(propagation, float64(time.Since(confirmed).Nanoseconds())/1e3)
	}

	resumeP50, handoffP50 := median(resumes), median(handoffs)
	us := func(name string) float64 {
		m := layers[name]
		if m.Unit == "ns" {
			return m.Value / 1e3
		}
		return m.Value
	}
	l := newLedger("roam_resume", resumeP50, resumeP50, "transport.resume_residual", []ledgerRow{
		{Name: "transport.resume_req_decode", Us: us("transport.resume_req_decode_ns")},
		{Name: "transport.ticket_open", Us: us("transport.ticket_open_us")},
		{Name: "symcrypto.mac (request, sign + verify)", Us: 2 * us("symcrypto.mac_ns")},
		{Name: "core.unmarshal_access_request (escrow)", Us: us("transport.decode_m2_us")},
		{Name: "core.resume_session (both ends)", Us: 2 * us("core.resume_session_us")},
		{Name: "transport.ticket_seal", Us: us("transport.ticket_seal_us")},
	})
	layers.set("transport.resume_residual_us", l.Residual.Us, "us", len(resumes))
	layers.set("backbone.handoff_extra_us", handoffP50-resumeP50, "us", len(handoffs))
	layers.set("backbone.owner_ad_propagation_us", median(propagation), "us", len(propagation))
	layers.set("backbone.link_handshake_ms", float64(env.m.linkHandshake.Nanoseconds())/1e6, "ms", 1)
	return l, nil
}
