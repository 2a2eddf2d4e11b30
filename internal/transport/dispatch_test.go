package transport

import (
	"context"
	"crypto/rand"
	"errors"
	"math/big"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/sgs"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/transport/batchio"
	"github.com/peace-mesh/peace/internal/wire"
)

// recordingConn is the write side of a step driver: every datagram an
// egress flush writes is copied into out, where the test reads it back.
// onWrite, when set, runs at the start of every flush.
type recordingConn struct {
	nullBatchConn
	out     chan []byte
	onWrite func()
}

func (c *recordingConn) WriteBatch(ms []batchio.Message) (int, error) {
	if c.onWrite != nil {
		c.onWrite()
	}
	for i := range ms {
		c.out <- append([]byte(nil), ms[i].Payload()...)
	}
	return len(ms), nil
}

// gateRig drives a router server one datagram at a time through
// dispatch, endBatch and its ingest queue's Step, with replies captured
// by a recording egress: no socket is written and nothing sleeps. Each
// matrix row gets a fresh server on the same router, so gate state
// (limiter buckets, drain, reply cache) starts clean while the attached
// session and its ticket carry over.
type gateRig struct {
	t    *testing.T
	ln   *LocalNetwork
	ring *symcrypto.TicketKeyRing
	srv  *Server
	rec  *recordingConn
	l    *shardLoop

	sess   *core.Session // the user's half of the rig's attached session
	ticket []byte
}

// stepClock is a core.Clock a test moves by hand. The router's
// goroutines (verifiers, the DoS sampler) read it while the test moves
// it, so it is atomic.
type stepClock struct{ ns atomic.Int64 }

func newStepClock(t time.Time) *stepClock {
	c := &stepClock{}
	c.Set(t)
	return c
}

func (c *stepClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *stepClock) Set(t time.Time)         { c.ns.Store(t.UnixNano()) }
func (c *stepClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

var (
	srcA = &net.UDPAddr{IP: net.IPv4(198, 51, 100, 1), Port: 4000}
	srcB = &net.UDPAddr{IP: net.IPv4(198, 51, 100, 2), Port: 4000}
)

// newGateRig provisions the rig's router, on clock (nil: the system
// clock), and attaches its user.
func newGateRig(t *testing.T, clock core.Clock) *gateRig {
	t.Helper()
	ln, err := NewLocalNetwork(core.Config{Clock: clock, PuzzleDifficulty: 4}, "grp-gate", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.SeedUserRevocations(); err != nil {
		t.Fatal(err)
	}
	ring, err := symcrypto.NewTicketKeyRing(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	r := &gateRig{t: t, ln: ln, ring: ring}
	t.Cleanup(r.close)

	// One attach through dispatch gives the rig a session for the ping and
	// data rows and a ticket for the resume rows.
	r.serve(ServerConfig{})
	m2, frame, _ := r.accessRequest()
	confirm := r.decode(r.step(srcA, frame), KindAccessConfirm).(*core.AccessConfirm)
	if r.sess, err = ln.Users[0].HandleAccessConfirm(confirm); err != nil {
		t.Fatal(err)
	}
	if r.ticket = openFirstTicket(confirm.Ticket, r.sess); r.ticket == nil || core.NewSessionID(m2.GR, m2.GJ) != r.sess.ID {
		t.Fatal("setup attach issued no ticket")
	}
	return r
}

func (r *gateRig) router() *core.MeshRouter { return r.ln.Routers[0] }

// serve replaces the rig's server with a fresh one and turns puzzle
// defense off. The server is never started: no read loop, drainer or
// load sampler runs, and the rig feeds it through dispatch instead.
func (r *gateRig) serve(cfg ServerConfig) {
	r.close()
	cfg.TicketKeys = r.ring
	cfg.BootEpoch = 9
	r.router().SetDoSDefense(false)
	r.srv = newServer([]net.PacketConn{mustListen(r.t)}, r.router(), cfg)
	// Every step drains out, and no one step queues more than a handful
	// of replies, so a flush never blocks on a full buffer.
	r.rec = &recordingConn{out: make(chan []byte, 64)}
	eg := batchio.NewEgress(r.rec, 32, 0, batchio.NewPool(egressFrameSize), r.srv.noteFlush)
	r.l = &shardLoop{eg: eg, pt: make([]byte, 0, 65536)}
}

func (r *gateRig) close() {
	if r.srv != nil {
		// A test that failed mid-batch still holds its resumes' admissions;
		// Close answers the access requests still queued, on this goroutine.
		r.srv.endBatch(r.l)
		r.srv.Close()
		r.l.eg.Close()
		r.srv = nil
	}
}

// step delivers one datagram as an ingest batch of its own, ends the
// batch the way the read loop does and steps the ingest queue empty. It
// returns the reply the step queued, or nil.
func (r *gateRig) step(from net.Addr, datagram []byte) []byte {
	r.srv.dispatch(r.l, r.router().Now(), from, datagram)
	r.srv.endBatch(r.l)
	r.stepQueue()
	select {
	case reply := <-r.rec.out:
		if len(r.rec.out) != 0 {
			r.t.Fatalf("one datagram drew %d replies", 1+len(r.rec.out))
		}
		return reply
	default:
		return nil
	}
}

// stepQueue serves the ingest queue's groups on the test's goroutine
// until none is waiting, and returns how many it served.
func (r *gateRig) stepQueue() (groups int) {
	for r.srv.queue.Step() {
		groups++
	}
	return groups
}

// drain puts the server into graceful shutdown.
func (r *gateRig) drain() {
	if err := r.srv.Drain(context.Background()); err != nil {
		r.t.Fatal(err)
	}
}

func (r *gateRig) decode(frame []byte, want Kind) any {
	r.t.Helper()
	kind, payload, err := DecodeFrame(frame)
	if err != nil || kind != want {
		r.t.Fatalf("reply %v (%v), want %v", kind, err, want)
	}
	msg, err := DecodeMessage(kind, payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return msg
}

// accessRequest signs a fresh M.2 against a fresh beacon. While puzzle
// defense is on, the beacon carries the challenge and the M.2 its
// solution.
func (r *gateRig) accessRequest() (*core.AccessRequest, []byte, core.SessionID) {
	b, err := r.router().Beacon()
	if err != nil {
		r.t.Fatal(err)
	}
	m2, err := r.ln.Users[0].HandleBeacon(b, "grp-gate")
	if err != nil {
		r.t.Fatal(err)
	}
	return m2, r.encode(m2), core.NewSessionID(m2.GR, m2.GJ)
}

func (r *gateRig) encode(msg any) []byte {
	frame, err := EncodeMessage(msg)
	if err != nil {
		r.t.Fatal(err)
	}
	return frame
}

// resumeRequest builds a resume of the rig's ticket with a fresh nonce;
// solve attaches an answer to the router's current puzzle.
func (r *gateRig) resumeRequest(solve bool) (*ResumeRequest, []byte, core.SessionID) {
	return r.resumeRequestFor(r.ticket, solve)
}

// resumeRequestFor is resumeRequest for another ticket carrying the rig
// session's resumption secret.
func (r *gateRig) resumeRequestFor(ticket []byte, solve bool) (*ResumeRequest, []byte, core.SessionID) {
	req := &ResumeRequest{Ticket: ticket, Timestamp: r.router().Now()}
	if _, err := rand.Read(req.Nonce[:]); err != nil {
		r.t.Fatal(err)
	}
	if solve {
		p := r.router().CurrentPuzzle()
		req.HasSolution, req.Solution = true, p.Solve()
		req.PuzzleIssuedAt, req.PuzzleDifficulty = p.IssuedAt, p.Difficulty
	}
	req.sign(r.sess.ResumptionSecret())
	frame, err := EncodeFrame(KindResumeRequest, req.Marshal())
	if err != nil {
		r.t.Fatal(err)
	}
	return req, frame, resumeDedupID(req.Ticket, req.Nonce[:])
}

// wrongSolution returns a solution the router's puzzle check refuses.
func (r *gateRig) wrongSolution(issuedAt time.Time, difficulty uint8) uint64 {
	for sol := uint64(0); ; sol++ {
		if r.router().VerifyPuzzleSolution(issuedAt, difficulty, sol) != nil {
			return sol
		}
	}
}

// exhaust spends srcA's one-token bucket on a garbage handshake.
func (r *gateRig) exhaust() {
	frame, err := EncodeFrame(KindResumeRequest, []byte{1})
	if err != nil {
		r.t.Fatal(err)
	}
	r.step(srcA, frame)
}

// counters reads every counter of the server's registry.
func (r *gateRig) counters() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range r.srv.Stats().Snapshot() {
		if s.Kind == metrics.KindCounter {
			out[s.Name] = s.Int
		}
	}
	return out
}

func (r *gateRig) dosFailures() int64 {
	return r.router().Metrics().Snapshot().Value("router_dos_failures")
}

func frameKind(frame []byte) Kind {
	kind, _, _ := DecodeFrame(frame)
	return kind
}

// retransmit is what the same datagram draws a second time.
type retransmit int

const (
	silent   retransmit = iota // no reply
	replayed                   // the first reply's exact bytes
	rebuilt                    // a reply with different bytes
)

// gateRow is one row of the dispatch matrix: a server config, a setup
// that brings the rig to the row's state and returns the datagram under
// test, and what its first delivery must produce.
type gateRow struct {
	name  string
	cfg   ServerConfig
	setup func(r *gateRig) (from net.Addr, datagram []byte)

	reply Kind       // 0: no reply
	code  RejectCode // for KindReject replies
	again retransmit
	// counters are the row's counter deltas beyond the I/O ones (frames
	// and bytes in, and frames, bytes and batches out when it replies);
	// every other counter must stay put.
	counters    map[string]int64
	dosFailures int64
}

var limited = ServerConfig{RateLimitPerSec: 1e-6, RateLimitBurst: 1}

// handshakeRows builds the gate rows of one handshake kind. build makes
// a fresh request of that kind (solved when solve is set) and returns its
// datagram and dedup id; wrong makes one carrying a wrong solution;
// answer completes an exchange and returns the datagram it answered.
func handshakeRows(kind string, answered Kind,
	build func(r *gateRig, solve bool) ([]byte, core.SessionID),
	wrong func(r *gateRig) []byte,
	answer func(r *gateRig) []byte) []gateRow {
	puzzle := map[string]int64{"dos_puzzles_rejected": 1, "dos_puzzles_issued": 1, "rejects": 1}
	replay := map[string]int64{"dos_puzzles_rejected": 1, "dos_puzzles_issued": 1, "rejects": 1, "dos_solution_replays": 1}
	return []gateRow{
		{
			name: kind + "/rate-limited", cfg: limited,
			setup: func(r *gateRig) (net.Addr, []byte) {
				frame, _ := build(r, false)
				r.exhaust()
				return srcA, frame
			},
			again:    silent,
			counters: map[string]int64{"ratelimit_dropped": 1},
		},
		{
			name: kind + "/no-solution",
			setup: func(r *gateRig) (net.Addr, []byte) {
				frame, _ := build(r, false)
				r.router().SetDoSDefense(true)
				return srcA, frame
			},
			reply: KindReject, code: RejectPuzzle, again: rebuilt,
			counters: puzzle, dosFailures: 1,
		},
		{
			name: kind + "/wrong-solution",
			setup: func(r *gateRig) (net.Addr, []byte) {
				r.router().SetDoSDefense(true)
				return srcA, wrong(r)
			},
			reply: KindReject, code: RejectPuzzle, again: rebuilt,
			counters: puzzle, dosFailures: 1,
		},
		{
			name: kind + "/solution-replayed-from-second-source",
			setup: func(r *gateRig) (net.Addr, []byte) {
				r.router().SetDoSDefense(true)
				return srcB, answer(r)
			},
			reply: KindReject, code: RejectPuzzle, again: rebuilt,
			counters: replay, dosFailures: 1,
		},
		{
			name: kind + "/draining",
			setup: func(r *gateRig) (net.Addr, []byte) {
				frame, _ := build(r, false)
				r.drain()
				return srcA, frame
			},
			reply: KindReject, code: RejectDraining, again: replayed,
			counters: map[string]int64{"drain_rejects": 1, "rejects": 1},
		},
		{
			name: kind + "/draining-answered",
			setup: func(r *gateRig) (net.Addr, []byte) {
				frame := answer(r)
				r.drain()
				return srcA, frame
			},
			reply: answered, again: replayed,
			counters: map[string]int64{"duplicates": 1},
		},
		{
			name: kind + "/duplicate-in-flight",
			setup: func(r *gateRig) (net.Addr, []byte) {
				frame, sid := build(r, false)
				r.srv.replies.begin(sid) // another loop is serving it
				return srcA, frame
			},
			again:    silent,
			counters: map[string]int64{"duplicates": 1},
		},
		{
			name: kind + "/duplicate-answered",
			setup: func(r *gateRig) (net.Addr, []byte) {
				return srcA, answer(r)
			},
			reply: answered, again: replayed,
			counters: map[string]int64{"duplicates": 1},
		},
	}
}

// TestDispatchGateMatrix characterizes the router's handshake gates —
// rate limit, puzzle check, solution replay, drain, reply-cache dedup —
// on both handshake kinds, and shows that beacon, ping, data and
// unserved kinds bypass them: each row pins the reply, the reject code,
// what a retransmit draws, the delta of every server counter and the
// DoS evidence the router recorded.
func TestDispatchGateMatrix(t *testing.T) {
	rig := newGateRig(t, nil)

	// An answered access request: sent from srcA (solved, while defense
	// is on) and verified.
	accessAnswered := func(r *gateRig) []byte {
		_, frame, _ := r.accessRequest()
		if kind := frameKind(r.step(srcA, frame)); kind != KindAccessConfirm {
			r.t.Fatalf("setup exchange answered %v", kind)
		}
		return frame
	}
	resumeAnswered := func(r *gateRig) []byte {
		_, frame, _ := r.resumeRequest(r.router().RequiredDifficulty() > 0)
		if kind := frameKind(r.step(srcA, frame)); kind != KindResumeConfirm {
			r.t.Fatalf("setup exchange answered %v", kind)
		}
		return frame
	}
	rows := handshakeRows("access", KindAccessConfirm,
		func(r *gateRig, solve bool) ([]byte, core.SessionID) {
			_, frame, sid := r.accessRequest()
			return frame, sid
		},
		func(r *gateRig) []byte {
			m2, _, _ := r.accessRequest()
			m2.Solution = r.wrongSolution(m2.PuzzleIssuedAt, m2.PuzzleDifficulty)
			return r.encode(m2)
		},
		accessAnswered)
	rows = append(rows, handshakeRows("resume", KindResumeConfirm,
		func(r *gateRig, solve bool) ([]byte, core.SessionID) {
			_, frame, sid := r.resumeRequest(solve)
			return frame, sid
		},
		func(r *gateRig) []byte {
			req, _, _ := r.resumeRequest(true)
			req.Solution = r.wrongSolution(req.PuzzleIssuedAt, req.PuzzleDifficulty)
			req.sign(r.sess.ResumptionSecret())
			frame, err := EncodeFrame(KindResumeRequest, req.Marshal())
			if err != nil {
				r.t.Fatal(err)
			}
			return frame
		},
		resumeAnswered)...)

	// The other kinds, with every handshake gate closed on their source:
	// its bucket spent, drain begun, and (but for the beacon, whose cached
	// frame the sampler drops when the difficulty moves) puzzles demanded.
	bypass := ServerConfig{RateLimitPerSec: 1e-6, RateLimitBurst: 1, EchoData: true}
	closed := func(puzzles bool) func(r *gateRig) {
		return func(r *gateRig) {
			r.exhaust()
			r.drain()
			r.router().SetDoSDefense(puzzles)
		}
	}
	sealed := func(r *gateRig, kind Kind, body []byte) []byte {
		df, err := r.sess.SealData(rand.Reader, body)
		if err != nil {
			r.t.Fatal(err)
		}
		frame, err := EncodeFrame(kind, df.Marshal())
		if err != nil {
			r.t.Fatal(err)
		}
		return frame
	}
	payload := []byte("gate matrix payload")
	rows = append(rows,
		gateRow{
			name: "beacon", cfg: bypass,
			setup: func(r *gateRig) (net.Addr, []byte) {
				closed(false)(r)
				return srcA, r.encode(&BeaconRequest{})
			},
			reply: KindBeacon, again: replayed,
		},
		gateRow{
			name: "ping", cfg: bypass,
			setup: func(r *gateRig) (net.Addr, []byte) {
				closed(true)(r)
				return srcA, sealed(r, KindSessionPing, (&PingBody{Nonce: 7}).appendTo(nil))
			},
			reply: KindSessionPong, again: silent,
			counters: map[string]int64{"keepalives_served": 1},
		},
		gateRow{
			name: "data", cfg: bypass,
			setup: func(r *gateRig) (net.Addr, []byte) {
				closed(true)(r)
				return srcA, sealed(r, KindSessionData, payload)
			},
			reply: KindSessionData, again: silent,
			counters: map[string]int64{"data_delivered": 1, "data_bytes": int64(len(payload))},
		},
	)

	// Every kind with no routes row — the reserved M̃ kinds, the
	// backbone's, revocation pushes and the router's own replies — lands
	// in unhandled once, unanswered, and moves nothing else.
	unserved := func(kind Kind) gateRow {
		return gateRow{
			cfg: bypass,
			setup: func(r *gateRig) (net.Addr, []byte) {
				closed(true)(r)
				frame, err := EncodeFrame(kind, []byte("not for a router socket"))
				if err != nil {
					r.t.Fatal(err)
				}
				return srcA, frame
			},
			again:    silent,
			counters: map[string]int64{"unhandled": 1},
		}
	}

	check := func(t *testing.T, row gateRow) {
		rig.t = t
		rig.serve(row.cfg)
		from, datagram := row.setup(rig)

		before, dosBefore := rig.counters(), rig.dosFailures()
		reply := rig.step(from, datagram)
		after, dosAfter := rig.counters(), rig.dosFailures()

		switch {
		case row.reply == 0 && reply != nil:
			t.Fatalf("answered %v, want no reply", frameKind(reply))
		case row.reply != 0 && reply == nil:
			t.Fatalf("no reply, want %v", row.reply)
		case row.reply != 0:
			msg := rig.decode(reply, row.reply)
			if rej, ok := msg.(*Reject); ok && rej.Code != row.code {
				t.Fatalf("reject code %v, want %v", rej.Code, row.code)
			}
		}

		want := map[string]int64{"frames_in": 1, "bytes_in": int64(len(datagram))}
		if reply != nil {
			want["frames_out"], want["write_datagrams"], want["write_batches"] = 1, 1, 1
			want["bytes_out"] = int64(len(reply))
		}
		for name, d := range row.counters {
			want[name] += d
		}
		for name, v := range after {
			if d := v - before[name]; d != want[name] {
				t.Errorf("counter %s moved by %d, want %d", name, d, want[name])
			}
		}
		if d := dosAfter - dosBefore; d != row.dosFailures {
			t.Errorf("router recorded %d DoS failures, want %d", d, row.dosFailures)
		}

		again := rig.step(from, datagram)
		var got retransmit
		switch {
		case again == nil:
			got = silent
		case string(again) == string(reply):
			got = replayed
		default:
			got = rebuilt
		}
		if got != row.again {
			t.Errorf("retransmit drew %v, want %v", got, row.again)
		}
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { check(t, row) })
	}
	t.Run("unserved-kind", func(t *testing.T) {
		for kind := KindBeaconRequest; kind < kindEnd; kind++ {
			if routes[kind] == nil {
				t.Run(kind.String(), func(t *testing.T) { check(t, unserved(kind)) })
			}
		}
	})
}

// m2SigAt is where the signature starts in an M.2 encoding: after the
// two length-prefixed DH shares, ts_2 and the signature's length prefix.
const m2SigAt = 2*(4+bn256.G1Size) + 8 + 4

// Offsets of the signature's fields in an M.2 encoding (sgs's layout:
// the leading byte, R, T1, T2, then C, SAlpha, SX, SDelta).
const (
	m2T1At = m2SigAt + 1 + 32
	m2T2At = m2T1At + bn256.G1Size
	m2CAt  = m2T2At + bn256.G1Size
)

// TestDispatchCorruptEscrow pins the check a resume runs on the M.2 its
// ticket escrows. Each row seals, under the server's own ring and with
// the rig session's secret, a ticket whose escrow the M.2 decoder
// refuses; the resume must be refused with RejectTicket "ticket escrow
// corrupt", cached, counted as DoS evidence, and must adopt and log
// nothing.
func TestDispatchCorruptEscrow(t *testing.T) {
	rig := newGateRig(t, nil)
	tk, err := OpenTicket(rig.ticket, rig.ring)
	if err != nil {
		t.Fatal(err)
	}
	good := tk.Escrow
	if _, err := core.UnmarshalAccessRequest(good); err != nil || len(good) != m2SigAt+sgs.SignatureSize+1 {
		t.Fatalf("rig escrow: %v (%d bytes)", err, len(good))
	}
	// p and Order themselves: the smallest values the ranges exclude.
	p, order := bn256.P.FillBytes(make([]byte, 32)), bn256.Order.FillBytes(make([]byte, 32))
	rows := []struct {
		name   string
		mutate func(m []byte) []byte
		want   error // the decoder's refusal
		t1     error // for the T1 rows, bn256's verdict on the point
	}{
		{"truncated", func(m []byte) []byte { return m[:len(m)-1] }, wire.ErrTruncated, nil},
		{"trailing-byte", func(m []byte) []byte { return append(m, 0) }, wire.ErrTrailing, nil},
		{"T1-off-curve", func(m []byte) []byte { m[m2T2At-1] ^= 1; return m }, sgs.ErrInvalidSignature, bn256.ErrNotOnCurve},
		{"coordinate-at-least-p", func(m []byte) []byte { copy(m[m2T1At:], p); return m }, sgs.ErrInvalidSignature, bn256.ErrMalformedPoint},
		{"scalar-at-least-order", func(m []byte) []byte { copy(m[m2CAt:], order); return m }, sgs.ErrInvalidSignature, nil},
		{"T2-at-infinity", func(m []byte) []byte { clear(m[m2T2At:m2CAt]); return m }, sgs.ErrInvalidSignature, nil},
		{"unknown-mode", func(m []byte) []byte { m[m2SigAt] = 3; return m }, sgs.ErrInvalidSignature, nil},
		// 2 was the fixed-generator mode, which the router no longer accepts.
		{"fixed-mode", func(m []byte) []byte { m[m2SigAt] = 2; return m }, sgs.ErrInvalidSignature, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rig.t = t
			rig.serve(ServerConfig{})
			bad := *tk
			bad.Escrow = row.mutate(append([]byte(nil), good...))
			if _, err := core.UnmarshalAccessRequest(bad.Escrow); !errors.Is(err, row.want) {
				t.Fatalf("decoder verdict %v, want %v", err, row.want)
			}
			if row.t1 != nil {
				if _, err := bn256.CheckG1(bad.Escrow[m2T1At:m2T2At]); !errors.Is(err, row.t1) {
					t.Fatalf("T1 verdict %v, want %v", err, row.t1)
				}
			}
			blob, err := bad.Seal(rand.Reader, rig.ring)
			if err != nil {
				t.Fatal(err)
			}
			_, frame, sid := rig.resumeRequestFor(blob, false)

			held := rig.router().Metrics().Snapshot()
			before, dosBefore := rig.counters(), rig.dosFailures()
			reply := rig.step(srcA, frame)
			after, dosAfter := rig.counters(), rig.dosFailures()

			rej := rig.decode(reply, KindReject).(*Reject)
			if rej.Code != RejectTicket || rej.Reason != "ticket escrow corrupt" || rej.Session != sid {
				t.Fatalf("refused with %v %q, want RejectTicket \"ticket escrow corrupt\"", rej.Code, rej.Reason)
			}
			want := map[string]int64{"frames_in": 1, "bytes_in": int64(len(frame)),
				"frames_out": 1, "write_datagrams": 1, "write_batches": 1, "bytes_out": int64(len(reply)),
				"rejects": 1, "resume_rejects": 1}
			for name, v := range after {
				if d := v - before[name]; d != want[name] {
					t.Errorf("counter %s moved by %d, want %d", name, d, want[name])
				}
			}
			if d := dosAfter - dosBefore; d != 1 {
				t.Errorf("router recorded %d DoS failures, want 1", d)
			}
			heldAfter := rig.router().Metrics().Snapshot()
			for _, name := range []string{"router_sessions", "router_session_log", "router_sessions_resumed"} {
				if b, a := held.Value(name), heldAfter.Value(name); a != b {
					t.Errorf("%s moved %d → %d: a refused resume adopted or logged", name, b, a)
				}
			}
			if again := rig.step(srcA, frame); string(again) != string(reply) {
				t.Errorf("retransmit drew %v, want the cached refusal", frameKind(again))
			}
		})
	}
}

// TestResumeExpiryBoundary pins the ticket lifetime on the router's
// clock: a ticket expires ticketLifetime after its issue, a resume at
// exactly its expiry is served, and one a nanosecond later is refused.
func TestResumeExpiryBoundary(t *testing.T) {
	clock := newStepClock(time.Now())
	rig := newGateRig(t, clock)
	tk, err := OpenTicket(rig.ticket, rig.ring)
	if err != nil {
		t.Fatal(err)
	}
	if want := clock.Now().Add(ticketLifetime); !tk.Expiry.Equal(want) {
		t.Fatalf("ticket expires at %v, want %v", tk.Expiry, want)
	}

	clock.Set(tk.Expiry)
	_, frame, _ := rig.resumeRequest(false)
	if kind := frameKind(rig.step(srcA, frame)); kind != KindResumeConfirm {
		t.Fatalf("resume at expiry answered %v, want a confirm", kind)
	}

	clock.Set(tk.Expiry.Add(time.Nanosecond))
	_, frame, _ = rig.resumeRequest(false)
	rej := rig.decode(rig.step(srcA, frame), KindReject).(*Reject)
	if rej.Code != RejectTicket || rej.Reason != "ticket expired" {
		t.Fatalf("resume past expiry refused with %v %q, want RejectTicket \"ticket expired\"", rej.Code, rej.Reason)
	}
}

// announcement is one HandoffAdopted call as flushRecorder saw it.
type announcement struct {
	prev, next core.SessionID
	prevRouter string
	written    int // datagrams the rig's conn held when the call ran
}

// flushRecorder is a HandoffObserver on the gate rig: each call notes its
// arguments and how many datagrams the rig's recording conn had received
// by then. endBatch runs it on the test's goroutine.
type flushRecorder struct {
	rig   *gateRig
	calls []announcement
}

func (h *flushRecorder) HandoffAdopted(prev, next core.SessionID, prevRouter string) {
	h.calls = append(h.calls, announcement{prev, next, prevRouter, len(h.rig.rec.out)})
}

// observe serves a fresh server on the rig with a flushRecorder as its
// backbone observer.
func (r *gateRig) observe() *flushRecorder {
	r.serve(ServerConfig{})
	h := &flushRecorder{rig: r}
	r.srv.SetBackbone(nil, h)
	return h
}

// roamedTicket reseals the rig's ticket, under the rig's ring, as if the
// router named issuer had issued it: a resume of it is a handoff.
func (r *gateRig) roamedTicket(issuer string) []byte {
	tk, err := OpenTicket(r.ticket, r.ring)
	if err != nil {
		r.t.Fatal(err)
	}
	tk.Router = issuer
	blob, err := tk.Seal(rand.Reader, r.ring)
	if err != nil {
		r.t.Fatal(err)
	}
	return blob
}

// dispatchBatch delivers datagrams from srcA as one ingest batch, without
// ending it.
func (r *gateRig) dispatchBatch(datagrams ...[]byte) {
	now := r.router().Now()
	for _, d := range datagrams {
		r.srv.dispatch(r.l, now, srcA, d)
	}
}

// TestHandoffAnnouncedAfterFlush pins when a handoff reaches the backbone:
// once per adoption, in dispatch order, and only after the whole batch's
// replies have been written. One batch carries two roamed resumes around
// a local one, a byte-identical duplicate of the first (answered from the
// reply cache) and a roamed resume with a bad MAC; the last two announce
// nothing.
func TestHandoffAnnouncedAfterFlush(t *testing.T) {
	rig := newGateRig(t, nil)
	rec := rig.observe()

	_, roamA, sidA := rig.resumeRequestFor(rig.roamedTicket("r-west"), false)
	_, local, sidLocal := rig.resumeRequest(false)
	_, roamB, sidB := rig.resumeRequestFor(rig.roamedTicket("r-east"), false)
	forged, _, sidForged := rig.resumeRequestFor(rig.roamedTicket("r-north"), false)
	forged.sign(make([]byte, len(rig.sess.ResumptionSecret())))
	badMAC := rig.encode(forged)

	before := rig.counters()
	rig.dispatchBatch(roamA, local, roamB, roamA, badMAC)
	if len(rec.calls) != 0 || len(rig.rec.out) != 0 {
		t.Fatalf("before the batch ended: %d announcements, %d datagrams written", len(rec.calls), len(rig.rec.out))
	}
	rig.srv.endBatch(rig.l)

	if len(rec.calls) != 2 {
		t.Fatalf("observer ran %d times, want 2", len(rec.calls))
	}
	for i, issuer := range []string{"r-west", "r-east"} {
		c := rec.calls[i]
		if c.prevRouter != issuer || c.prev != rig.sess.ID {
			t.Errorf("announcement %d: prev %x from %q, want %x from %q", i, c.prev[:4], c.prevRouter, rig.sess.ID[:4], issuer)
		}
		if _, ok := rig.router().SessionByID(c.next); !ok {
			t.Errorf("announcement %d names a session the router does not hold", i)
		}
		if c.written != 5 {
			t.Errorf("announcement %d ran with %d of the batch's 5 replies written", i, c.written)
		}
	}
	if rec.calls[0].next == rec.calls[1].next {
		t.Error("both announcements name the same adopted session")
	}

	replies := make([][]byte, 0, 5)
	for len(rig.rec.out) > 0 {
		replies = append(replies, <-rig.rec.out)
	}
	if len(replies) != 5 {
		t.Fatalf("batch drew %d replies, want 5", len(replies))
	}
	for i, sid := range []core.SessionID{sidA, sidLocal, sidB} {
		if c := rig.decode(replies[i], KindResumeConfirm).(*ResumeConfirm); c.Dedup != sid {
			t.Errorf("reply %d answers another exchange", i)
		}
	}
	if string(replies[3]) != string(replies[0]) {
		t.Error("the duplicate was not answered with the first confirm's bytes")
	}
	if rej := rig.decode(replies[4], KindReject).(*Reject); rej.Code != RejectTicket || rej.Reason != "resume MAC invalid" || rej.Session != sidForged {
		t.Errorf("bad MAC refused with %v %q, want RejectTicket \"resume MAC invalid\"", rej.Code, rej.Reason)
	}
	after := rig.counters()
	for name, want := range map[string]int64{"handoffs_in": 2, "resumes_served": 3, "duplicates": 1, "resume_rejects": 1} {
		if d := after[name] - before[name]; d != want {
			t.Errorf("counter %s moved by %d, want %d", name, d, want)
		}
	}

	// A batch that adopts nothing announces nothing.
	rig.step(srcA, roamA)
	if len(rec.calls) != 2 {
		t.Fatalf("replayed handoff announced again: %d calls", len(rec.calls))
	}
}

// TestDrainWaitsForAnnouncement pins Drain to a resume's whole answer: a
// dispatched handoff keeps its admission until endBatch has flushed its
// confirm and handed its announcement to the backbone.
func TestDrainWaitsForAnnouncement(t *testing.T) {
	rig := newGateRig(t, nil)
	rec := rig.observe()
	_, frame, _ := rig.resumeRequestFor(rig.roamedTicket("r-west"), false)

	rig.dispatchBatch(frame)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := rig.srv.Drain(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain before the batch ended returned %v, want %v", err, context.DeadlineExceeded)
	}
	// Were admission already empty, Drain's select would pick either ready
	// case under an expired context; a context still live when Drain
	// starts must run out while the batch is open.
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := rig.srv.Drain(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain waiting on the open batch returned %v, want %v", err, context.DeadlineExceeded)
	}

	rig.srv.endBatch(rig.l)
	if err := rig.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 1 || rec.calls[0].written != 1 {
		t.Fatalf("Drain returned with %d announcements made (want 1, after the confirm's flush)", len(rec.calls))
	}
	if kind := frameKind(<-rig.rec.out); kind != KindResumeConfirm {
		t.Fatalf("handoff answered %v", kind)
	}
}

// TestAccessGroupOneFlush pins how a verified group leaves. One batch
// carries four valid M.2s and one with a forged signature; stepping the
// ingest queue empty must draw exactly one reply per M.2 (four confirms
// and one RejectAuth), in one write batch per group served, and a
// retransmit of each M.2 must replay its reply's bytes.
func TestAccessGroupOneFlush(t *testing.T) {
	rig := newGateRig(t, nil)
	rig.serve(ServerConfig{})
	frames := make([][]byte, 5)
	sids := make([]core.SessionID, 5)
	for i := range frames {
		m2, frame, sid := rig.accessRequest()
		if i == 4 {
			m2.Sig.SX = new(big.Int).Xor(m2.Sig.SX, big.NewInt(1))
			frame = rig.encode(m2)
		}
		frames[i], sids[i] = frame, sid
	}

	before := rig.counters()
	rig.dispatchBatch(frames...)
	rig.srv.endBatch(rig.l)
	if n := len(rig.rec.out); n != 0 {
		t.Fatalf("%d replies before the queue was stepped", n)
	}
	groups := rig.stepQueue()
	after := rig.counters()
	if d := after["write_batches"] - before["write_batches"]; d != int64(groups) {
		t.Errorf("%d groups left in %d write batches", groups, d)
	}

	replies := make(map[core.SessionID][]byte)
	for len(rig.rec.out) > 0 {
		frame := <-rig.rec.out
		kind, payload, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := DecodeMessage(kind, payload)
		if err != nil {
			t.Fatal(err)
		}
		var sid core.SessionID
		switch m := msg.(type) {
		case *core.AccessConfirm:
			sid = core.NewSessionID(m.GR, m.GJ)
		case *Reject:
			sid = m.Session
		default:
			t.Fatalf("unexpected reply %v", kind)
		}
		if _, dup := replies[sid]; dup {
			t.Errorf("exchange %x answered twice", sid[:4])
		}
		replies[sid] = frame
	}
	if len(replies) != len(frames) {
		t.Fatalf("%d M.2s drew replies for %d exchanges", len(frames), len(replies))
	}
	for i, sid := range sids[:4] {
		if tk := rig.decode(replies[sid], KindAccessConfirm).(*core.AccessConfirm).Ticket; len(tk) == 0 {
			t.Errorf("confirm %d carries no ticket", i)
		}
	}
	if rej := rig.decode(replies[sids[4]], KindReject).(*Reject); rej.Code != RejectAuth {
		t.Errorf("forged M.2 refused with %v, want RejectAuth", rej.Code)
	}
	for name, want := range map[string]int64{"tickets_issued": 4, "rejects": 1, "frames_out": 5} {
		if d := after[name] - before[name]; d != want {
			t.Errorf("counter %s moved by %d, want %d", name, d, want)
		}
	}

	for i, frame := range frames {
		if again := rig.step(srcA, frame); string(again) != string(replies[sids[i]]) {
			t.Errorf("retransmit of M.2 %d drew %v, want its cached reply", i, frameKind(again))
		}
	}
}

// TestDrainWaitsForAccessReply pins Drain to an access request's whole
// answer: a dispatched M.2 keeps its admission until the drainer that
// verified it has flushed its confirm.
func TestDrainWaitsForAccessReply(t *testing.T) {
	rig := newGateRig(t, nil)
	rig.serve(ServerConfig{})
	_, frame, sid := rig.accessRequest()
	rig.dispatchBatch(frame)
	rig.srv.endBatch(rig.l)

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := rig.srv.Drain(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain before the queue was stepped returned %v, want %v", err, context.DeadlineExceeded)
	}
	// With admission already empty, Drain's select would pick either ready
	// case under an expired context; a live one must run out.
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := rig.srv.Drain(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain waiting on the queued M.2 returned %v, want %v", err, context.DeadlineExceeded)
	}

	flushes := 0
	rig.rec.onWrite = func() {
		flushes++
		select {
		case <-rig.srv.admit.idle:
			t.Error("the confirm was flushed after its M.2 left admission")
		default:
		}
	}
	if !rig.srv.queue.Step() {
		t.Fatal("the M.2 was not queued")
	}
	if err := rig.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if flushes != 1 || len(rig.rec.out) != 1 {
		t.Fatalf("Drain returned after %d flushes of %d datagrams, want one confirm", flushes, len(rig.rec.out))
	}
	confirm := <-rig.rec.out
	rig.decode(confirm, KindAccessConfirm)
	if cached, ok := rig.srv.replies.lookup(sid); !ok || string(cached) != string(confirm) {
		t.Fatal("the reply cache does not hold the flushed confirm")
	}
}
