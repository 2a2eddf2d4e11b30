package transport

import (
	"context"
	"crypto/rand"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/transport/batchio"
)

// steadyStateFixtures builds one encoded data frame and one encoded
// resume request, the two datagrams of the hot paths.
func steadyStateFixtures(tb testing.TB) (dataFrame, resumeFrame []byte) {
	tb.Helper()
	sess := core.ResumeSession(core.SessionID{}, make([]byte, core.ResumeSecretSize),
		[]byte("client-nonce-16b"), []byte("server-nonce-16b"), "bench", time.Unix(1700000000, 0))
	df, err := sess.SealData(rand.Reader, []byte("steady-state payload of a modest size"))
	if err != nil {
		tb.Fatal(err)
	}
	dataFrame, err = EncodeFrame(KindSessionPing, df.Marshal())
	if err != nil {
		tb.Fatal(err)
	}

	req := &ResumeRequest{Ticket: make([]byte, 200), Timestamp: time.Unix(1700000000, 0)}
	req.Nonce[0] = 9
	req.sign(make([]byte, core.ResumeSecretSize))
	resumeFrame, err = EncodeFrame(KindResumeRequest, req.Marshal())
	if err != nil {
		tb.Fatal(err)
	}
	return dataFrame, resumeFrame
}

// TestSteadyStateDecodeAllocs is the allocs/op regression gate from the
// resumption issue: the per-datagram decode work of a shard loop — frame
// demux plus the aliasing message decoders into per-loop scratch — must
// allocate nothing on the data and resume paths.
func TestSteadyStateDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	dataFrame, resumeFrame := steadyStateFixtures(t)

	var scratchDF core.DataFrame
	if avg := testing.AllocsPerRun(1000, func() {
		_, payload, err := DecodeFrame(dataFrame)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.UnmarshalDataFrameInto(payload, &scratchDF); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("data-frame decode path allocates %.1f/op, want 0", avg)
	}

	var scratchRR ResumeRequest
	if avg := testing.AllocsPerRun(1000, func() {
		_, payload, err := DecodeFrame(resumeFrame)
		if err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalResumeRequestInto(payload, &scratchRR); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("resume decode path allocates %.1f/op, want 0", avg)
	}
}

// nullBatchConn discards writes without recording them, so the egress
// side of the alloc gate measures only the spooler itself.
type nullBatchConn struct{}

func (nullBatchConn) ReadBatch(ms []batchio.Message) (int, error)  { return 0, nil }
func (nullBatchConn) WriteBatch(ms []batchio.Message) (int, error) { return len(ms), nil }
func (nullBatchConn) LocalAddr() net.Addr                          { return nil }
func (nullBatchConn) SetReadDeadline(time.Time) error              { return nil }
func (nullBatchConn) Close() error                                 { return nil }

// TestDataPlaneAllocs is the end-to-end allocs/op gate of the batched
// data plane: one op is everything the server does for one sealed
// data-frame datagram in steady state — dispatch's frame demux and table
// row, zero-copy decode, OpenDataInto, the counters, then the echo
// egress (header-first encode, in-place AppendSealedData into a pooled
// buffer, queue, sendmmsg flush). Must stay at exactly 0 allocations per
// op.
func TestDataPlaneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	rig := newGateRig(t, nil)
	rig.serve(ServerConfig{EchoData: true})
	srv := rig.srv
	payload := []byte("steady-state payload of a modest size")
	seal := func() []byte {
		buf, err := AppendFrameHeader(nil, KindSessionData, core.SealedDataLen(len(payload)))
		if err == nil {
			buf, err = rig.sess.AppendSealedData(buf, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	// Pre-encode the ingest datagrams, in the order they are served: the
	// replay rule consumes one sequence number per op, and AllocsPerRun
	// executes runs+1 times.
	const n = 1100
	datagrams := make([][]byte, n)
	for i := range datagrams {
		datagrams[i] = seal()
	}
	const trainLen, runs = 40, 100
	bursts := make([][][]byte, runs+1)
	for i := range bursts {
		bursts[i] = make([][]byte, trainLen)
		for j := range bursts[i] {
			bursts[i][j] = seal()
		}
	}

	pool := batchio.NewPool(egressFrameSize)
	l := &shardLoop{
		eg: batchio.NewEgress(nullBatchConn{}, 32, 0, pool, srv.noteFlush),
		pt: make([]byte, 0, 65536),
	}
	defer l.eg.Close()
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	now := srv.router.Now()
	delivered := srv.Stats().DataDelivered()

	idx := 0
	if avg := testing.AllocsPerRun(1000, func() {
		srv.dispatch(l, now, addr, datagrams[idx])
		idx++
		srv.endBatch(l)
	}); avg != 0 {
		t.Fatalf("data-plane ingest+egress path allocates %.1f/op, want 0", avg)
	}
	if got := srv.Stats().DataDelivered() - delivered; got != int64(idx) {
		t.Fatalf("%d of %d frames delivered", got, idx)
	}
	if out := pool.Outstanding(); out != 0 {
		t.Fatalf("egress leaked %d pooled buffers", out)
	}

	// The ingest side with a GSO train: one op is a burst of trainLen
	// frames leaving in one segmented send and coming back out of
	// ReadBatch one per ring slot — split, carried past the 32 slots,
	// then dispatched and echoed batch by batch as a read loop does.
	rxConn, txConn := mustListen(t), mustListen(t)
	defer rxConn.Close()
	defer txConn.Close()
	rx, _ := batchio.Upgrade(rxConn)
	if !batchio.EnableGRO(rx, srv.stats.NoteRxSplit) {
		t.Log("no UDP GRO on this platform; the train phase is skipped")
		return
	}
	tx, _ := batchio.Upgrade(txConn)
	msgs := make([][]batchio.Message, runs+1)
	for i := range msgs {
		msgs[i] = make([]batchio.Message, trainLen)
		for j := range msgs[i] {
			msgs[i][j].Set(bursts[i][j], rxConn.LocalAddr())
		}
	}
	ingest := batchio.NewPool(65536)
	ring := batchio.NewRing(32, ingest)
	rx.SetReadDeadline(time.Now().Add(time.Minute))
	burst := 0
	delivered = srv.Stats().DataDelivered()
	if avg := testing.AllocsPerRun(runs, func() {
		if n, err := tx.WriteBatch(msgs[burst]); err != nil || n != trainLen {
			t.Fatalf("WriteBatch = %d, %v", n, err)
		}
		burst++
		for got := 0; got < trainLen; {
			ms := ring.Prepare()
			n, err := rx.ReadBatch(ms)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ms[:n] {
				srv.dispatch(l, now, ms[i].Addr, ms[i].Payload())
			}
			srv.endBatch(l)
			got += n
		}
	}); avg != 0 {
		t.Fatalf("train ingest path allocates %.1f/op, want 0", avg)
	}
	if got := srv.Stats().DataDelivered() - delivered; got != int64(burst*trainLen) {
		t.Fatalf("%d of %d train frames delivered", got, burst*trainLen)
	}
	ring.Close()
	if out := ingest.Outstanding(); out != 0 {
		t.Fatalf("ingest ring leaked %d pooled buffers", out)
	}
	if srv.Stats().RxTrains() == 0 {
		t.Fatal("the bursts never arrived as trains")
	}
}

// TestKeepaliveAllocs is the allocs/op gate of the server's keepalive:
// one op is a sealed ping through dispatch — frame demux, zero-copy
// decode, OpenDataInto into the loop's scratch, the body decode — and its
// pong, sealed header first into a pooled egress buffer and flushed.
// Must stay at exactly 0 allocations per op.
func TestKeepaliveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	rig := newGateRig(t, nil)
	rig.serve(ServerConfig{})
	srv := rig.srv
	k := newKeeper(NewClient(nil, srcA, rig.ln.Users[0], ClientConfig{}), MaintainConfig{})
	// Pre-seal the pings in the order they are served: the replay rule
	// consumes one sequence number per op.
	pings := make([][]byte, 1001)
	for i := range pings {
		x, err := k.ping(time.Time{}, rig.sess)
		if err != nil {
			t.Fatal(err)
		}
		pings[i] = append([]byte(nil), x.frame...)
	}
	l := &shardLoop{
		eg: batchio.NewEgress(nullBatchConn{}, 32, 0, batchio.NewPool(egressFrameSize), srv.noteFlush),
		pt: make([]byte, 0, 65536),
	}
	defer l.eg.Close()
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	now := srv.router.Now()
	served := srv.Stats().Snapshot().Value("keepalives_served")
	idx := 0
	if avg := testing.AllocsPerRun(1000, func() {
		srv.dispatch(l, now, addr, pings[idx])
		idx++
		srv.endBatch(l)
	}); avg != 0 {
		t.Fatalf("ping→pong path allocates %.1f/op, want 0", avg)
	}
	if got := srv.Stats().Snapshot().Value("keepalives_served") - served; got != int64(idx) {
		t.Fatalf("%d of %d pings answered", got, idx)
	}
}

// accessAnswerAllocs is the allocation ceiling of one M.2's path through
// the server outside the router's verification: serveAccess's submit,
// which copies the sender's address into the queue's tag by value and
// allocates nothing, and answerAccess for one verified result. It is the
// count TestAccessAnswerAllocs measures, all of it the answer's: the
// ticket and its sealed blob (2), and the M.3's frame (5: the wire writer
// and its buffer, the two DH shares' encodings, the framed copy). The
// reply cache keeps that frame, and the egress queues it, without a copy.
const accessAnswerAllocs = 7

// TestAccessAnswerAllocs gates serveAccess's submit plus answerAccess for
// one verified result, on the gate rig, at accessAnswerAllocs. The two
// halves are measured apart: the submitted requests wait in the queue,
// each with its admission, until the test steps them out.
func TestAccessAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	rig := newGateRig(t, nil)
	rig.serve(ServerConfig{})
	srv := rig.srv
	l := &shardLoop{eg: batchio.NewEgress(nullBatchConn{}, 32, 0, batchio.NewPool(egressFrameSize), srv.noteFlush)}
	defer l.eg.Close()
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}

	m2, _, sid := rig.accessRequest()
	res := rig.router().HandleAccessRequestBatch([]*core.AccessRequest{m2})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// The queued copies of m2 then fail precheck instead of verifying.
	rig.router().RetireBeacon(m2.GR)
	now := srv.router.Now()
	submit := testing.AllocsPerRun(100, func() {
		srv.admit.enter()
		srv.serveAccess(l, now, addr, sid, m2)
	})
	if d := srv.queue.Depth(); d != 101 {
		t.Fatalf("%d of 101 submissions queued", d)
	}
	rig.stepQueue()

	srv.replies.begin(sid)
	tags := []accessReply{newAccessReply(sid, l.eg, addr)}
	out := []core.AccessResult{res}
	answer := testing.AllocsPerRun(100, func() {
		srv.admit.enter()
		srv.answerAccess(tags, out)
	})
	if frame, _ := srv.replies.lookup(sid); frame == nil {
		t.Fatal("answerAccess cached no confirm")
	}
	t.Logf("access path: submit %.1f + answer %.1f allocs/op", submit, answer)
	if avg := submit + answer; avg > accessAnswerAllocs {
		t.Fatalf("access submit+answer allocates %.1f/op, ceiling %d", avg, accessAnswerAllocs)
	}
}

// BenchmarkDecodeDataFrame measures the steady-state data-path decode
// (frame demux + aliasing data-frame decode). Run with -benchmem: the
// allocs/op column must read 0.
func BenchmarkDecodeDataFrame(b *testing.B) {
	dataFrame, _ := steadyStateFixtures(b)
	var scratch core.DataFrame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, payload, err := DecodeFrame(dataFrame)
		if err != nil {
			b.Fatal(err)
		}
		if err := core.UnmarshalDataFrameInto(payload, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeResumeRequest measures the resume-path decode a shard
// loop runs per re-attach datagram.
func BenchmarkDecodeResumeRequest(b *testing.B) {
	_, resumeFrame := steadyStateFixtures(b)
	var scratch ResumeRequest
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, payload, err := DecodeFrame(resumeFrame)
		if err != nil {
			b.Fatal(err)
		}
		if err := UnmarshalResumeRequestInto(payload, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplyCacheBegin measures the striped dedup lookup every access
// or resume datagram pays before any crypto.
func BenchmarkReplyCacheBegin(b *testing.B) {
	c := newReplyCache(4096)
	var sid core.SessionID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sid[0] = byte(i)
		sid[1] = byte(i >> 8)
		c.begin(sid)
	}
}

// resumeExchange is one ticket resume run in process: the client builds,
// signs and frames a request; the server's dispatch takes it through the
// frame decode, the handshake gate and the resume handler; the client
// decodes the confirm the server's egress flushed and opens it. Only the
// socket hops are missing from the round trip a roaming user pays.
type resumeExchange struct {
	srv  *Server
	cl   *Client
	t    *resumeTicket
	l    *shardLoop
	out  *lastDatagramConn
	addr net.Addr
}

// lastDatagramConn keeps the last datagram an egress flush wrote.
type lastDatagramConn struct {
	nullBatchConn
	last []byte
}

func (c *lastDatagramConn) WriteBatch(ms []batchio.Message) (int, error) {
	if len(ms) > 0 {
		c.last = ms[len(ms)-1].Payload()
	}
	return len(ms), nil
}

// newResumeExchange attaches one client over loopback to a
// ticket-issuing server, then takes its ticket. With roam the exchange
// runs at a second router's server, sharing the STEK ring, so every
// resume of the ticket is a handoff, announced to a no-op observer.
func newResumeExchange(tb testing.TB, roam bool) *resumeExchange {
	tb.Helper()
	routers := 1
	if roam {
		routers = 2
	}
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", routers, 1)
	if err != nil {
		tb.Fatal(err)
	}
	ring, err := symcrypto.NewTicketKeyRing(rand.Reader)
	if err != nil {
		tb.Fatal(err)
	}
	listen := func() net.PacketConn {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		return conn
	}
	srv := NewServer(listen(), ln.Routers[0], ServerConfig{TicketKeys: ring, BootEpoch: 7})
	tb.Cleanup(srv.Close)
	conn := listen()
	tb.Cleanup(func() { conn.Close() })
	cl := NewClient(conn, srv.Addr(), ln.Users[0], testClientConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := cl.Attach(ctx); err != nil {
		tb.Fatal(err)
	}
	if roam {
		srv = NewServer(listen(), ln.Routers[1], ServerConfig{TicketKeys: ring, BootEpoch: 8})
		tb.Cleanup(srv.Close)
		srv.SetBackbone(nil, nopHandoffs{})
	}
	out := &lastDatagramConn{}
	eg := batchio.NewEgress(out, 32, time.Hour, batchio.NewPool(egressFrameSize), nil)
	tb.Cleanup(eg.Close)
	return &resumeExchange{
		srv: srv, cl: cl, t: cl.heldTicket(), out: out,
		l:    &shardLoop{eg: eg},
		addr: &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9},
	}
}

// run performs one exchange and returns the session the client derived.
func (x *resumeExchange) run(tb testing.TB) *core.Session {
	req, frame, err := resumeRequest(x.t, x.cl.user.Now(), nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	dedup := resumeDedupID(x.t.blob, req.Nonce[:])

	x.srv.dispatch(x.l, x.srv.router.Now(), x.addr, frame)
	x.srv.endBatch(x.l)

	kind, payload, err := DecodeFrame(x.out.last)
	if err != nil || kind != KindResumeConfirm {
		tb.Fatalf("server answered %v: %v", kind, err)
	}
	var confirm ResumeConfirm
	if err := UnmarshalResumeConfirmInto(payload, &confirm); err != nil || confirm.Dedup != dedup {
		tb.Fatalf("confirm: %v (dedup match %v)", err, confirm.Dedup == dedup)
	}
	sess, body, err := openResumeConfirm(x.t, &req.Nonce, &confirm, x.cl.user.Now())
	if err != nil || len(body.Ticket) == 0 {
		tb.Fatalf("open confirm: %v", err)
	}
	return sess
}

// resumeExchangeAllocs is the allocation ceiling of one in-process
// resume round trip, both ends together. A third is the two new
// sessions with their AEADs; the rest is the request and its frame, the
// reply-cache entry, the escrow's copy for the network log, the reissued
// ticket, the confirm frame and the client's open of it. The ticket opens
// into the shard loop's scratch and the escrowed M.2 is checked in place
// (TestEscrowCheckAllocs), so neither allocates.
const resumeExchangeAllocs = 17

// TestResumeExchangeAllocs gates the allocations of one ticket resume,
// client and server together, at resumeExchangeAllocs.
func TestResumeExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	x := newResumeExchange(t, false)
	x.run(t)
	avg := testing.AllocsPerRun(200, func() { x.run(t) })
	t.Logf("resume exchange: %.1f allocs/op", avg)
	if avg > resumeExchangeAllocs {
		t.Fatalf("resume exchange allocates %.1f/op, ceiling %d", avg, resumeExchangeAllocs)
	}
}

// nopHandoffs is a HandoffObserver that does nothing.
type nopHandoffs struct{}

func (nopHandoffs) HandoffAdopted(prev, next core.SessionID, prevRouter string) {}

// handoffExchangeAllocs is the allocation ceiling of one in-process
// handoff round trip: a resume at a router other than the ticket's
// issuer, driven through dispatch and endBatch. It is the count
// TestHandoffExchangeAllocs measures, the resume's own: the loop's
// handoff slice grows once, and the opened ticket's Router string is
// rebuilt only when the issuer differs from the last ticket the loop
// opened (one more allocation), which a run of one user's handoffs
// between two routers never does.
const handoffExchangeAllocs = 17

// TestHandoffExchangeAllocs gates the allocations of one handoff, client
// and server together, at handoffExchangeAllocs, and holds endBatch's
// announcement step to none once the loop's slice has grown.
func TestHandoffExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	x := newResumeExchange(t, true)
	before := x.srv.Stats().HandoffsIn()
	x.run(t)
	avg := testing.AllocsPerRun(200, func() { x.run(t) })
	t.Logf("handoff exchange: %.1f allocs/op", avg)
	if got := x.srv.Stats().HandoffsIn() - before; got != 202 {
		t.Fatalf("%d of 202 resumes were handoffs", got)
	}
	if avg > handoffExchangeAllocs {
		t.Fatalf("handoff exchange allocates %.1f/op, ceiling %d", avg, handoffExchangeAllocs)
	}

	h := handoff{prev: x.t.prev, next: x.t.prev, prevRouter: "home"}
	if avg := testing.AllocsPerRun(200, func() {
		x.l.handoffs = append(x.l.handoffs, h)
		x.srv.endBatch(x.l)
	}); avg != 0 {
		t.Fatalf("announcing a handoff allocates %.1f/op, want 0", avg)
	}
}

// TestEscrowCheckAllocs pins the resume's check of the M.2 its ticket
// escrows at 0 allocs/op: core.CheckAccessRequest walks the fields and
// validates both DH shares and the group signature (mode, scalars, T1
// and T2) without building any of them.
func TestEscrowCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	x := newResumeExchange(t, false)
	tk, err := OpenTicket(x.t.blob, x.srv.tickets)
	if err != nil {
		t.Fatal(err)
	}
	escrow := tk.Escrow
	if err := core.CheckAccessRequest(escrow); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := core.CheckAccessRequest(escrow); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("escrow check: %.1f allocs/op", avg)
	if avg != 0 {
		t.Fatalf("CheckAccessRequest allocates %.1f/op, want 0", avg)
	}
}

// BenchmarkResumeExchange times one in-process resume round trip.
func BenchmarkResumeExchange(b *testing.B) {
	x := newResumeExchange(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.run(b)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "µs/op")
}

// clientResumeAllocs is the allocation ceiling of one Client resume run
// as its phase steps, through the gate rig's dispatch with no socket and
// no server goroutine: the round trip of resumeExchangeAllocs, the
// reissued ticket the client stores with its resumption secret, and the
// rig's recorded reply. The run is the client's one resume run, and it
// hands its exchange its hooks as arguments, so neither the run nor a
// method value allocates.
const clientResumeAllocs = 20

// TestClientResumeAllocs gates a stepped Client resume at
// clientResumeAllocs.
func TestClientResumeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	r := newClientRig(t)
	r.reset(t, ClientConfig{})
	r.cl.storeTicket(r.ticket, r.sess)
	resume := func() {
		r.sent = r.sent[:0]
		if err := r.run(r.cl.newResume(r.cl.heldTicket()), nil); err != nil {
			t.Fatalf("resume: %v", err)
		}
	}
	resume()
	avg := testing.AllocsPerRun(200, resume)
	t.Logf("client resume: %.1f allocs/op", avg)
	if avg > clientResumeAllocs {
		t.Fatalf("client resume allocates %.1f/op, ceiling %d", avg, clientResumeAllocs)
	}
}
