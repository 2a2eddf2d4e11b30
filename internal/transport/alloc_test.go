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
// data-frame datagram in steady state — frame demux, zero-copy decode,
// OpenDataInto, then the echo egress (header-first encode, in-place
// AppendSealedData into a pooled buffer, queue, sendmmsg flush). Must
// stay at exactly 0 allocations per op.
func TestDataPlaneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	secret := make([]byte, core.ResumeSecretSize)
	cn, sn := []byte("client-nonce-16b"), []byte("server-nonce-16b")
	now := time.Unix(1700000000, 0)
	client := core.ResumeSession(core.SessionID{}, secret, cn, sn, "client", now)
	server := core.ResumeSession(core.SessionID{}, secret, cn, sn, "server", now)
	payload := []byte("steady-state payload of a modest size")

	// Pre-encode the ingest datagrams: the replay rule consumes one
	// sequence number per op, and AllocsPerRun executes runs+1 times.
	const n = 1100
	datagrams := make([][]byte, n)
	for i := range datagrams {
		buf, err := AppendFrameHeader(nil, KindSessionData, core.SealedDataLen(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if datagrams[i], err = client.AppendSealedData(buf, payload); err != nil {
			t.Fatal(err)
		}
	}

	pool := batchio.NewPool(egressFrameSize)
	eg := batchio.NewEgress(nullBatchConn{}, 32, time.Millisecond, pool, nil)
	defer eg.Close()
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}

	// The metric increments a live shard loop pays per datagram ride inside
	// the gated op, so the registry refactor cannot quietly reintroduce
	// allocations on the hot path.
	stats := NewStats(nil)

	var scratch core.DataFrame
	pt := make([]byte, 0, 65536)
	idx := 0
	opStart := time.Now()
	if avg := testing.AllocsPerRun(1000, func() {
		stats.framesIn.Add(1)
		stats.dataDelivered.Add(1)
		stats.dataRTT.Observe(time.Since(opStart))
		_, framePayload, err := DecodeFrame(datagrams[idx])
		if err != nil {
			t.Fatal(err)
		}
		idx++
		if err := core.UnmarshalDataFrameInto(framePayload, &scratch); err != nil {
			t.Fatal(err)
		}
		pt, err = server.OpenDataInto(&scratch, pt[:0])
		if err != nil {
			t.Fatal(err)
		}
		b := eg.Buffer()
		if b.B, err = AppendFrameHeader(b.B, KindSessionData, core.SealedDataLen(len(pt))); err != nil {
			t.Fatal(err)
		}
		if b.B, err = server.AppendSealedData(b.B, pt); err != nil {
			t.Fatal(err)
		}
		eg.QueueBuf(b, addr)
		eg.Flush()
	}); avg != 0 {
		t.Fatalf("data-plane ingest+egress path allocates %.1f/op, want 0", avg)
	}
	if out := pool.Outstanding(); out != 0 {
		t.Fatalf("egress leaked %d pooled buffers", out)
	}

	// The ingest side with a GSO train: one op is a burst of trainLen
	// frames leaving in one segmented send and coming back out of
	// ReadBatch one per ring slot — split, carried past the 32 slots,
	// decoded and opened.
	const trainLen, runs = 40, 100
	rxConn, txConn := mustListen(t), mustListen(t)
	defer rxConn.Close()
	defer txConn.Close()
	rx, _ := batchio.Upgrade(rxConn)
	if !batchio.EnableGRO(rx, stats.NoteRxSplit) {
		t.Log("no UDP GRO on this platform; the train phase is skipped")
		return
	}
	tx, _ := batchio.Upgrade(txConn)
	bursts := make([][]batchio.Message, runs+1)
	for i := range bursts {
		bursts[i] = make([]batchio.Message, trainLen)
		for j := range bursts[i] {
			buf, err := AppendFrameHeader(nil, KindSessionData, core.SealedDataLen(len(payload)))
			if err == nil {
				buf, err = client.AppendSealedData(buf, payload)
			}
			if err != nil {
				t.Fatal(err)
			}
			bursts[i][j].Set(buf, rxConn.LocalAddr())
		}
	}
	ingest := batchio.NewPool(65536)
	ring := batchio.NewRing(32, ingest)
	rx.SetReadDeadline(time.Now().Add(time.Minute))
	burst := 0
	if avg := testing.AllocsPerRun(runs, func() {
		if n, err := tx.WriteBatch(bursts[burst]); err != nil || n != trainLen {
			t.Fatalf("WriteBatch = %d, %v", n, err)
		}
		burst++
		for got := 0; got < trainLen; {
			ms := ring.Prepare()
			n, err := rx.ReadBatch(ms)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				_, framePayload, err := DecodeFrame(ms[i].Payload())
				if err != nil {
					t.Fatal(err)
				}
				if err := core.UnmarshalDataFrameInto(framePayload, &scratch); err != nil {
					t.Fatal(err)
				}
				if pt, err = server.OpenDataInto(&scratch, pt[:0]); err != nil {
					t.Fatal(err)
				}
			}
			got += n
		}
	}); avg != 0 {
		t.Fatalf("train ingest path allocates %.1f/op, want 0", avg)
	}
	ring.Close()
	if out := ingest.Outstanding(); out != 0 {
		t.Fatalf("ingest ring leaked %d pooled buffers", out)
	}
	if stats.RxTrains() == 0 {
		t.Fatal("the bursts never arrived as trains")
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
// signs and frames a request; the server decodes it into its loop's
// scratch and runs handleResumeRequest; the client decodes the confirm
// the server's egress flushed and opens it. Only the socket hops are
// missing from the round trip a roaming user pays.
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
// ticket-issuing server, then takes its ticket.
func newResumeExchange(tb testing.TB) *resumeExchange {
	tb.Helper()
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, 1)
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
	req, frame, err := x.cl.resumeRequest(x.t, nil)
	if err != nil {
		tb.Fatal(err)
	}
	dedup := resumeDedupID(x.t.blob, req.Nonce[:])

	_, payload, err := DecodeFrame(frame)
	if err != nil {
		tb.Fatal(err)
	}
	if err := UnmarshalResumeRequestInto(payload, &x.l.scratchResume); err != nil {
		tb.Fatal(err)
	}
	x.srv.handleResumeRequest(x.l, &x.l.scratchResume, x.addr)
	x.l.eg.Flush()

	kind, payload, err := DecodeFrame(x.out.last)
	if err != nil || kind != KindResumeConfirm {
		tb.Fatalf("server answered %v: %v", kind, err)
	}
	var confirm ResumeConfirm
	if err := UnmarshalResumeConfirmInto(payload, &confirm); err != nil || confirm.Dedup != dedup {
		tb.Fatalf("confirm: %v (dedup match %v)", err, confirm.Dedup == dedup)
	}
	sess, body, err := openResumeConfirm(x.t, &req.Nonce, &confirm)
	if err != nil || len(body.Ticket) == 0 {
		tb.Fatalf("open confirm: %v", err)
	}
	return sess
}

// resumeExchangeAllocs is the allocation ceiling of one in-process
// resume round trip, both ends together. Almost half is the escrowed
// M.2's decode (group signature and curve points); the rest is the two
// new sessions with their AEADs, the opened and the reissued ticket, the
// confirm frame and the request.
const resumeExchangeAllocs = 39

// TestResumeExchangeAllocs gates the allocations of one ticket resume,
// client and server together, at resumeExchangeAllocs.
func TestResumeExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	x := newResumeExchange(t)
	x.run(t)
	avg := testing.AllocsPerRun(200, func() { x.run(t) })
	t.Logf("resume exchange: %.1f allocs/op", avg)
	if avg > resumeExchangeAllocs {
		t.Fatalf("resume exchange allocates %.1f/op, ceiling %d", avg, resumeExchangeAllocs)
	}
}

// BenchmarkResumeExchange times one in-process resume round trip.
func BenchmarkResumeExchange(b *testing.B) {
	x := newResumeExchange(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.run(b)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "µs/op")
}
