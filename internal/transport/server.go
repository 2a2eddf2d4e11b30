package transport

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/transport/batchio"
)

// ServerConfig tunes the router-side datapath.
type ServerConfig struct {
	// Shards is how many read loops serve the socket(s). With one socket,
	// Shards loops share it (userspace demux); NewShardedServer runs one
	// loop per SO_REUSEPORT socket instead. Default 1.
	Shards int
	// BootEpoch identifies this process incarnation. It is carried in the
	// signed beacon and echoed in keepalive pongs, so clients detect a
	// restart through an authenticated channel. Zero draws a random epoch
	// (the production choice); tests pin it for determinism.
	BootEpoch uint64
	// TicketKeys is the STEK ring sealing resumption tickets. Nil draws a
	// fresh ring (tickets then die with the process); operators that want
	// tickets to survive restarts share one ring across incarnations.
	TicketKeys *symcrypto.TicketKeyRing
	// EchoData makes the server seal each delivered data-frame payload
	// back to its sender — the application-level echo sink the data-plane
	// workloads and drills measure round trips against.
	EchoData bool
	// Metrics is the registry the server's instruments resolve in. Nil
	// creates a private registry, reachable via Stats().Registry().
	Metrics *metrics.Registry
	// RateLimitPerSec, when positive, arms a per-source token bucket on
	// the attach/resume ingress: each source IP may start at most this
	// many handshake exchanges per second (sustained), with RateLimitBurst
	// headroom. Over-budget datagrams are dropped before any decode work
	// and counted in ratelimit_dropped. Zero disables the limiter.
	RateLimitPerSec float64
	// RateLimitBurst is the per-source bucket depth. Default 2× the rate
	// (minimum 1) so short legitimate bursts — a fleet re-attaching after
	// a restart — are not shed.
	RateLimitBurst int
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...any)
}

// The router's fixed sizes and periods; no deployment tunes them.
const (
	// beaconRefresh is how long a cached beacon frame is served before a
	// fresh one is generated (the unicast analogue of the broadcast
	// beacon period).
	beaconRefresh = time.Second
	// beaconHistory is how many recent beacons stay acceptable: clients
	// holding a slightly stale beacon can still complete the handshake
	// while older DH shares are retired.
	beaconHistory = 16
	// queueCapacity bounds the ingest queue (backpressure under overload).
	queueCapacity = 1024
	// replyCacheSize bounds the duplicate-suppression cache of answered
	// exchanges (striped FIFO eviction).
	replyCacheSize = 4096
	// deltaCacheSize bounds, per revocation list, how many encoded delta
	// frames stay cached for the current epoch (FIFO eviction).
	deltaCacheSize = 64
	// ticketLifetime bounds how long an issued ticket resumes.
	ticketLifetime = 10 * time.Minute
	// dosSampleInterval paces the load sampler that feeds the router's
	// adaptive puzzle-difficulty controller (dosgate.go).
	dosSampleInterval = 250 * time.Millisecond
	// ioBatch is how many datagrams one recvmmsg/sendmmsg moves per
	// syscall on each shard loop, and the egress coalescing width.
	ioBatch = 32
)

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.BootEpoch == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			c.BootEpoch = binary.BigEndian.Uint64(b[:])
		}
		if c.BootEpoch == 0 {
			c.BootEpoch = 1 // never advertise the "unset" epoch
		}
	}
	return c
}

// Server is the router side of the transport: N shard loops read
// datagrams, decode frames with per-shard scratch state, answer beacon
// solicitations from a cached frame, serve ticket resumptions inline
// (symmetric crypto only), and feed access requests through the router's
// bounded ingest queue, whose drainers verify what a burst leaves waiting
// side by side.
type Server struct {
	cfg     ServerConfig
	conns   []net.PacketConn
	router  *core.MeshRouter
	queue   *core.IngestQueue[accessReply]
	stats   *Stats
	limiter *rateLimiter
	tickets *symcrypto.TicketKeyRing

	// beaconMu guards the cached beacon frame and its DH-share history.
	beaconMu    sync.Mutex
	beaconFrame []byte
	beaconAt    time.Time
	beaconGRs   []*bn256.G1

	// replies is the striped, bounded duplicate-suppression cache shared
	// by all shard loops (access requests and resumes alike).
	replies *replyCache

	// dosReplay remembers which source first presented each accepted
	// puzzle solution (dosgate.go); handshakesSeen counts handshake
	// datagrams admitted past the limiter — the drop fraction's
	// denominator in the controller's load samples. sampledDifficulty is
	// the difficulty the last load sample saw. dosStop ends the sampler
	// loop at Close.
	dosReplay         *solutionReplayTable
	handshakesSeen    atomic.Int64
	sampledDifficulty atomic.Uint32
	dosStop           chan struct{}

	// ingestPool backs the read rings (full-datagram buffers); framePool
	// backs pooled egress frames (replies sealed in place). Both are
	// leak-checked: every Get has an owner responsible for Release.
	ingestPool *batchio.Pool
	framePool  *batchio.Pool

	// backbone holds the metro-plane hooks, installed by the backbone
	// node after construction (atomically, so the read loops never lock).
	backbone atomic.Pointer[backboneHooks]

	admit  admission // access requests in flight, and the draining bit
	closed atomic.Bool

	// revMu guards the per-list caches of encoded revocation frames: the
	// current snapshot frame plus a bounded set of delta frames keyed by
	// from-epoch, all invalidated when the router's installed epoch moves.
	revMu    sync.Mutex
	revCache map[revocation.List]*revFrameCache

	loops sync.WaitGroup // shard read loops
}

// admission decides whether a handshake may start, and counts it in
// flight in the same step: one atomic word holds the draining bit and
// the number of admitted handshakes not yet answered. Drain sets the bit
// in that word, so every request admitted before it is in the count
// Drain waits on, and none is admitted after. (A WaitGroup checked against a separate
// flag could be Added after Drain's Wait had already seen zero.)
type admission struct {
	state    atomic.Uint64 // drainingBit | in-flight count
	idle     chan struct{} // closed once draining with nothing in flight
	idleOnce sync.Once
}

const drainingBit = 1 << 63

// enter admits one request unless draining has begun.
func (a *admission) enter() bool {
	for {
		w := a.state.Load()
		if w&drainingBit != 0 {
			return false
		}
		if a.state.CompareAndSwap(w, w+1) {
			return true
		}
	}
}

// leave marks one admitted request answered.
func (a *admission) leave() {
	if a.state.Add(^uint64(0)) == drainingBit {
		a.idleOnce.Do(func() { close(a.idle) })
	}
}

// drain stops admitting and returns a channel closed once every admitted
// request has left.
func (a *admission) drain() <-chan struct{} {
	for {
		w := a.state.Load()
		if w&drainingBit != 0 || a.state.CompareAndSwap(w, w|drainingBit) {
			if w&^drainingBit == 0 {
				a.idleOnce.Do(func() { close(a.idle) })
			}
			return a.idle
		}
	}
}

func (a *admission) draining() bool { return a.state.Load()&drainingBit != 0 }

// NewServer starts serving router on conn. With cfg.Shards > 1, that many
// read loops share the one socket (userspace demux); use NewShardedServer
// with ListenShards sockets for kernel-demuxed SO_REUSEPORT sharding.
// Close the server (not the conn) to shut down.
func NewServer(conn net.PacketConn, router *core.MeshRouter, cfg ServerConfig) *Server {
	return newServer([]net.PacketConn{conn}, router, cfg).start()
}

// NewShardedServer starts serving router on a set of sockets sharing one
// UDP port (see ListenShards), one read loop per socket.
func NewShardedServer(conns []net.PacketConn, router *core.MeshRouter, cfg ServerConfig) *Server {
	if len(conns) == 0 {
		panic("transport: NewShardedServer needs at least one socket")
	}
	if len(conns) > 1 {
		cfg.Shards = len(conns)
	}
	// With one socket (the ListenShards fallback where SO_REUSEPORT is
	// unavailable) cfg.Shards still governs how many loops demux it.
	return newServer(conns, router, cfg).start()
}

// newServer builds a server that serves nothing until start: a test
// drives it through dispatch, endBatch and queue.Step instead.
func newServer(conns []net.PacketConn, router *core.MeshRouter, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		conns:      conns,
		router:     router,
		stats:      NewStats(cfg.Metrics),
		tickets:    cfg.TicketKeys,
		replies:    newReplyCache(replyCacheSize),
		revCache:   make(map[revocation.List]*revFrameCache),
		ingestPool: batchio.NewPool(65536),
		framePool:  batchio.NewPool(egressFrameSize),
		dosReplay:  newSolutionReplayTable(dosReplayCap),
		dosStop:    make(chan struct{}),
	}
	s.queue = core.NewIngestQueue(router, queueCapacity, s.answerAccess)
	s.admit.idle = make(chan struct{})
	if cfg.RateLimitPerSec > 0 {
		burst := cfg.RateLimitBurst
		if burst <= 0 {
			burst = int(2 * cfg.RateLimitPerSec)
		}
		s.limiter = newRateLimiter(cfg.RateLimitPerSec, burst)
	}
	if s.tickets == nil {
		ring, err := symcrypto.NewTicketKeyRing(rand.Reader)
		if err == nil {
			s.tickets = ring
		}
		// On rng failure s.tickets stays nil: the server simply issues no
		// tickets and refuses resumes, degrading to full handshakes.
	}
	// The epoch rides the signed beacon body, so clients learn it through
	// an authenticated channel at attach time.
	router.SetBootEpoch(cfg.BootEpoch)
	s.stats.bootEpoch.Store(cfg.BootEpoch)
	return s
}

// start launches the read loops, the ingest queue's drainers and the DoS
// load sampler, and returns s.
func (s *Server) start() *Server {
	// One loop per socket; a single socket gets cfg.Shards loops instead.
	nloops := len(s.conns)
	if nloops == 1 && s.cfg.Shards > 1 {
		nloops = s.cfg.Shards
	}
	s.stats.shards.Store(int64(nloops))
	for i := 0; i < nloops; i++ {
		conn := s.conns[i%len(s.conns)]
		s.loops.Add(1)
		go s.readLoop(conn)
	}
	s.queue.Start()
	s.loops.Add(1)
	go s.dosSampleLoop()
	return s
}

// ListenShards opens n UDP sockets sharing one port on addr. Where
// SO_REUSEPORT is available (Linux) each socket is kernel-demuxed with a
// private receive queue; elsewhere a single socket comes back and the
// server's shard loops share it. Pass the result to NewShardedServer.
func ListenShards(addr string, n int) ([]net.PacketConn, error) {
	if n < 1 {
		n = 1
	}
	if !reusePortAvailable || n == 1 {
		conn, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, err
		}
		return []net.PacketConn{conn}, nil
	}
	lc := net.ListenConfig{Control: setReusePort}
	first, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, err
	}
	conns := []net.PacketConn{first}
	// Subsequent sockets bind the concrete address the first one got (addr
	// may have asked for an ephemeral port).
	bound := first.LocalAddr().String()
	for i := 1; i < n; i++ {
		c, err := lc.ListenPacket(context.Background(), "udp", bound)
		if err != nil {
			for _, o := range conns {
				_ = o.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// Forwarder relays a data frame whose session this router does not hold
// toward the router that owns it (the backbone's ownership table + routing
// plane). It reports whether the frame was put on a backbone link; false
// sends the client the usual unknown-session reject. The frame is only
// valid for the duration of the call — implementations must copy or
// marshal it before returning.
type Forwarder interface {
	ForwardData(f *core.DataFrame) bool
}

// HandoffObserver learns that this server adopted a roaming session whose
// ticket another router issued: prev is the session the ticket resumed
// from, next the freshly derived session, prevRouter the issuer. The
// backbone node routes the transfer to the previous router.
type HandoffObserver interface {
	HandoffAdopted(prev, next core.SessionID, prevRouter string)
}

// backboneHooks bundles the metro-plane callbacks so one atomic pointer
// swap installs both.
type backboneHooks struct {
	forward Forwarder
	observe HandoffObserver
}

// SetBackbone installs the metro-plane hooks. Call before user traffic
// arrives (the backbone node does this at construction); pass nils to
// detach.
func (s *Server) SetBackbone(fw Forwarder, obs HandoffObserver) {
	if fw == nil && obs == nil {
		s.backbone.Store(nil)
		return
	}
	s.backbone.Store(&backboneHooks{forward: fw, observe: obs})
}

// BootEpoch returns this server incarnation's boot epoch.
func (s *Server) BootEpoch() uint64 { return s.cfg.BootEpoch }

// Addr returns the server's listen address.
func (s *Server) Addr() net.Addr { return s.conns[0].LocalAddr() }

// Shards returns how many read loops are serving.
func (s *Server) Shards() int { return int(s.stats.shards.Load()) }

// TicketKeys returns the STEK ring (for rotation by the operator loop).
func (s *Server) TicketKeys() *symcrypto.TicketKeyRing { return s.tickets }

// Stats returns the transport counters.
func (s *Server) Stats() *Stats {
	s.stats.replyCacheSize.Store(s.replies.Len())
	return s.stats
}

// Router returns the served router (for RouterStats reporting).
func (s *Server) Router() *core.MeshRouter { return s.router }

// Close stops the read loops, drains the ingest queue and waits for
// in-flight replies.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	for _, conn := range s.conns {
		_ = conn.Close()
	}
	close(s.dosStop)
	s.loops.Wait()
	s.queue.Close()
	<-s.admit.drain()
}

// Drain puts the server into graceful shutdown: new handshakes are
// refused with RejectDraining (a transient code — clients back off and
// retry against the replacement) while beacons, keepalives and in-flight
// verifications keep being served. Drain returns once every reply that
// was in flight when draining began has been delivered, or when ctx ends;
// a resume counts as answered once its confirm is flushed and its
// handoff, if it was one, announced to the backbone.
// Call Close afterwards to stop the read loops.
func (s *Server) Drain(ctx context.Context) error {
	select {
	case <-s.admit.drain():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.admit.draining() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// egressFrameSize is the buffer class of the egress frame pool — large
// enough for sealed replies on the steady-state data path; oversize
// payloads grow the slice (one allocation) and the grown buffer is
// retired on release.
const egressFrameSize = 2048

// shardLoop is one driver's private state: the coalescing egress its
// replies leave through, and the zero-copy decode/open scratch. A read
// loop owns one; a test drives dispatch with its own over a recording
// batchio.Conn. Nothing here is shared between loops.
type shardLoop struct {
	eg *batchio.Egress

	scratchFrame  core.DataFrame
	scratchResume ResumeRequest
	// scratchTicket and ticketPT are the resume path's opened ticket and
	// its plaintext; what outlives the dispatch is copied out of them.
	scratchTicket Ticket
	ticketPT      []byte
	// pt is the open-plaintext scratch of the data path.
	pt []byte

	// handoffs are the batch's adoptions of sessions another router
	// issued, in dispatch order, and resumes counts the batch's resumes,
	// each still holding its admission. endBatch settles both.
	handoffs []handoff
	resumes  int
}

// handoff is one adoption the backbone has not yet been told of.
type handoff struct {
	prev, next core.SessionID
	prevRouter string
}

// endBatch closes one ingest batch, in order: the batch's replies leave,
// the backbone hears of its handoffs, and its resumes leave admission. So
// sealing and routing an ownership announcement is on no client's round
// trip, and Drain, which waits on admission, returns only once every
// confirm is flushed and every handoff announced.
func (s *Server) endBatch(l *shardLoop) {
	l.eg.Flush()
	if len(l.handoffs) > 0 {
		if hooks := s.backbone.Load(); hooks != nil && hooks.observe != nil {
			for _, h := range l.handoffs {
				hooks.observe.HandoffAdopted(h.prev, h.next, h.prevRouter)
			}
		}
		l.handoffs = l.handoffs[:0]
	}
	for ; l.resumes > 0; l.resumes-- {
		s.admit.leave()
	}
}

// readLoop is one shard's socket reader. Datagrams arrive up to ioBatch
// per recvmmsg into the ring's pooled slots; each slot's bytes and source
// address belong to the ring until the next Prepare, so a handler that
// keeps either copies it. Expensive work (signature verification) happens
// on the ingest queue's drainers, which also answer it; everything else is
// served inline with per-loop scratch state, so the steady-state decode,
// open and sealed-echo paths allocate nothing. The router's clock is read
// once per ingest batch, replies coalesce in the egress and leave in one
// sendmmsg per batch, and the batch's effects on the backbone follow
// (endBatch).
func (s *Server) readLoop(conn net.PacketConn) {
	defer s.loops.Done()
	// Where recvmmsg is missing, Upgrade falls back to one datagram per
	// syscall behind the same interface.
	bc, batched := batchio.Upgrade(conn)
	if batched {
		s.stats.batchedIO.Store(1)
		// Every read of this socket is a recvmmsg into a 64 KiB ingest
		// slot, so the kernel may hand a sender's GSO train over whole;
		// ReadBatch cuts it back into the datagrams dispatch serves.
		batchio.EnableGRO(bc, s.stats.NoteRxSplit)
	}
	ring := batchio.NewRing(ioBatch, s.ingestPool)
	l := &shardLoop{
		// No flush deadline: every frame is queued either by this loop,
		// which flushes after each ingest batch, or by an ingest drainer,
		// which flushes after answering its group.
		eg: batchio.NewEgress(bc, ioBatch, 0, s.framePool, s.noteFlush),
		pt: make([]byte, 0, 65536),
	}
	defer ring.Close()
	defer l.eg.Close()
	for {
		ms := ring.Prepare()
		n, err := bc.ReadBatch(ms)
		if err != nil {
			if s.closed.Load() {
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			s.logf("transport: read: %v", err)
			return
		}
		s.stats.readBatches.Add(1)
		s.stats.readDatagrams.Add(int64(n))
		now := s.router.Now()
		for i := range ms[:n] {
			s.dispatch(l, now, ms[i].Addr, ms[i].Payload())
		}
		s.endBatch(l)
	}
}

// handler serves one frame kind. It reads no clock — now is the driver's
// reading of the router's clock — and writes no socket: replies go to
// the loop's egress, and effects beyond the reply to the loop's batch
// state, which the driver settles with endBatch.
type handler func(s *Server, l *shardLoop, now time.Time, from net.Addr, payload []byte)

// routes is the router's protocol, one row per kind it serves. The two
// handshake kinds, the only ones that can cost a pairing or a ticket
// open, share one gate (handshakeRow.handshake); every other kind
// bypasses it.
var routes = [kindEnd]handler{
	KindBeaconRequest:      (*Server).serveBeacon,
	KindAccessRequest:      accessRow.handshake,
	KindResumeRequest:      resumeRow.handshake,
	KindURLSnapshotRequest: (*Server).serveRevocationFetch,
	KindSessionPing:        (*Server).servePing,
	KindSessionData:        (*Server).serveData,
}

// dispatch is the router's one protocol entry: it decodes one datagram's
// frame and runs its kind's row. Peer AKA, revocation pushes and the
// other kinds with no row are not served on a router socket; they are
// counted and dropped.
func (s *Server) dispatch(l *shardLoop, now time.Time, from net.Addr, datagram []byte) {
	s.stats.bytesIn.Add(int64(len(datagram)))
	kind, payload, err := DecodeFrame(datagram)
	if err != nil {
		s.stats.decodeErrors.Add(1)
		return
	}
	s.stats.framesIn.Add(1)
	if serve := routes[kind]; serve != nil {
		serve(s, l, now, from, payload)
	} else {
		s.stats.unhandled.Add(1)
	}
}

// noteFlush observes one egress batch leaving the socket.
func (s *Server) noteFlush(frames, bytes int) {
	s.stats.framesOut.Add(int64(frames))
	s.stats.bytesOut.Add(int64(bytes))
	s.stats.writeBatches.Add(1)
	s.stats.writeDatagrams.Add(int64(frames))
}

// gateView is a handshake datagram as far as the gate reads it: the
// exchange's dedup identifier and its puzzle answer.
type gateView struct {
	sid         core.SessionID
	hasSolution bool
	issuedAt    time.Time
	difficulty  uint8
	solution    uint64
}

// handshakeRow is one handshake kind behind the gate.
type handshakeRow struct {
	// view parses what the gate reads. For an access request that is the
	// skeleton, no curve point decoded; for a resume it is the whole
	// zero-copy decode into the loop's scratch.
	view func(l *shardLoop, payload []byte) (gateView, error)
	// decode finishes an access request's parse once its puzzle answer
	// has passed (curve points and group signature); nil for a resume.
	decode func(payload []byte) (*core.AccessRequest, error)
	// serve answers an admitted first sighting. It holds the admission
	// the gate took until the exchange is answered: an access request
	// leaves it once the drainer that verified it has flushed its reply,
	// a resume at endBatch.
	serve func(s *Server, l *shardLoop, now time.Time, from net.Addr, sid core.SessionID, m2 *core.AccessRequest)
}

var accessRow = &handshakeRow{
	view: func(_ *shardLoop, payload []byte) (gateView, error) {
		p, err := core.PeekAccessRequest(payload)
		if err != nil {
			return gateView{}, err
		}
		return gateView{
			sid:         core.SessionIDFromRaw(p.RawGR, p.RawGJ),
			hasSolution: p.HasSolution,
			issuedAt:    p.PuzzleIssuedAt,
			difficulty:  p.PuzzleDifficulty,
			solution:    p.Solution,
		}, nil
	},
	// The decoded message owns its memory (fresh curve points and copied
	// byte fields), so the slot can be reused immediately.
	decode: core.UnmarshalAccessRequest,
	serve:  (*Server).serveAccess,
}

var resumeRow = &handshakeRow{
	// The resume is decoded zero-copy into the loop's scratch: it is
	// served before dispatch returns, and the slot stays untouched until
	// the next Prepare.
	view: func(l *shardLoop, payload []byte) (gateView, error) {
		req := &l.scratchResume
		if err := UnmarshalResumeRequestInto(payload, req); err != nil {
			return gateView{}, err
		}
		return gateView{
			sid:         resumeDedupID(req.Ticket, req.Nonce[:]),
			hasSolution: req.HasSolution,
			issuedAt:    req.PuzzleIssuedAt,
			difficulty:  req.PuzzleDifficulty,
			solution:    req.Solution,
		}, nil
	},
	serve: (*Server).serveResume,
}

// handshake is the gate both handshake kinds pass, in order: the
// per-source rate limit, the count of handshakes past it (the DoS
// sampler's denominator), the puzzle check, and then admission — refused
// while draining — with reply-cache dedup, so an exchange already
// answered is replayed and one in flight is not served twice. Garbage
// shaped like a handshake is the cheap flood the adaptive DoS monitor
// watches for, so it counts as failure evidence.
func (row *handshakeRow) handshake(s *Server, l *shardLoop, now time.Time, from net.Addr, payload []byte) {
	if s.limiter != nil && !s.limiter.allow(now, from) {
		s.stats.ratelimitDropped.Add(1)
		return
	}
	s.handshakesSeen.Add(1)
	v, err := row.view(l, payload)
	if err == nil && !s.puzzleGate(l, from, &v) {
		return
	}
	var m2 *core.AccessRequest
	if err == nil && row.decode != nil {
		m2, err = row.decode(payload)
	}
	if err != nil {
		s.stats.decodeErrors.Add(1)
		s.router.RecordDoSFailure()
		return
	}
	if !s.admit.enter() {
		// Refuse new work during graceful shutdown, but keep replaying
		// cached replies so a client whose reply was lost right before
		// the drain still completes.
		if frame, ok := s.replies.lookup(v.sid); ok && frame != nil {
			s.stats.duplicates.Add(1)
			l.eg.Queue(frame, from)
			return
		}
		s.reject(l.eg, from, v.sid, RejectDraining, "server draining", false)
		return
	}
	if frame, dup := s.replies.begin(v.sid); dup {
		s.admit.leave()
		s.stats.duplicates.Add(1)
		if frame != nil {
			l.eg.Queue(frame, from)
		}
		return
	}
	row.serve(s, l, now, from, v.sid, m2)
}

// reject builds and queues one Reject. Its code decides the side
// effects: RejectPuzzle carries the router's current challenge, so the
// client can solve and retry without a new beacon, and counts in the
// dos_puzzles ledger; RejectPuzzle and RejectTicket (forged MACs,
// tampered blobs, corrupt escrow) are failure evidence for the adaptive
// DoS monitor, while stale-epoch and draining refusals are normal
// operation. The caller decides whether the reject is the exchange's
// cached answer, replayed to a retransmit. Gate refusals are not cached:
// letting a flood of spoofed sessions churn the cache would hand the
// attacker a second target.
func (s *Server) reject(eg *batchio.Egress, to net.Addr, sid core.SessionID, code RejectCode, reason string, cache bool) {
	rej := &Reject{Session: sid, Code: code, Reason: reason}
	switch code {
	case RejectPuzzle:
		s.stats.dosPuzzlesRejected.Add(1)
		s.router.RecordDoSFailure()
		if rej.Puzzle = s.router.CurrentPuzzle(); rej.Puzzle != nil {
			s.stats.dosPuzzlesIssued.Add(1)
		}
	case RejectTicket:
		s.router.RecordDoSFailure()
		s.stats.resumeRejects.Add(1)
	case RejectTicketStale:
		s.stats.resumeRejects.Add(1)
	case RejectDraining:
		s.stats.drainRejects.Add(1)
	case RejectRevoked:
		s.stats.revRejects.Add(1)
	case RejectUnknownSession:
		s.stats.unknownSessionRejects.Add(1)
	}
	s.stats.rejects.Add(1)
	frame, err := EncodeMessage(rej)
	if err != nil {
		s.logf("transport: encode reject: %v", err)
		return
	}
	if cache {
		s.replies.fulfill(sid, frame)
	}
	eg.Queue(frame, to)
}

// serveBeacon answers a beacon solicitation from the cached frame,
// regenerating it when the refresh period elapsed and retiring DH shares
// that fall out of the history window.
func (s *Server) serveBeacon(l *shardLoop, now time.Time, from net.Addr, _ []byte) {
	s.beaconMu.Lock()
	if s.beaconFrame == nil || now.Sub(s.beaconAt) >= beaconRefresh {
		b, err := s.router.Beacon()
		if err != nil {
			s.beaconMu.Unlock()
			s.logf("transport: beacon: %v", err)
			return
		}
		frame, err := EncodeMessage(b)
		if err != nil {
			s.beaconMu.Unlock()
			s.logf("transport: encode beacon: %v", err)
			return
		}
		s.beaconFrame = frame
		s.beaconAt = now
		s.beaconGRs = append(s.beaconGRs, b.GR)
		for len(s.beaconGRs) > beaconHistory {
			s.router.RetireBeacon(s.beaconGRs[0])
			s.beaconGRs = s.beaconGRs[1:]
		}
	}
	frame := s.beaconFrame
	s.beaconMu.Unlock()
	l.eg.Queue(frame, from)
}

// revFrameCache holds encoded frames of one list's current revocation
// state so a flash crowd of converging clients is served without
// re-marshaling per request. Delta frames are bounded (FIFO) so a long
// epoch with many distinct client states cannot grow it without limit.
type revFrameCache struct {
	epoch      uint64
	snapFrame  []byte
	deltas     map[uint64][]byte // keyed by from-epoch
	deltaOrder []uint64
}

// serveRevocationFetch answers a RevocationFetch: a delta from the
// client's epoch when the router's bounded history still covers it, the
// full snapshot otherwise.
func (s *Server) serveRevocationFetch(l *shardLoop, _ time.Time, from net.Addr, payload []byte) {
	f, err := UnmarshalRevocationFetch(payload)
	if err != nil {
		s.stats.decodeErrors.Add(1)
		return
	}
	snap, ok := s.router.RevocationSnapshot(f.List)
	if !ok {
		s.stats.unhandled.Add(1)
		return
	}

	s.revMu.Lock()
	c := s.revCache[f.List]
	if c == nil || c.epoch != snap.Epoch {
		if c != nil {
			s.stats.deltaCacheFrames.Add(-int64(len(c.deltas)))
		}
		c = &revFrameCache{epoch: snap.Epoch, deltas: make(map[uint64][]byte)}
		s.revCache[f.List] = c
	}
	var frame []byte
	var isDelta bool
	if f.Have && f.HaveEpoch < snap.Epoch {
		if cached, ok := c.deltas[f.HaveEpoch]; ok {
			frame, isDelta = cached, true
		} else if d, ok := s.router.RevocationDelta(f.List, f.HaveEpoch); ok {
			if enc, err := EncodeMessage(d); err == nil {
				c.deltas[f.HaveEpoch] = enc
				c.deltaOrder = append(c.deltaOrder, f.HaveEpoch)
				evicted := 0
				for len(c.deltaOrder) > deltaCacheSize {
					delete(c.deltas, c.deltaOrder[0])
					c.deltaOrder = c.deltaOrder[1:]
					evicted++
				}
				s.stats.deltaCacheFrames.Add(int64(1 - evicted))
				frame, isDelta = enc, true
			}
		}
	}
	if frame == nil {
		if c.snapFrame == nil {
			enc, err := EncodeMessage(snap)
			if err != nil {
				s.revMu.Unlock()
				s.logf("transport: encode snapshot: %v", err)
				return
			}
			c.snapFrame = enc
		}
		frame = c.snapFrame
	}
	s.revMu.Unlock()

	if isDelta {
		s.stats.revDeltaFetches.Add(1)
	} else {
		s.stats.revSnapshotFetches.Add(1)
	}
	s.stats.setEpochs(s.router.RevocationEpoch(revocation.ListURL), s.router.RevocationEpoch(revocation.ListCRL))
	l.eg.Queue(frame, from)
}

// InvalidateBeacon drops the cached beacon frame so the next solicitation
// gets a fresh one — call after pushing new revocation state to the
// router, whose refs the cached beacon no longer advertises.
func (s *Server) InvalidateBeacon() {
	s.beaconMu.Lock()
	s.beaconFrame = nil
	s.beaconMu.Unlock()
	s.stats.setEpochs(s.router.RevocationEpoch(revocation.ListURL), s.router.RevocationEpoch(revocation.ListCRL))
}

// issueTicket seals a resumption ticket for an established session: the
// resumption secret both endpoints derive, the current revocation epochs
// (the ticket dies when either list moves), and the session's original
// M.2 as accountability escrow. It expires ticketLifetime after now. The
// blob comes behind gap free bytes (Ticket.sealAfter).
func (s *Server) issueTicket(sess *core.Session, escrow []byte, now time.Time, gap int) ([]byte, error) {
	if s.tickets == nil {
		return nil, fmt.Errorf("transport: no ticket keys")
	}
	t := &Ticket{
		Prev:      sess.ID,
		Router:    s.router.ID(),
		URLEpoch:  s.router.RevocationEpoch(revocation.ListURL),
		CRLEpoch:  s.router.RevocationEpoch(revocation.ListCRL),
		BootEpoch: s.cfg.BootEpoch,
		Expiry:    now.Add(ticketLifetime),
		Escrow:    escrow,
	}
	copy(t.Secret[:], sess.ResumptionSecret())
	return t.sealAfter(rand.Reader, s.tickets, gap)
}

// accessReply is the ingest queue's tag of an M.2: its exchange, the
// egress of the shard loop it arrived on, and the sender's address, held
// by value because the read slot's is reused by the next batch.
type accessReply struct {
	sid core.SessionID
	eg  *batchio.Egress
	// A UDP sender is to (port and zone) and ip[:iplen] (its IP's bytes);
	// addr points to.IP at those bytes when the reply is queued. Any
	// other sender is other, kept as given.
	to    net.UDPAddr
	ip    [16]byte
	iplen uint8
	other net.Addr
}

func newAccessReply(sid core.SessionID, eg *batchio.Egress, from net.Addr) accessReply {
	r := accessReply{sid: sid, eg: eg}
	if ua, ok := from.(*net.UDPAddr); ok {
		r.to.Port, r.to.Zone = ua.Port, ua.Zone
		r.iplen = uint8(copy(r.ip[:], ua.IP))
	} else {
		r.other = from
	}
	return r
}

// addr returns the sender's address, which aliases r.
func (r *accessReply) addr() net.Addr {
	if r.other != nil {
		return r.other
	}
	r.to.IP = r.ip[:r.iplen]
	return &r.to
}

// serveAccess submits an admitted M.2 to the ingest queue, which answers
// it from a drainer (answerAccess). Shed under overload, it is refused at
// once.
func (s *Server) serveAccess(l *shardLoop, _ time.Time, from net.Addr, sid core.SessionID, m *core.AccessRequest) {
	if err := s.queue.Submit(m, newAccessReply(sid, l.eg, from)); err != nil {
		// Forget the session so a later retry can be admitted once the
		// queue drains.
		s.admit.leave()
		s.stats.queueDrops.Add(1)
		s.replies.forget(sid)
		s.reject(l.eg, from, sid, rejectCodeFor(err), err.Error(), false)
	}
}

// answerAccess is the ingest queue's answer: a drainer calls it once per
// group it verified, tags[i] naming where out[i] goes. Every reply (confirm
// or reject) is cached, so a retransmitted request — the client's recovery
// from a lost M.3 — is answered by replay, never by a second verification;
// a confirm carries a freshly sealed resumption ticket, issued on the
// router's clock when the verification finished. M.3 travels in the clear,
// and the ticket's STEK blob is the clear Ticket of the client's next
// ResumeRequest, so the blob is sealed once more, under the new session as
// its first data sequence number (0), where the client opens it: the attach
// and the resume that follows share no bytes on the path. The group's replies leave
// in one flush per egress they were queued on (nothing else would send
// them: a read loop flushes only after a datagram arrives), and only then
// do the requests leave admission, so Drain waits for every flushed reply.
func (s *Server) answerAccess(tags []accessReply, out []core.AccessResult) {
	now := s.router.Now()
	for i := range tags {
		t, res := &tags[i], &out[i]
		if res.Err != nil {
			s.reject(t.eg, t.addr(), t.sid, rejectCodeFor(res.Err), res.Err.Error(), true)
			continue
		}
		if tk, err := s.issueTicket(res.Session, res.Escrow, now, symcrypto.GCMNonceSize); err == nil {
			if tk, err = res.Session.SealInPlace(tk); err == nil {
				res.Confirm.Ticket = tk
				s.stats.ticketsIssued.Add(1)
			}
		}
		frame, err := EncodeMessage(res.Confirm)
		if err != nil {
			s.replies.forget(t.sid)
			s.logf("transport: encode reply: %v", err)
			continue
		}
		s.replies.fulfill(t.sid, frame)
		t.eg.Queue(frame, t.addr())
	}
	for i := range tags {
		if !slices.ContainsFunc(tags[:i], func(o accessReply) bool { return o.eg == tags[i].eg }) {
			tags[i].eg.Flush()
		}
	}
	for range tags {
		s.admit.leave()
	}
}

// serveResume serves the symmetric-only re-attach path inline — no
// pairing, no group signature, no queue. The checks run cheapest first;
// any refusal is the exchange's cached answer, and its code tells the
// client whether to retry (transient) or fall back to the full
// handshake. A served handoff is adopted and logged before its confirm
// is built, and announced to the backbone by endBatch once the confirm
// has left; the admission is left there too.
func (s *Server) serveResume(l *shardLoop, now time.Time, from net.Addr, sid core.SessionID, _ *core.AccessRequest) {
	l.resumes++
	req := &l.scratchResume
	if s.tickets == nil {
		s.reject(l.eg, from, sid, RejectTicket, "resumption not offered", true)
		return
	}
	t := &l.scratchTicket
	pt, err := openTicketInto(req.Ticket, s.tickets, t, l.ticketPT)
	l.ticketPT = pt
	if err != nil {
		// Rotated-out STEK generation and tampered blobs land here alike;
		// either way the full handshake is the only path forward.
		s.reject(l.eg, from, sid, RejectTicket, "ticket unusable", true)
		return
	}
	if now.After(t.Expiry) {
		s.reject(l.eg, from, sid, RejectTicket, "ticket expired", true)
		return
	}
	// Revocation freshness: the ticket pins the epochs its holder was
	// verified against. Any movement of either list since issuance might
	// have revoked the holder, so the cheap path is refused wholesale and
	// the client re-proves membership via M.1–M.3 (which also re-syncs its
	// own revocation state in Phase 1.5).
	if t.URLEpoch != s.router.RevocationEpoch(revocation.ListURL) ||
		t.CRLEpoch != s.router.RevocationEpoch(revocation.ListCRL) {
		s.reject(l.eg, from, sid, RejectTicketStale, "revocation epochs moved since issuance", true)
		return
	}
	if err := req.verify(t.Secret[:]); err != nil {
		s.reject(l.eg, from, sid, RejectTicket, "resume MAC invalid", true)
		return
	}
	// Beyond the freshness window, a replayed request whose reply-cache
	// entry was evicted is refused instead of minting yet another session.
	if d, w := now.Sub(req.Timestamp), s.router.FreshnessWindow(); d > w || d < -w {
		s.reject(l.eg, from, sid, RejectTicket, "resume timestamp stale", true)
		return
	}
	if err := core.CheckAccessRequest(t.Escrow); err != nil {
		s.reject(l.eg, from, sid, RejectTicket, "ticket escrow corrupt", true)
		return
	}
	// The network log keeps the escrow, so it leaves the ticket plaintext
	// (which holds the resumption secret) as a copy of its exact length.
	escrow := make([]byte, len(t.Escrow))
	copy(escrow, t.Escrow)

	var serverNonce [ResumeNonceSize]byte
	if _, err := rand.Read(serverNonce[:]); err != nil {
		s.replies.forget(sid)
		s.logf("transport: resume nonce: %v", err)
		return
	}
	sess := core.ResumeSession(t.Prev, t.Secret[:], req.Nonce[:], serverNonce[:], "user", now)
	s.router.AdoptResumedSession(sess, escrow)
	// A ticket another router of this NO issued means the user roamed.
	roamed := t.Router != "" && t.Router != s.router.ID()
	if roamed {
		s.stats.handoffsIn.Add(1)
	}

	newTicket, err := s.issueTicket(sess, escrow, now, 0)
	if err != nil {
		s.replies.forget(sid)
		s.logf("transport: reissue ticket: %v", err)
		return
	}
	body := resumeOK{RouterID: s.router.ID(), BootEpoch: s.cfg.BootEpoch, Nonce: req.Nonce, Ticket: newTicket}
	frame, err := encodeResumeConfirm(sess, sid, &serverNonce, &body)
	if err != nil {
		s.replies.forget(sid)
		s.logf("transport: encode resume confirm: %v", err)
		return
	}
	s.stats.resumesServed.Add(1)
	s.stats.ticketsIssued.Add(1)
	s.replies.fulfill(sid, frame)
	l.eg.Queue(frame, from)
	// The ownership transfer (so the previous router forwards in-flight
	// frames) is recorded only with the confirm cached and queued, so a
	// request whose confirm could not be built announces nothing.
	if roamed {
		l.handoffs = append(l.handoffs, handoff{prev: t.Prev, next: sess.ID, prevRouter: t.Router})
	}
}

// servePing answers a keepalive ping. Only a server that still holds the
// session can decrypt the ping and seal a pong, so the pong is proof of
// liveness; a rebooted server answers RejectUnknownSession — the
// unauthenticated hint clients confirm against the signed beacon epoch.
func (s *Server) servePing(l *shardLoop, _ time.Time, from net.Addr, payload []byte) {
	f := &l.scratchFrame
	if err := core.UnmarshalDataFrameInto(payload, f); err != nil {
		s.stats.decodeErrors.Add(1)
		return
	}
	sess, ok := s.router.SessionByID(f.Session)
	if !ok {
		s.reject(l.eg, from, f.Session, RejectUnknownSession, "no such session", false)
		return
	}
	body, err := sess.OpenDataInto(f, l.pt[:0])
	if err != nil {
		// Forged, corrupted or replayed (duplicated) ping; the next round's
		// ping carries a fresh sequence number, so dropping it is safe.
		s.stats.decodeErrors.Add(1)
		return
	}
	var ping PingBody
	if err := ping.unmarshal(body); err != nil {
		s.stats.decodeErrors.Add(1)
		return
	}
	pong := PongBody{Nonce: ping.Nonce, BootEpoch: s.cfg.BootEpoch}
	pt := pong.appendTo(body[:0])
	l.pt = pt[:0]
	s.stats.keepalivesServed.Add(1)
	s.sealTo(l, sess, KindSessionPong, pt, from)
}

// serveData delivers one frame of established-session user traffic. A
// session this router holds is opened and counted locally; a session it
// does not hold is offered to the backbone forwarder — during the roaming
// grace window the old router still receives in-flight frames and relays
// them to the adopting router instead of rejecting them.
func (s *Server) serveData(l *shardLoop, _ time.Time, from net.Addr, payload []byte) {
	f := &l.scratchFrame
	if err := core.UnmarshalDataFrameInto(payload, f); err != nil {
		s.stats.decodeErrors.Add(1)
		return
	}
	if sess, ok := s.router.SessionByID(f.Session); ok {
		pt, err := sess.OpenDataInto(f, l.pt[:0])
		if err != nil {
			s.stats.decodeErrors.Add(1)
			return
		}
		l.pt = pt[:0]
		s.stats.dataDelivered.Add(1)
		s.stats.dataBytes.Add(int64(len(pt)))
		if s.cfg.EchoData {
			s.sealTo(l, sess, KindSessionData, pt, from)
		}
		return
	}
	if hooks := s.backbone.Load(); hooks != nil && hooks.forward != nil {
		if hooks.forward.ForwardData(f) {
			return
		}
	}
	s.reject(l.eg, from, f.Session, RejectUnknownSession, "no such session", false)
}

// sealTo seals pt under sess as a frame of kind into a pooled egress
// buffer, queued for addr: header first (the sealed size is
// deterministic), then AppendSealedData in place — no intermediate frame,
// no copy, zero allocations in steady state. It answers an echoed data
// frame and a keepalive ping.
func (s *Server) sealTo(l *shardLoop, sess *core.Session, kind Kind, pt []byte, addr net.Addr) {
	b := l.eg.Buffer()
	var err error
	if b.B, err = AppendFrameHeader(b.B, kind, core.SealedDataLen(len(pt))); err == nil {
		b.B, err = sess.AppendSealedData(b.B, pt)
	}
	if err != nil {
		b.Release()
		s.logf("transport: seal %v: %v", kind, err)
		return
	}
	l.eg.QueueBuf(b, addr)
}

// String describes the server for logs.
func (s *Server) String() string {
	return fmt.Sprintf("transport.Server(%s on %v)", s.router.ID(), s.Addr())
}
