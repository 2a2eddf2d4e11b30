package transport

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
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
	// BeaconRefresh is how long a cached beacon frame is served before a
	// fresh one is generated (the unicast analogue of the broadcast
	// beacon period). Default 1s.
	BeaconRefresh time.Duration
	// BeaconHistory is how many recent beacons stay acceptable: clients
	// holding a slightly stale beacon can still complete the handshake
	// while older DH shares are retired. Default 16.
	BeaconHistory int
	// QueueCapacity bounds the ingest queue (backpressure under
	// overload). Default 1024.
	QueueCapacity int
	// ReplyCacheSize bounds the duplicate-suppression cache of answered
	// exchanges (striped FIFO eviction). Default 4096.
	ReplyCacheSize int
	// DeltaCacheSize bounds, per revocation list, how many encoded delta
	// frames stay cached for the current epoch (FIFO eviction). Default 64.
	DeltaCacheSize int
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
	// TicketLifetime bounds how long an issued ticket resumes. Default 10m.
	TicketLifetime time.Duration
	// TicketFreshness bounds the age of a resume request's timestamp —
	// beyond it, replayed requests whose reply-cache entry was evicted are
	// refused instead of minting yet another session. Default 30s.
	TicketFreshness time.Duration
	// IOBatch is how many datagrams one recvmmsg/sendmmsg moves per
	// syscall on each shard loop (and the egress coalescing width).
	// 1 forces the portable single-datagram path — the unbatched
	// baseline E18 compares against. Default 32.
	IOBatch int
	// EchoData makes the server seal each delivered data-frame payload
	// back to its sender — the application-level echo sink E18 and the
	// data-plane drills measure round trips against.
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
	// DoSSampleInterval paces the load sampler that feeds the router's
	// adaptive puzzle-difficulty controller (queue depth, limiter drops,
	// admitted handshakes) and mirrors its state into the dos_* gauges.
	// The sampler always runs — it is a no-op unless the router has a
	// DoSPolicy installed. Default 250ms.
	DoSSampleInterval time.Duration
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...any)
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.BeaconRefresh <= 0 {
		c.BeaconRefresh = time.Second
	}
	if c.BeaconHistory < 1 {
		c.BeaconHistory = 16
	}
	if c.QueueCapacity < 1 {
		c.QueueCapacity = 1024
	}
	if c.ReplyCacheSize < 1 {
		c.ReplyCacheSize = 4096
	}
	if c.DeltaCacheSize < 1 {
		c.DeltaCacheSize = 64
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.TicketLifetime <= 0 {
		c.TicketLifetime = 10 * time.Minute
	}
	if c.TicketFreshness <= 0 {
		c.TicketFreshness = 30 * time.Second
	}
	if c.IOBatch < 1 {
		c.IOBatch = 32
	}
	if c.DoSSampleInterval <= 0 {
		c.DoSSampleInterval = 250 * time.Millisecond
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
	queue   *core.IngestQueue
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
	// denominator in the controller's load samples. dosStop ends the
	// sampler loop at Close.
	dosReplay      *solutionReplayTable
	handshakesSeen atomic.Int64
	dosStop        chan struct{}

	// ingestPool backs the read rings (full-datagram buffers); framePool
	// backs pooled egress frames (replies sealed in place). Both are
	// leak-checked: every Get has an owner responsible for Release.
	ingestPool *batchio.Pool
	framePool  *batchio.Pool

	// backbone holds the metro-plane hooks, installed by the backbone
	// node after construction (atomically, so the read loops never lock).
	backbone atomic.Pointer[backboneHooks]

	draining atomic.Bool
	closed   atomic.Bool

	// revMu guards the per-list caches of encoded revocation frames: the
	// current snapshot frame plus a bounded set of delta frames keyed by
	// from-epoch, all invalidated when the router's installed epoch moves.
	revMu    sync.Mutex
	revCache map[revocation.List]*revFrameCache

	wg    sync.WaitGroup // in-flight reply goroutines
	loops sync.WaitGroup // shard read loops
}

// NewServer starts serving router on conn. With cfg.Shards > 1, that many
// read loops share the one socket (userspace demux); use NewShardedServer
// with ListenShards sockets for kernel-demuxed SO_REUSEPORT sharding.
// Close the server (not the conn) to shut down.
func NewServer(conn net.PacketConn, router *core.MeshRouter, cfg ServerConfig) *Server {
	return newServer([]net.PacketConn{conn}, router, cfg)
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
	return newServer(conns, router, cfg)
}

func newServer(conns []net.PacketConn, router *core.MeshRouter, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		conns:      conns,
		router:     router,
		queue:      core.NewIngestQueue(router, cfg.QueueCapacity),
		stats:      NewStats(cfg.Metrics),
		tickets:    cfg.TicketKeys,
		replies:    newReplyCache(cfg.ReplyCacheSize),
		revCache:   make(map[revocation.List]*revFrameCache),
		ingestPool: batchio.NewPool(65536),
		framePool:  batchio.NewPool(egressFrameSize),
		dosReplay:  newSolutionReplayTable(dosReplayCap),
		dosStop:    make(chan struct{}),
	}
	if cfg.RateLimitPerSec > 0 {
		burst := cfg.RateLimitBurst
		if burst <= 0 {
			burst = int(2 * cfg.RateLimitPerSec)
		}
		s.limiter = newRateLimiter(cfg.RateLimitPerSec, burst, nil)
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

	// One loop per socket; a single socket gets cfg.Shards loops instead.
	nloops := len(conns)
	if nloops == 1 && cfg.Shards > 1 {
		nloops = cfg.Shards
	}
	s.stats.shards.Store(int64(nloops))
	for i := 0; i < nloops; i++ {
		conn := conns[i%len(conns)]
		s.loops.Add(1)
		go s.readLoop(conn)
	}
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
// backbone node announces the transfer on the gossip plane.
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
	s.wg.Wait()
}

// Drain puts the server into graceful shutdown: new access requests are
// refused with RejectDraining (a transient code — clients back off and
// retry against the replacement) while beacons, keepalives and in-flight
// verifications keep being served. Drain returns once every reply that
// was in flight when draining began has been delivered, or when ctx ends.
// Call Close afterwards to stop the read loops.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

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

// shardLoop is one read loop's private state: the batch conn, its ring
// of pooled ingest slots, the coalescing egress, and the zero-copy
// decode/open scratch. Nothing here is shared between loops.
type shardLoop struct {
	bc   batchio.Conn
	ring *batchio.Ring
	eg   *batchio.Egress

	scratchFrame  core.DataFrame
	scratchResume ResumeRequest
	// pt is the open-plaintext scratch of the data path.
	pt []byte
}

// readLoop is one shard's socket reader. Datagrams arrive up to IOBatch
// per recvmmsg into the ring's pooled slots; each slot's bytes belong to
// the ring until the next Prepare, and a handler that must keep them
// longer takes explicit ownership (Ring.Retain / clone) — there is no
// implicit "finish before the next read reuses buf" contract anymore.
// Expensive work (signature verification) happens on the ingest queue's
// drainers and the per-reply goroutines; resumes, keepalives, and data
// frames are symmetric-crypto cheap and are served inline with per-loop
// scratch state, so the steady-state decode, open, and sealed-echo paths
// allocate nothing. Replies coalesce in the egress and leave in one
// sendmmsg per ingest batch.
func (s *Server) readLoop(conn net.PacketConn) {
	defer s.loops.Done()
	var bc batchio.Conn
	if s.cfg.IOBatch > 1 {
		var batched bool
		bc, batched = batchio.Upgrade(conn)
		if batched {
			s.stats.batchedIO.Store(1)
		}
	} else {
		bc = batchio.Single(conn)
	}
	l := &shardLoop{
		bc:   bc,
		ring: batchio.NewRing(s.cfg.IOBatch, s.ingestPool),
		// No flush deadline: every frame is queued either by this loop,
		// which flushes after each ingest batch, or by an access-request
		// reply goroutine, which flushes what it queued.
		eg: batchio.NewEgress(bc, s.cfg.IOBatch, 0, s.framePool, s.noteFlush),
		pt: make([]byte, 0, 65536),
	}
	defer l.ring.Close()
	defer l.eg.Close()
	for {
		ms := l.ring.Prepare()
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
		for i := 0; i < n; i++ {
			s.dispatch(l, &ms[i])
		}
		l.eg.Flush()
	}
}

// dispatch decodes and serves one ingest slot.
func (s *Server) dispatch(l *shardLoop, m *batchio.Message) {
	s.stats.bytesIn.Add(int64(m.N))
	kind, payload, err := DecodeFrame(m.Payload())
	if err != nil {
		s.stats.decodeErrors.Add(1)
		return
	}
	s.stats.framesIn.Add(1)
	addr := m.Addr
	switch kind {
	case KindBeaconRequest:
		s.sendBeacon(l, addr)
	case KindAccessRequest:
		if s.limiter != nil && !s.limiter.allow(addr) {
			s.stats.ratelimitDropped.Add(1)
			return
		}
		s.handshakesSeen.Add(1)
		// Puzzle gate before the decode: while defense is active,
		// solution-less and wrongly solved datagrams are refused off the
		// raw bytes, so a flood never buys curve work (dosgate.go).
		if !s.gateAccessRequest(l, payload, addr) {
			return
		}
		// The decoded message owns its memory (fresh curve points and
		// copied byte fields), so the slot can be reused immediately.
		req, err := core.UnmarshalAccessRequest(payload)
		if err != nil {
			// Garbage shaped like an access request is exactly the cheap
			// flood the adaptive monitor watches for.
			s.stats.decodeErrors.Add(1)
			s.router.RecordDoSFailure()
			return
		}
		s.handleAccessRequest(l, req, addr)
	case KindResumeRequest:
		if s.limiter != nil && !s.limiter.allow(addr) {
			s.stats.ratelimitDropped.Add(1)
			return
		}
		s.handshakesSeen.Add(1)
		// Zero-copy decode into per-loop scratch: the handler finishes
		// with the request before this dispatch returns, and the slot
		// stays untouched until the next Prepare.
		if err := UnmarshalResumeRequestInto(payload, &l.scratchResume); err != nil {
			s.stats.decodeErrors.Add(1)
			s.router.RecordDoSFailure()
			return
		}
		if !s.gateResumeRequest(l, &l.scratchResume, addr) {
			return
		}
		s.handleResumeRequest(l, &l.scratchResume, addr)
	case KindURLSnapshotRequest:
		f, err := UnmarshalRevocationFetch(payload)
		if err != nil {
			s.stats.decodeErrors.Add(1)
			return
		}
		s.handleRevocationFetch(l, f, addr)
	case KindSessionPing:
		if err := core.UnmarshalDataFrameInto(payload, &l.scratchFrame); err != nil {
			s.stats.decodeErrors.Add(1)
			return
		}
		s.handleSessionPing(l, &l.scratchFrame, addr)
	case KindSessionData:
		if err := core.UnmarshalDataFrameInto(payload, &l.scratchFrame); err != nil {
			s.stats.decodeErrors.Add(1)
			return
		}
		s.handleSessionData(l, &l.scratchFrame, addr)
	default:
		// Peer AKA, URL/CRL pushes etc. are not served on a router
		// socket; count and drop.
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

// sendBeacon answers a beacon solicitation from the cached frame,
// regenerating it when the refresh period elapsed and retiring DH shares
// that fall out of the history window.
func (s *Server) sendBeacon(l *shardLoop, addr net.Addr) {
	now := time.Now()
	s.beaconMu.Lock()
	if s.beaconFrame == nil || now.Sub(s.beaconAt) >= s.cfg.BeaconRefresh {
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
		for len(s.beaconGRs) > s.cfg.BeaconHistory {
			s.router.RetireBeacon(s.beaconGRs[0])
			s.beaconGRs = s.beaconGRs[1:]
		}
	}
	frame := s.beaconFrame
	s.beaconMu.Unlock()
	l.eg.Queue(frame, addr)
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

// handleRevocationFetch answers a RevocationFetch: a delta from the
// client's epoch when the router's bounded history still covers it, the
// full snapshot otherwise.
func (s *Server) handleRevocationFetch(l *shardLoop, f *RevocationFetch, addr net.Addr) {
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
				for len(c.deltaOrder) > s.cfg.DeltaCacheSize {
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
	l.eg.Queue(frame, addr)
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
// M.2 as accountability escrow.
func (s *Server) issueTicket(sess *core.Session, escrow []byte) ([]byte, error) {
	if s.tickets == nil {
		return nil, fmt.Errorf("transport: no ticket keys")
	}
	t := &Ticket{
		Prev:      sess.ID,
		Router:    s.router.ID(),
		URLEpoch:  s.router.RevocationEpoch(revocation.ListURL),
		CRLEpoch:  s.router.RevocationEpoch(revocation.ListCRL),
		BootEpoch: s.cfg.BootEpoch,
		Expiry:    time.Now().Add(s.cfg.TicketLifetime),
		Escrow:    escrow,
	}
	copy(t.Secret[:], sess.ResumptionSecret())
	return t.Seal(rand.Reader, s.tickets)
}

// handleAccessRequest dedups by session identifier, then submits to the
// ingest queue; the reply (confirm or reject) is cached so retransmitted
// requests — the client's recovery from a lost M.3 — are answered by
// replay, never by a second verification. Successful confirms carry a
// freshly sealed resumption ticket.
func (s *Server) handleAccessRequest(l *shardLoop, m *core.AccessRequest, addr net.Addr) {
	sid := core.NewSessionID(m.GR, m.GJ)

	if s.draining.Load() {
		// Refuse new work during graceful shutdown — but keep replaying
		// cached replies below so a client whose M.3 was lost right before
		// the drain still completes.
		if frame, ok := s.replies.lookup(sid); !ok || frame == nil {
			s.stats.drainRejects.Add(1)
			s.sendRejectCode(l, addr, sid, RejectDraining, "server draining")
			return
		}
	}
	if frame, dup := s.replies.begin(sid); dup {
		s.stats.duplicates.Add(1)
		if frame != nil {
			l.eg.Queue(frame, addr)
		}
		return
	}

	ch, err := s.queue.Submit(m)
	if err != nil {
		// Shed under overload; forget the session so a later retry can be
		// admitted once the queue drains.
		s.stats.queueDrops.Add(1)
		s.replies.forget(sid)
		s.sendReject(l, addr, sid, err)
		return
	}
	// The reply goroutine outlives this dispatch, so the read-slot address
	// must be cloned before the slot is reused by the next batch.
	addr = batchio.CloneAddr(addr)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		res := <-ch
		var frame []byte
		if res.Err != nil {
			code := rejectCodeFor(res.Err)
			rej := &Reject{Session: sid, Code: code, Reason: res.Err.Error()}
			frame, err = EncodeMessage(rej)
			s.stats.rejects.Add(1)
			if code == RejectRevoked {
				s.stats.revRejects.Add(1)
			}
		} else {
			if tk, terr := s.issueTicket(res.Session, m.Marshal()); terr == nil {
				res.Confirm.Ticket = tk
				s.stats.ticketsIssued.Add(1)
			}
			frame, err = EncodeMessage(res.Confirm)
		}
		if err != nil {
			s.logf("transport: encode reply: %v", err)
			return
		}
		s.replies.fulfill(sid, frame)
		// This goroutine is the one producer outside the read loop, and
		// nothing else will send the frame for it: the loop flushes only
		// after a datagram arrives, and a sub-millisecond timer in an idle
		// process fires a millisecond late (epoll_wait's granularity).
		l.eg.Queue(frame, addr)
		l.eg.Flush()
	}()
}

// refuseResume rejects one resume exchange and caches the reject so a
// retransmitted request replays it.
func (s *Server) refuseResume(l *shardLoop, addr net.Addr, sid core.SessionID, code RejectCode, reason string) {
	rej := &Reject{Session: sid, Code: code, Reason: reason}
	frame, err := EncodeMessage(rej)
	if err != nil {
		s.logf("transport: encode reject: %v", err)
		return
	}
	// Hard ticket failures (forged MACs, tampered blobs, corrupt escrow)
	// are authentication failures and feed the adaptive DoS monitor;
	// stale-epoch and draining refusals are normal operations and do not.
	if code == RejectTicket {
		s.router.RecordDoSFailure()
	}
	s.stats.rejects.Add(1)
	s.stats.resumeRejects.Add(1)
	s.replies.fulfill(sid, frame)
	l.eg.Queue(frame, addr)
}

// handleResumeRequest serves the symmetric-only re-attach path inline —
// no pairing, no group signature, no queue. The checks run cheapest
// first; any refusal sends a reject whose code tells the client whether
// to retry (transient) or fall back to the full handshake.
func (s *Server) handleResumeRequest(l *shardLoop, req *ResumeRequest, addr net.Addr) {
	sid := resumeDedupID(req.Ticket, req.Nonce[:])

	if s.draining.Load() {
		if frame, ok := s.replies.lookup(sid); !ok || frame == nil {
			s.stats.drainRejects.Add(1)
			s.sendRejectCode(l, addr, sid, RejectDraining, "server draining")
			return
		}
	}
	if frame, dup := s.replies.begin(sid); dup {
		s.stats.duplicates.Add(1)
		if frame != nil {
			l.eg.Queue(frame, addr)
		}
		return
	}

	if s.tickets == nil {
		s.refuseResume(l, addr, sid, RejectTicket, "resumption not offered")
		return
	}
	t, err := OpenTicket(req.Ticket, s.tickets)
	if err != nil {
		// Rotated-out STEK generation and tampered blobs land here alike;
		// either way the full handshake is the only path forward.
		s.refuseResume(l, addr, sid, RejectTicket, "ticket unusable")
		return
	}
	now := time.Now()
	if now.After(t.Expiry) {
		s.refuseResume(l, addr, sid, RejectTicket, "ticket expired")
		return
	}
	// Revocation freshness: the ticket pins the epochs its holder was
	// verified against. Any movement of either list since issuance might
	// have revoked the holder, so the cheap path is refused wholesale and
	// the client re-proves membership via M.1–M.3 (which also re-syncs its
	// own revocation state in Phase 1.5).
	if t.URLEpoch != s.router.RevocationEpoch(revocation.ListURL) ||
		t.CRLEpoch != s.router.RevocationEpoch(revocation.ListCRL) {
		s.refuseResume(l, addr, sid, RejectTicketStale, "revocation epochs moved since issuance")
		return
	}
	if err := req.verify(t.Secret[:]); err != nil {
		s.refuseResume(l, addr, sid, RejectTicket, "resume MAC invalid")
		return
	}
	if d := now.Sub(req.Timestamp); d > s.cfg.TicketFreshness || d < -s.cfg.TicketFreshness {
		s.refuseResume(l, addr, sid, RejectTicket, "resume timestamp stale")
		return
	}
	escrow, err := core.UnmarshalAccessRequest(t.Escrow)
	if err != nil {
		s.refuseResume(l, addr, sid, RejectTicket, "ticket escrow corrupt")
		return
	}

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

	newTicket, err := s.issueTicket(sess, t.Escrow)
	if err != nil {
		s.replies.forget(sid)
		s.logf("transport: reissue ticket: %v", err)
		return
	}
	body := &resumeOK{RouterID: s.router.ID(), BootEpoch: s.cfg.BootEpoch, Nonce: req.Nonce, Ticket: newTicket}
	df, err := sess.SealData(rand.Reader, body.marshal())
	if err != nil {
		s.replies.forget(sid)
		s.logf("transport: seal resume confirm: %v", err)
		return
	}
	confirm := &ResumeConfirm{Dedup: sid, Nonce: serverNonce, Ciphertext: df.Payload}
	frame, err := EncodeMessage(confirm)
	if err != nil {
		s.replies.forget(sid)
		s.logf("transport: encode resume confirm: %v", err)
		return
	}
	s.stats.resumesServed.Add(1)
	s.stats.ticketsIssued.Add(1)
	s.replies.fulfill(sid, frame)
	l.eg.Queue(frame, addr)
	// Only now, with the confirm cached and queued, does the backbone
	// announce the ownership transfer (so the previous router forwards
	// in-flight frames): sealing the flood stays off the client's round
	// trip, and a request whose confirm could not be built announces
	// nothing.
	if roamed {
		if hooks := s.backbone.Load(); hooks != nil && hooks.observe != nil {
			hooks.observe.HandoffAdopted(t.Prev, sess.ID, t.Router)
		}
	}
}

// handleSessionPing answers a keepalive ping. Only a server that still
// holds the session can decrypt the ping and seal a pong, so the pong is
// proof of liveness; a rebooted server answers RejectUnknownSession — the
// unauthenticated hint clients confirm against the signed beacon epoch.
func (s *Server) handleSessionPing(l *shardLoop, f *core.DataFrame, addr net.Addr) {
	sess, ok := s.router.SessionByID(f.Session)
	if !ok {
		s.stats.unknownSessionRejects.Add(1)
		s.sendRejectCode(l, addr, f.Session, RejectUnknownSession, "no such session")
		return
	}
	body, err := sess.OpenData(f)
	if err != nil {
		// Forged, corrupted or replayed (duplicated) ping; the next round's
		// ping carries a fresh sequence number, so dropping it is safe.
		s.stats.decodeErrors.Add(1)
		return
	}
	pb, err := UnmarshalPingBody(body)
	if err != nil {
		s.stats.decodeErrors.Add(1)
		return
	}
	pong := &PongBody{Nonce: pb.Nonce, BootEpoch: s.cfg.BootEpoch}
	df, err := sess.SealData(rand.Reader, pong.Marshal())
	if err != nil {
		s.logf("transport: seal pong: %v", err)
		return
	}
	frame, err := EncodeMessage(&SessionPong{Frame: df})
	if err != nil {
		s.logf("transport: encode pong: %v", err)
		return
	}
	s.stats.keepalivesServed.Add(1)
	l.eg.Queue(frame, addr)
}

// handleSessionData delivers one frame of established-session user
// traffic. A session this router holds is opened and counted locally; a
// session it does not hold is offered to the backbone forwarder — during
// the roaming grace window the old router still receives in-flight frames
// and relays them to the adopting router instead of rejecting them.
func (s *Server) handleSessionData(l *shardLoop, f *core.DataFrame, addr net.Addr) {
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
			s.echoData(l, sess, pt, addr)
		}
		return
	}
	if hooks := s.backbone.Load(); hooks != nil && hooks.forward != nil {
		if hooks.forward.ForwardData(f) {
			return
		}
	}
	s.stats.unknownSessionRejects.Add(1)
	s.sendRejectCode(l, addr, f.Session, RejectUnknownSession, "no such session")
}

func (s *Server) sendReject(l *shardLoop, addr net.Addr, sid core.SessionID, cause error) {
	s.sendRejectCode(l, addr, sid, rejectCodeFor(cause), cause.Error())
}

func (s *Server) sendRejectCode(l *shardLoop, addr net.Addr, sid core.SessionID, code RejectCode, reason string) {
	rej := &Reject{Session: sid, Code: code, Reason: reason}
	frame, err := EncodeMessage(rej)
	if err != nil {
		s.logf("transport: encode reject: %v", err)
		return
	}
	s.stats.rejects.Add(1)
	l.eg.Queue(frame, addr)
}

// echoData seals the just-delivered payload back to its sender into a
// pooled egress buffer: header first (the sealed size is deterministic),
// then AppendSealedData in place — no intermediate frame, no copy, zero
// allocations in steady state.
func (s *Server) echoData(l *shardLoop, sess *core.Session, pt []byte, addr net.Addr) {
	b := l.eg.Buffer()
	var err error
	if b.B, err = AppendFrameHeader(b.B, KindSessionData, core.SealedDataLen(len(pt))); err == nil {
		b.B, err = sess.AppendSealedData(b.B, pt)
	}
	if err != nil {
		b.Release()
		s.logf("transport: echo seal: %v", err)
		return
	}
	l.eg.QueueBuf(b, addr)
}

// String describes the server for logs.
func (s *Server) String() string {
	return fmt.Sprintf("transport.Server(%s on %v)", s.router.ID(), s.Addr())
}
