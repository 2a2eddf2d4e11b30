package transport

import (
	"github.com/peace-mesh/peace/internal/metrics"
)

// Stats is an endpoint's view into the shared metrics registry: every
// counter and gauge the datapath bumps is a registry instrument, so the
// meshd JSON reporter, the /metrics endpoint, the soak judges and the
// peacebench experiments all read the same numbers. Handles are resolved
// once at construction; increments stay single lock-free atomic ops with
// zero allocations (gated by TestDataPlaneAllocs).
//
// Registration is idempotent, so many clients may share one registry and
// their counts aggregate.
type Stats struct {
	reg *metrics.Registry

	framesIn     *metrics.Counter
	framesOut    *metrics.Counter
	bytesIn      *metrics.Counter
	bytesOut     *metrics.Counter
	decodeErrors *metrics.Counter
	unhandled    *metrics.Counter
	duplicates   *metrics.Counter
	retransmits  *metrics.Counter
	timeouts     *metrics.Counter
	rejects      *metrics.Counter
	queueDrops   *metrics.Counter
	// ratelimitDropped counts attach/resume datagrams shed by the
	// per-source token bucket before any decode work.
	ratelimitDropped *metrics.Counter

	// Revocation-distribution observability: deltas and full snapshots
	// served (server) or applied (client), rejects attributed to
	// revocation, and the current epoch of each installed list.
	revDeltaFetches    *metrics.Counter
	revSnapshotFetches *metrics.Counter
	revRejects         *metrics.Counter
	urlEpoch           *metrics.UintGauge
	crlEpoch           *metrics.UintGauge

	// Self-healing observability: keepalive traffic, dead-peer and restart
	// detections, automatic re-attaches, and the boot-epoch gauge.
	keepalivesSent        *metrics.Counter
	keepalivesAcked       *metrics.Counter
	keepalivesServed      *metrics.Counter
	keepalivesMissed      *metrics.Counter
	unknownSessionRejects *metrics.Counter
	restartsDetected      *metrics.Counter
	deadPeerEvents        *metrics.Counter
	reattaches            *metrics.Counter
	attachAttempts        *metrics.Counter
	attachSuccesses       *metrics.Counter
	drainRejects          *metrics.Counter
	bootEpoch             *metrics.UintGauge

	// Resumption observability: tickets issued and resumes served
	// (server), resume attempts/successes/fallbacks (client), the
	// held-ticket gauge, and the cache/shard gauges of the sharded server.
	ticketsIssued    *metrics.Counter
	resumesServed    *metrics.Counter
	resumeRejects    *metrics.Counter
	resumeAttempts   *metrics.Counter
	resumeSuccesses  *metrics.Counter
	resumeFallbacks  *metrics.Counter
	ticketsHeld      *metrics.Gauge
	replyCacheSize   *metrics.Gauge
	deltaCacheFrames *metrics.Gauge
	shards           *metrics.Gauge

	// Backbone observability: roaming handoffs adopted from / released to
	// other routers, data frames relayed across backbone links, delivered
	// data frames, and the live-gossip-peer gauge.
	handoffsIn    *metrics.Counter
	handoffsOut   *metrics.Counter
	framesRelayed *metrics.Counter
	dataDelivered *metrics.Counter
	gossipPeers   *metrics.Gauge

	// Data-plane batching observability: whether the mmsg fast path is
	// active, how many recvmmsg/sendmmsg calls moved how many datagrams
	// (their ratio is the average batch fill), and the plaintext bytes
	// delivered to the local sink.
	batchedIO      *metrics.Gauge
	readBatches    *metrics.Counter
	readDatagrams  *metrics.Counter
	writeBatches   *metrics.Counter
	writeDatagrams *metrics.Counter
	dataBytes      *metrics.Counter
	// Receive-offload observability: UDP GRO trains the router's sockets
	// split back into datagrams, the datagrams they held, and trains
	// dropped whole for not fitting their slot. rx_trains staying at 0
	// under batched senders means coalescing is not engaged.
	rxTrains        *metrics.Counter
	rxTrainSegments *metrics.Counter
	rxTruncated     *metrics.Counter

	// Adaptive DoS-defense observability: the suspicion flag and currently
	// demanded puzzle difficulty (mirrored from the router's controller by
	// the server's load sampler), the puzzle ledger at the ingress gate,
	// and how long client solves take.
	dosSuspicion       *metrics.Gauge
	dosDifficulty      *metrics.Gauge
	dosPuzzlesIssued   *metrics.Counter
	dosPuzzlesVerified *metrics.Counter
	dosPuzzlesRejected *metrics.Counter
	dosSolutionReplays *metrics.Counter
	dosSolveLatency    *metrics.Histogram

	// Latency histograms at the four hot boundaries: the full AKA attach,
	// the one-round-trip ticket resume, the cross-router roaming handoff
	// (a resume adopted by a different router), and the sealed keepalive
	// round trip standing in for the sealed-data RTT.
	attachLatency  *metrics.Histogram
	resumeLatency  *metrics.Histogram
	handoffLatency *metrics.Histogram
	dataRTT        *metrics.Histogram
}

// NewStats resolves every transport instrument in reg, creating a
// private registry when reg is nil.
func NewStats(reg *metrics.Registry) *Stats {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Stats{reg: reg}

	s.framesIn = reg.Counter("frames_in", "valid frames received")
	s.framesOut = reg.Counter("frames_out", "frames sent")
	s.bytesIn = reg.Counter("bytes_in", "datagram bytes received, including undecodable ones")
	s.bytesOut = reg.Counter("bytes_out", "datagram bytes sent")
	s.decodeErrors = reg.Counter("decode_errors", "datagrams rejected by the frame or message decoders")
	s.unhandled = reg.Counter("unhandled", "well-formed frames of a kind this endpoint does not serve")
	s.duplicates = reg.Counter("duplicates", "suppressed duplicate frames")
	s.retransmits = reg.Counter("retransmits", "frames sent again after a timeout")
	s.timeouts = reg.Counter("timeouts", "handshake phases abandoned after max retries")
	s.rejects = reg.Counter("rejects", "reject notices sent (server) or received (client)")
	s.queueDrops = reg.Counter("queue_drops", "access requests shed because the ingest queue was full")
	s.ratelimitDropped = reg.Counter("ratelimit_dropped", "attach/resume datagrams shed by the per-source token bucket")

	s.revDeltaFetches = reg.Counter("rev_delta_fetches", "revocation deltas served (server) or applied (client)")
	s.revSnapshotFetches = reg.Counter("rev_snapshot_fetches", "full revocation snapshots served (server) or applied (client)")
	s.revRejects = reg.Counter("rev_rejects", "access requests rejected because the signer is revoked")
	s.urlEpoch = reg.UintGauge("url_epoch", "epoch of the installed user revocation list")
	s.crlEpoch = reg.UintGauge("crl_epoch", "epoch of the installed credential revocation list")

	s.keepalivesSent = reg.Counter("keepalives_sent", "keepalive pings sent")
	s.keepalivesAcked = reg.Counter("keepalives_acked", "valid keepalive pongs received")
	s.keepalivesServed = reg.Counter("keepalives_served", "keepalive pongs answered")
	s.keepalivesMissed = reg.Counter("keepalives_missed", "ping rounds that ended without a valid pong")
	s.unknownSessionRejects = reg.Counter("unknown_session_rejects", "frames for sessions this server does not hold")
	s.restartsDetected = reg.Counter("restarts_detected", "authenticated boot-epoch changes observed")
	s.deadPeerEvents = reg.Counter("dead_peer_events", "sessions declared dead after missed keepalives")
	s.reattaches = reg.Counter("reattaches", "automatic re-attach cycles after a lost session")
	s.attachAttempts = reg.Counter("attach_attempts", "full AKA runs started")
	s.attachSuccesses = reg.Counter("attach_successes", "full AKA runs completed")
	s.drainRejects = reg.Counter("drain_rejects", "access requests refused during graceful drain")
	s.bootEpoch = reg.UintGauge("boot_epoch", "own boot epoch (server) or last authenticated boot epoch observed (client)")

	s.ticketsIssued = reg.Counter("tickets_issued", "resumption tickets sealed into confirms and resume replies")
	s.resumesServed = reg.Counter("resumes_served", "ticket resumptions served without a pairing")
	s.resumeRejects = reg.Counter("resume_rejects", "resume exchanges refused")
	s.resumeAttempts = reg.Counter("resume_attempts", "client resume exchanges started")
	s.resumeSuccesses = reg.Counter("resume_successes", "client resume exchanges completed")
	s.resumeFallbacks = reg.Counter("resume_fallbacks", "resumes that fell back to the full handshake")
	s.ticketsHeld = reg.Gauge("tickets_held", "whether the client currently holds a ticket")
	s.replyCacheSize = reg.Gauge("reply_cache_size", "entries in the bounded reply cache")
	s.deltaCacheFrames = reg.Gauge("delta_cache_frames", "encoded frames in the revocation delta cache")
	s.shards = reg.Gauge("shards", "read loops serving the socket(s)")

	s.handoffsIn = reg.Counter("handoffs_in", "roaming sessions adopted via a ticket from another router")
	s.handoffsOut = reg.Counter("handoffs_out", "sessions released to an adopting router")
	s.framesRelayed = reg.Counter("frames_relayed", "data frames forwarded across backbone links")
	s.dataDelivered = reg.Counter("data_delivered", "session data frames opened and delivered to the local sink")
	s.gossipPeers = reg.Gauge("gossip_peers", "backbone links currently up")

	s.batchedIO = reg.Gauge("batched_io", "1 when the mmsg fast path upgraded the socket")
	s.readBatches = reg.Counter("read_batches", "ingest read syscalls completed")
	s.readDatagrams = reg.Counter("read_datagrams", "datagrams moved by ingest reads")
	s.writeBatches = reg.Counter("write_batches", "egress flushes completed")
	s.writeDatagrams = reg.Counter("write_datagrams", "datagrams moved by egress flushes")
	s.dataBytes = reg.Counter("data_bytes", "plaintext payload bytes delivered to the local sink")
	s.rxTrains = reg.Counter("rx_trains", "UDP GRO trains split back into datagrams on receive")
	s.rxTrainSegments = reg.Counter("rx_train_segments", "datagrams the split UDP GRO trains held")
	s.rxTruncated = reg.Counter("rx_truncated", "UDP GRO trains dropped whole for not fitting their receive slot")

	s.dosSuspicion = reg.Gauge("dos_suspicion", "1 while the adaptive DoS monitor is suspicious")
	s.dosDifficulty = reg.Gauge("dos_difficulty", "puzzle difficulty currently demanded from access requests")
	s.dosPuzzlesIssued = reg.Counter("dos_puzzles_issued", "puzzle challenges attached to beacons and RejectPuzzle replies")
	s.dosPuzzlesVerified = reg.Counter("dos_puzzles_verified", "puzzle solutions accepted by the ingress gate")
	s.dosPuzzlesRejected = reg.Counter("dos_puzzles_rejected", "handshake datagrams refused for a missing, wrong or stale puzzle solution")
	s.dosSolutionReplays = reg.Counter("dos_solution_replays", "puzzle solutions replayed from a different source than first seen")
	s.dosSolveLatency = reg.Histogram("dos_solve_latency", "client-side puzzle solve latency")

	s.attachLatency = reg.Histogram("attach_latency", "full AKA attach round-trip latency")
	s.resumeLatency = reg.Histogram("resume_latency", "ticket resume round-trip latency")
	s.handoffLatency = reg.Histogram("handoff_latency", "roaming handoff (cross-router resume) latency")
	s.dataRTT = reg.Histogram("data_rtt", "sealed keepalive round-trip latency over the data path")

	return s
}

// Registry returns the registry backing these stats, so co-located
// subsystems (the backbone node, the rate limiter) can register their
// own instruments next to the transport's.
func (s *Stats) Registry() *metrics.Registry { return s.reg }

// Snapshot copies every instrument in the registry. The result marshals
// to the same flat JSON object the old hand-maintained snapshot struct
// produced, with the same keys in the same order.
func (s *Stats) Snapshot() metrics.Snapshot { return s.reg.Snapshot() }

// Retransmits returns the retransmit counter (used by tests and reports).
func (s *Stats) Retransmits() int64 { return s.retransmits.Load() }

// Timeouts returns the timeout counter.
func (s *Stats) Timeouts() int64 { return s.timeouts.Load() }

// Duplicates returns the duplicate-suppression counter.
func (s *Stats) Duplicates() int64 { return s.duplicates.Load() }

// DecodeErrors returns the decode-error counter.
func (s *Stats) DecodeErrors() int64 { return s.decodeErrors.Load() }

// RatelimitDropped returns how many attach/resume datagrams the
// per-source token bucket shed.
func (s *Stats) RatelimitDropped() int64 { return s.ratelimitDropped.Load() }

// RevDeltaFetches returns the revocation-delta counter.
func (s *Stats) RevDeltaFetches() int64 { return s.revDeltaFetches.Load() }

// RevSnapshotFetches returns the full-snapshot counter.
func (s *Stats) RevSnapshotFetches() int64 { return s.revSnapshotFetches.Load() }

// KeepalivesAcked returns how many valid pongs the client received.
func (s *Stats) KeepalivesAcked() int64 { return s.keepalivesAcked.Load() }

// UnknownSessionRejects returns how many frames referenced sessions this
// server does not hold.
func (s *Stats) UnknownSessionRejects() int64 { return s.unknownSessionRejects.Load() }

// Reattaches returns how many automatic re-attach cycles ran.
func (s *Stats) Reattaches() int64 { return s.reattaches.Load() }

// RestartsDetected returns how many boot-epoch changes were observed.
func (s *Stats) RestartsDetected() int64 { return s.restartsDetected.Load() }

// DeadPeerEvents returns how many sessions were declared dead.
func (s *Stats) DeadPeerEvents() int64 { return s.deadPeerEvents.Load() }

// AttachAttempts returns how many AKA runs were started.
func (s *Stats) AttachAttempts() int64 { return s.attachAttempts.Load() }

// AttachSuccesses returns how many AKA runs completed.
func (s *Stats) AttachSuccesses() int64 { return s.attachSuccesses.Load() }

// DrainRejects returns how many access requests the drain phase refused.
func (s *Stats) DrainRejects() int64 { return s.drainRejects.Load() }

// TicketsIssued returns how many resumption tickets the server sealed.
func (s *Stats) TicketsIssued() int64 { return s.ticketsIssued.Load() }

// ResumesServed returns how many ticket resumptions the server served.
func (s *Stats) ResumesServed() int64 { return s.resumesServed.Load() }

// ResumeRejects returns how many resume exchanges the server refused.
func (s *Stats) ResumeRejects() int64 { return s.resumeRejects.Load() }

// ResumeSuccesses returns how many resume exchanges the client completed.
func (s *Stats) ResumeSuccesses() int64 { return s.resumeSuccesses.Load() }

// ResumeFallbacks returns how many resumes fell back to a full handshake.
func (s *Stats) ResumeFallbacks() int64 { return s.resumeFallbacks.Load() }

// ReplyCacheSize returns the reply-cache size gauge.
func (s *Stats) ReplyCacheSize() int64 { return s.replyCacheSize.Load() }

// Shards returns the read-loop gauge.
func (s *Stats) Shards() int64 { return s.shards.Load() }

// HandoffsIn returns how many roaming sessions were adopted from other
// routers.
func (s *Stats) HandoffsIn() int64 { return s.handoffsIn.Load() }

// HandoffsOut returns how many sessions were released to other routers.
func (s *Stats) HandoffsOut() int64 { return s.handoffsOut.Load() }

// FramesRelayed returns how many data frames crossed backbone links.
func (s *Stats) FramesRelayed() int64 { return s.framesRelayed.Load() }

// DataDelivered returns how many data frames reached the local sink.
func (s *Stats) DataDelivered() int64 { return s.dataDelivered.Load() }

// GossipPeers returns the live-backbone-link gauge.
func (s *Stats) GossipPeers() int64 { return s.gossipPeers.Load() }

// BatchedIO reports whether the mmsg fast path upgraded the socket.
func (s *Stats) BatchedIO() bool { return s.batchedIO.Load() != 0 }

// ReadBatches returns how many ingest read syscalls completed.
func (s *Stats) ReadBatches() int64 { return s.readBatches.Load() }

// ReadDatagrams returns how many datagrams the ingest reads moved.
func (s *Stats) ReadDatagrams() int64 { return s.readDatagrams.Load() }

// DataBytes returns the plaintext bytes delivered to the local sink.
func (s *Stats) DataBytes() int64 { return s.dataBytes.Load() }

// RxTrains returns how many UDP GRO trains the receive side split.
func (s *Stats) RxTrains() int64 { return s.rxTrains.Load() }

// RxTrainSegments returns how many datagrams the split trains held.
func (s *Stats) RxTrainSegments() int64 { return s.rxTrainSegments.Load() }

// RxTruncated returns how many trains were dropped for not fitting.
func (s *Stats) RxTruncated() int64 { return s.rxTruncated.Load() }

// NoteRxSplit is the batchio.EnableGRO observer of the router's sockets
// (the server's read loops and the backbone node's).
func (s *Stats) NoteRxSplit(trains, segments, truncated int) {
	s.rxTrains.Add(int64(trains))
	s.rxTrainSegments.Add(int64(segments))
	s.rxTruncated.Add(int64(truncated))
}

// DoSSuspicion reports whether the mirrored adaptive monitor is suspicious.
func (s *Stats) DoSSuspicion() bool { return s.dosSuspicion.Load() != 0 }

// DoSDifficulty returns the mirrored currently demanded puzzle difficulty.
func (s *Stats) DoSDifficulty() int64 { return s.dosDifficulty.Load() }

// DoSPuzzlesIssued returns how many puzzle challenges were issued.
func (s *Stats) DoSPuzzlesIssued() int64 { return s.dosPuzzlesIssued.Load() }

// DoSPuzzlesVerified returns how many puzzle solutions the gate accepted.
func (s *Stats) DoSPuzzlesVerified() int64 { return s.dosPuzzlesVerified.Load() }

// DoSPuzzlesRejected returns how many datagrams the puzzle gate refused.
func (s *Stats) DoSPuzzlesRejected() int64 { return s.dosPuzzlesRejected.Load() }

// DoSSolutionReplays returns how many cross-source solution replays the
// gate suppressed.
func (s *Stats) DoSSolutionReplays() int64 { return s.dosSolutionReplays.Load() }

// NoteDataBytes adds delivered plaintext bytes (called by the backbone
// node for relayed-in frames that open under a local session).
func (s *Stats) NoteDataBytes(n int) { s.dataBytes.Add(int64(n)) }

// NoteHandoffOut bumps the handoff-release counter (called by the
// backbone node when it learns another router adopted a local session).
func (s *Stats) NoteHandoffOut() { s.handoffsOut.Add(1) }

// NoteFrameRelayed bumps the relay counter (called by the backbone node
// for every data frame it puts on a backbone link).
func (s *Stats) NoteFrameRelayed() { s.framesRelayed.Add(1) }

// NoteDataDelivered bumps the delivery counter (called by the backbone
// node when a relayed-in frame opens under a local session).
func (s *Stats) NoteDataDelivered() { s.dataDelivered.Add(1) }

// SetGossipPeers records the live-backbone-link gauge.
func (s *Stats) SetGossipPeers(n int64) { s.gossipPeers.Store(n) }

// setEpochs records the installed-epoch gauges.
func (s *Stats) setEpochs(urlEpoch, crlEpoch uint64) {
	s.urlEpoch.Store(urlEpoch)
	s.crlEpoch.Store(crlEpoch)
}
