package backbone

import (
	"bytes"
	"cmp"
	"container/heap"
	"crypto/rand"
	"fmt"
	"maps"
	"math/big"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/cert"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/transport"
	"github.com/peace-mesh/peace/internal/transport/batchio"
)

// Config tunes one backbone node.
type Config struct {
	// GossipInterval is the period of the gossip/maintenance tick.
	// Default 200ms.
	GossipInterval time.Duration
	// GraceWindow is how long after a roaming handoff the previous router
	// keeps forwarding in-flight frames before releasing the session.
	// Default 10s.
	GraceWindow time.Duration
	// Clock supplies every protocol time the node reads: link liveness,
	// handshake freshness, ad expiry and retransmission age. Default
	// core.SystemClock{}.
	Clock core.Clock
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.GossipInterval <= 0 {
		c.GossipInterval = 200 * time.Millisecond
	}
	if c.GraceWindow <= 0 {
		c.GraceWindow = 10 * time.Second
	}
	if c.Clock == nil {
		c.Clock = core.SystemClock{}
	}
	return c
}

// backboneIOBatch is how many datagrams one recvmmsg/sendmmsg moves on
// the backbone socket; backboneFrameSize is the egress buffer class
// (gossip rounds and relayed data frames fit, owner ads and their
// acknowledgements are cut to it);
// backboneFlushDelay is how long work handed to the loop waits in the
// inbox for batch-mates; triggerSpacing is how far ahead a route change
// pulls the next gossip round in, so that whatever else changes meanwhile
// rides the same round. A link silent for peerTimeoutRounds intervals is
// dead (the initiator re-runs the handshake), a relayed frame crosses at
// most relayTTL hops, a handshake timestamp is fresh for helloFreshness,
// and routes beyond maxHops are dropped (bounding count-to-infinity churn
// on partitions).
const (
	backboneIOBatch    = 16
	backboneFrameSize  = 4096
	backboneFlushDelay = 200 * time.Microsecond
	triggerSpacing     = 10 * time.Millisecond
	peerTimeoutRounds  = 15
	relayTTL           = 8
	helloFreshness     = 30 * time.Second
	maxHops            = 32
)

// routeEntry is one distance-vector entry: reach a router via a directly
// linked peer at a hop count. A linked peer is reached via itself at one.
type routeEntry struct {
	via  string
	hops uint32
}

// expiryQueue is a min-heap of the node's ownership records on Expires.
type expiryQueue []*ownerAd

func (q expiryQueue) Len() int           { return len(q) }
func (q expiryQueue) Less(i, j int) bool { return q[i].Expires.Before(q[j].Expires) }
func (q expiryQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *expiryQueue) Push(x any)        { *q = append(*q, x.(*ownerAd)) }
func (q *expiryQueue) Pop() any {
	last := len(*q) - 1
	ad := (*q)[last]
	(*q)[last] = nil
	*q = (*q)[:last]
	return ad
}

// pendingDial is an initiator's outstanding hello: its nonce and DH
// scalar, the frame re-sent until the welcome lands (the same hello, so
// the responder can replay its welcome), when it was signed and sent.
type pendingDial struct {
	nonce  [helloNonceSize]byte
	scalar *big.Int
	share  []byte
	frame  []byte
	signed time.Time
	sent   time.Time
}

// inbox is the work other goroutines hand the loop: adoptions, relays of
// frames for sessions that moved, and configured peers. It is due
// backboneFlushDelay after since, when the first of them came in. It
// holds records by value, so a producer appends into capacity the loop
// handed back and allocates nothing in steady state.
type inbox struct {
	ads    []ownerAd
	relays []dataRelay
	peers  []peer
	since  time.Time
}

// dataRelay is a data frame for a session that moved, to relay to the
// router that adopted it.
type dataRelay struct {
	owner string
	frame []byte // marshaled core.DataFrame
}

// unackedAd is an owner ad this node adopted that its previous router
// has not acknowledged, and when its last copy left (zero while none
// has).
type unackedAd struct {
	ad   ownerAd
	sent time.Time
}

type peer struct {
	id   string
	addr net.Addr
}

func (b *inbox) empty() bool { return len(b.ads)+len(b.relays)+len(b.peers) == 0 }

// Node is one router's presence on the metro backbone: it owns the
// backbone socket, runs the link handshakes, gossips liveness and routes,
// routes each session's ownership to the router it left and re-sends it
// until that router acknowledges it, relays data frames multi-hop, and
// implements the transport server's Forwarder / HandoffObserver hooks.
//
// One goroutine owns all of it: links, routes, pending dials, the
// ownership table and its expiry heap, the unacknowledged ads, and the
// egress. Everything the node does at a time now goes through step, which
// returns the next deadline. Other goroutines hand work in through the
// inbox, and read the ownership and hop tables under view, which only the
// owner writes.
type Node struct {
	cfg    Config
	id     string
	conn   net.PacketConn
	server *transport.Server
	router *core.MeshRouter
	stats  *transport.Stats

	// bc batches the socket (recvmmsg/sendmmsg where available) into
	// ring's slots; eg sends what a step sealed in place in one sendmmsg.
	bc        batchio.Conn
	ring      *batchio.Ring
	eg        *batchio.Egress
	framePool *batchio.Pool

	// The decode frame and open-plaintext buffer of relayed-in data frames,
	// and the scratch the loop builds relay bodies in.
	scratchFrame core.DataFrame
	pt           []byte
	relayPT      []byte

	dials   map[string]net.Addr // configured peers, by router id
	links   []*link             // in the order they came up
	pending map[string]*pendingDial
	expiry  expiryQueue
	// epoch anchors the interval's beat; nextRound is the next beat, or
	// sooner when a route change pulled a round in; lastTick is when the
	// previous tick ran.
	epoch, nextRound, lastTick time.Time
	// work is the inbox the loop took last, kept for its capacity.
	work inbox

	// unacked holds the owner ads this node adopted, by adopted session,
	// until their previous routers acknowledge them or they expire. acks
	// holds the ads that arrived here since the last step, to acknowledge
	// to their owners.
	unacked map[core.SessionID]*unackedAd
	acks    []ownerAd

	// view guards routes (every reachable router) and owners (the
	// ownership records of sessions adopted away from this router, until
	// they expire, keyed by the adopted session).
	view   sync.RWMutex
	routes map[string]routeEntry
	owners map[core.SessionID]*ownerAd

	inMu sync.Mutex
	in   inbox

	// Instruments in the server's registry: rounds and owner-ad copies
	// sealed (first copies, re-sends and hops on the path alike),
	// handshakes done (both roles), envelopes dropped before dispatch (no
	// link, bad key, replay) and refused at sealing (no datagram could
	// carry them).
	gossipRounds   *metrics.Counter
	ownerAdsSent   *metrics.Counter
	handshakesDone *metrics.Counter
	envelopeDrops  *metrics.Counter
	oversizeDrops  *metrics.Counter

	done   chan struct{} // closed when the started loop returns
	closed atomic.Bool
}

// NewNode starts a backbone node for server on conn (the router's
// dedicated backbone socket) and installs itself as the server's
// forwarder and handoff observer. Close the node before the server.
func NewNode(conn net.PacketConn, server *transport.Server, cfg Config) *Node {
	n := newNode(conn, server, cfg)
	n.start()
	return n
}

// newNode builds a node and starts nothing: until start, whoever calls
// step and serve owns it.
func newNode(conn net.PacketConn, server *transport.Server, cfg Config) *Node {
	cfg = cfg.withDefaults()
	now := cfg.Clock.Now()
	n := &Node{
		cfg:       cfg,
		id:        server.Router().ID(),
		conn:      conn,
		server:    server,
		router:    server.Router(),
		stats:     server.Stats(),
		framePool: batchio.NewPool(backboneFrameSize),
		pt:        make([]byte, 0, 65536),
		dials:     make(map[string]net.Addr),
		pending:   make(map[string]*pendingDial),
		routes:    make(map[string]routeEntry),
		owners:    make(map[core.SessionID]*ownerAd),
		unacked:   make(map[core.SessionID]*unackedAd),
		epoch:     now,
		nextRound: now.Add(cfg.GossipInterval),
		lastTick:  now,
	}
	reg := server.Stats().Registry()
	n.gossipRounds = reg.Counter("backbone_gossip_rounds", "gossip rounds sealed to backbone links")
	n.ownerAdsSent = reg.Counter("backbone_owner_ads_sent", "owner ad copies sealed to backbone links")
	n.handshakesDone = reg.Counter("backbone_handshakes", "backbone link handshakes completed")
	n.envelopeDrops = reg.Counter("backbone_envelope_drops", "sealed backbone envelopes dropped before dispatch")
	n.oversizeDrops = reg.Counter("backbone_oversize_drops", "backbone envelopes refused at sealing: larger than a datagram")
	var batched bool
	n.bc, batched = batchio.Upgrade(conn)
	if batched {
		// The loop alone reads the socket, into 64 KiB slots: a peer's GSO
		// train may arrive whole and is split there.
		batchio.EnableGRO(n.bc, n.stats.NoteRxSplit)
	}
	n.ring = batchio.NewRing(backboneIOBatch, batchio.NewPool(65536))
	n.eg = batchio.NewEgress(n.bc, backboneIOBatch, 0, n.framePool, nil)
	server.SetBackbone(n, n)
	return n
}

// start hands the node to its loop goroutine.
func (n *Node) start() {
	n.done = make(chan struct{})
	go n.run()
}

// ID returns the router identity this node speaks for.
func (n *Node) ID() string { return n.id }

// Addr returns the backbone socket address.
func (n *Node) Addr() net.Addr { return n.conn.LocalAddr() }

// AddPeer configures a backbone link to a peer router. Both ends
// configure each other; the lexicographically smaller ID initiates the
// handshake (a deterministic tie-break so simultaneous hellos cannot
// derive mismatched keys) and sends its hello when the loop takes the
// request, the other answers.
func (n *Node) AddPeer(id string, addr net.Addr) {
	opened := n.lockInbox(n.cfg.Clock.Now())
	n.in.peers = append(n.in.peers, peer{id: id, addr: addr})
	n.unlockInbox(opened)
}

// LivePeers returns the IDs of currently established links.
func (n *Node) LivePeers() []string {
	n.view.RLock()
	defer n.view.RUnlock()
	var out []string
	for id, e := range n.routes {
		if e.via == id {
			out = append(out, id)
		}
	}
	return out
}

// HopsTo returns the known backbone distance to a router (0 for self).
func (n *Node) HopsTo(router string) (int, bool) {
	if router == n.id {
		return 0, true
	}
	n.view.RLock()
	e, ok := n.routes[router]
	n.view.RUnlock()
	return int(e.hops), ok
}

// OwnerOf returns which router currently owns a session that roamed away
// from this router, if its owner ad arrived and the grace window is open.
// No other router learns of the handoff.
func (n *Node) OwnerOf(sid core.SessionID) (string, bool) {
	now := n.cfg.Clock.Now()
	n.view.RLock()
	ad := n.owners[sid]
	n.view.RUnlock()
	if ad == nil || !now.Before(ad.Expires) {
		return "", false
	}
	return ad.Owner, true
}

// Close stops the loop, then does and flushes whatever the inbox still
// holds before it closes the socket. Sessions whose grace window is still
// open stay with the router.
func (n *Node) Close() {
	if n.closed.Swap(true) {
		return
	}
	if n.done != nil {
		_ = n.conn.SetReadDeadline(time.Unix(1, 0))
		<-n.done
	}
	// The loop is gone: this goroutine owns the node now.
	n.drain(n.cfg.Clock.Now())
	n.eg.Close()
	n.ring.Close()
	_ = n.conn.Close()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// ---- transport hooks and the inbox ------------------------------------

// ForwardData implements transport.Forwarder: a data frame for a session
// this router no longer holds is relayed toward the adopting router when
// an unexpired ownership record names it and a route to it is known. The
// frame is marshaled before returning (it aliases the server's receive
// buffer); the loop seals it.
func (n *Node) ForwardData(f *core.DataFrame) bool {
	now := n.cfg.Clock.Now()
	n.view.RLock()
	ad := n.owners[f.Session]
	routed := false
	if ad != nil {
		_, routed = n.routes[ad.Owner]
	}
	n.view.RUnlock()
	if !routed || !now.Before(ad.Expires) {
		return false
	}
	frame := f.Marshal()
	opened := n.lockInbox(now)
	n.in.relays = append(n.in.relays, dataRelay{owner: ad.Owner, frame: frame})
	n.unlockInbox(opened)
	return true
}

// HandoffAdopted implements transport.HandoffObserver: the local server
// adopted a roamed session, so the loop routes its owner ad to the
// previous router, together with the adoptions handed in with it.
func (n *Node) HandoffAdopted(prev, next core.SessionID, prevRouter string) {
	now := n.cfg.Clock.Now()
	opened := n.lockInbox(now)
	n.in.ads = append(n.in.ads, ownerAd{
		Next:       next,
		Prev:       prev,
		Owner:      n.id,
		PrevRouter: prevRouter,
		Expires:    now.Add(n.cfg.GraceWindow),
	})
	n.unlockInbox(opened)
}

// lockInbox takes the inbox to hand it work at now, and reports whether
// that opens the inbox's window: it was empty.
func (n *Node) lockInbox(now time.Time) (opened bool) {
	n.inMu.Lock()
	if n.in.empty() {
		n.in.since = now
		return true
	}
	return false
}

// unlockInbox releases the inbox. A window just opened pulls the
// driver's read deadline in to when it closes, which can postpone a
// deadline the driver set sooner by at most backboneFlushDelay.
func (n *Node) unlockInbox(opened bool) {
	n.inMu.Unlock()
	if opened {
		_ = n.conn.SetReadDeadline(time.Now().Add(backboneFlushDelay))
	}
}

// window returns when the inbox's work is due, if it holds any.
func (n *Node) window() (time.Time, bool) {
	n.inMu.Lock()
	defer n.inMu.Unlock()
	return n.in.since.Add(backboneFlushDelay), !n.in.empty()
}

// drain takes the inbox, due or not, hands back the last one's capacity,
// and does the work at now: configured peers are dialled, adoptions sent
// to their previous routers, relays sealed.
func (n *Node) drain(now time.Time) {
	n.inMu.Lock()
	n.in, n.work = n.work, n.in
	n.inMu.Unlock()
	w := &n.work
	for _, p := range w.peers {
		n.dials[p.id] = p.addr
		if frame := n.dial(p.id, now); frame != nil {
			n.eg.Queue(frame, p.addr)
		}
	}
	n.adopt(w.ads, now)
	for i := range w.relays {
		if n.originate(w.relays[i].owner, relayData, w.relays[i].frame) {
			n.stats.NoteFrameRelayed()
		}
	}
	clear(w.ads)
	clear(w.relays)
	clear(w.peers)
	w.ads, w.relays, w.peers = w.ads[:0], w.relays[:0], w.peers[:0]
}

// ---- owner / handoff plane -------------------------------------------

// adopt takes the owner ads of adoptions handed in: each still open at
// now and not yet held waits for its previous router's acknowledgement,
// and its first copy leaves at once. The adopter keeps no ownership
// record: only the previous router forwards frames.
func (n *Node) adopt(ads []ownerAd, now time.Time) {
	var fresh []*unackedAd
	for _, ad := range ads {
		if now.Before(ad.Expires) && n.unacked[ad.Next] == nil {
			u := &unackedAd{ad: ad}
			n.unacked[ad.Next] = u
			fresh = append(fresh, u)
		}
	}
	n.sendAds(fresh, now)
}

// resendAds is the ad half of the tick at now: expired ads leave, and
// every other whose last copy left before the previous tick goes again —
// its previous router has had a whole round to answer.
func (n *Node) resendAds(now time.Time) {
	var due []*unackedAd
	for next, u := range n.unacked {
		if !now.Before(u.ad.Expires) {
			delete(n.unacked, next)
		} else if u.sent.Before(n.lastTick) {
			due = append(due, u)
		}
	}
	n.lastTick = now
	n.sendAds(due, now)
}

// sendAds relays ads to their previous routers, as few relays to each as
// ownerAdsFit packs them in, and marks them sent at now. An ad whose
// previous router has no route stays unsent, due at the next tick. The
// ads are sorted first, so what a step sends depends on its inputs only.
func (n *Node) sendAds(ads []*unackedAd, now time.Time) {
	slices.SortFunc(ads, func(a, b *unackedAd) int {
		return cmp.Or(strings.Compare(a.ad.PrevRouter, b.ad.PrevRouter), bytes.Compare(a.ad.Next[:], b.ad.Next[:]))
	})
	for len(ads) > 0 {
		target := ads[0].ad.PrevRouter
		routed := n.link(n.routes[target].via) != nil
		var list []ownerAd
		for ; len(ads) > 0 && ads[0].ad.PrevRouter == target; ads = ads[1:] {
			if routed {
				ads[0].sent = now
				list = append(list, ads[0].ad)
			}
		}
		for max := n.maxPayload(target); len(list) > 0; {
			k := ownerAdsFit(list, max)
			if n.originate(target, relayAds, appendOwnerAds(nil, list[:k])) {
				n.ownerAdsSent.Add(int64(k))
			}
			list = list[k:]
		}
	}
}

// takeAds installs the owner ads relayed to this router, the previous
// router of each: one ownership record per adopted session, counted as a
// handoff away and released by the tick at expiry. Every copy still open
// at now is acknowledged, fresh or duplicate (a re-sent copy means the
// last acknowledgement was lost); one that arrives expired is dropped,
// never resurrected.
func (n *Node) takeAds(body *relayBody, now time.Time) {
	ads, err := unmarshalOwnerAds(body.Payload)
	if err != nil {
		return
	}
	n.view.Lock()
	defer n.view.Unlock()
	for i := range ads {
		ad := &ads[i]
		if !now.Before(ad.Expires) || ad.PrevRouter != n.id || ad.Owner == n.id {
			continue
		}
		n.acks = append(n.acks, *ad)
		if n.owners[ad.Next] == nil {
			n.owners[ad.Next] = ad
			heap.Push(&n.expiry, ad)
			n.stats.NoteHandoffOut()
		}
	}
}

// sendAcks relays the acknowledgements the step owes back to the
// adopters: one relay to each, unless more are owed than a datagram
// carries.
func (n *Node) sendAcks() {
	slices.SortStableFunc(n.acks, func(a, b ownerAd) int { return strings.Compare(a.Owner, b.Owner) })
	for acks := n.acks; len(acks) > 0; {
		owner, k := acks[0].Owner, 1
		for per := (n.maxPayload(owner) - 4) / sessionIDLen; k < len(acks) && k < per && acks[k].Owner == owner; k++ {
		}
		n.originate(owner, relayAcks, appendAcks(nil, acks[:k]))
		acks = acks[k:]
	}
	clear(n.acks)
	n.acks = n.acks[:0]
}

// takeAcks takes in the acknowledgements a previous router relayed back:
// the ads it names, and that were for it, are no longer re-sent.
func (n *Node) takeAcks(body *relayBody) {
	ids, err := unmarshalAcks(body.Payload)
	if err != nil {
		return
	}
	for _, id := range ids {
		if u := n.unacked[id]; u != nil && u.ad.PrevRouter == string(body.Origin) {
			delete(n.unacked, id)
		}
	}
}

// sendSealed seals plaintext on one link into a pooled egress buffer —
// frame header first (the envelope size is deterministic), envelope
// sealed in place after it — and queues the datagram for the step's
// flush. An envelope no datagram can carry is counted and dropped.
func (n *Node) sendSealed(l *link, kind transport.Kind, plaintext []byte) bool {
	b := n.eg.Buffer()
	frame, err := transport.AppendFrameHeader(b.B, kind, linkEnvelopeLen(n.id, len(plaintext)))
	if err != nil {
		b.Release()
		n.oversizeDrops.Add(1)
		n.logf("backbone %s: encode %v: %v", n.id, kind, err)
		return false
	}
	b.B = l.sealAppend(frame, kind, n.id, plaintext)
	n.eg.QueueBuf(b, l.addr)
	return true
}

// ---- relay plane ------------------------------------------------------

// maxPayload is the largest relay payload from this node to target that
// one egress buffer seals.
func (n *Node) maxPayload(target string) int {
	return backboneFrameSize - transport.HeaderSize - linkEnvelopeLen(n.id, 0) - relayHeaderLen(target, n.id)
}

// originate sends a relay body of this node's toward target and reports
// whether it left.
func (n *Node) originate(target string, kind relayKind, payload []byte) bool {
	n.relayPT = appendRelay(n.relayPT[:0], target, n.id, kind, payload)
	return n.sendRelay(n.routes[target].via, n.relayPT)
}

// sendRelay seals a relay plaintext on the link to via, the next hop
// toward its target (none when via is empty), and reports whether it
// left.
func (n *Node) sendRelay(via string, pt []byte) bool {
	l := n.link(via)
	return l != nil && n.sendSealed(l, transport.KindRelay, pt)
}

// link returns the established link to a peer, or nil.
func (n *Node) link(peer string) *link {
	for _, l := range n.links {
		if l.peer == peer {
			return l
		}
	}
	return nil
}

// linkFrom is link for an envelope's sender field, compared where it lies
// in the datagram.
func (n *Node) linkFrom(from []byte) *link {
	for _, l := range n.links {
		if l.peer == string(from) {
			return l
		}
	}
	return nil
}

// handleRelay processes one relay body decoded from pt, the opened
// plaintext it aliases. A body for another router is forwarded whatever
// its kind: the hop budget is decremented in place and pt sealed again.
// At its target the kind says what it is.
func (n *Node) handleRelay(body *relayBody, pt []byte, now time.Time) {
	if string(body.Target) != n.id {
		if body.TTL == 0 {
			n.logf("backbone %s: relay TTL exhausted toward %s", n.id, body.Target)
			return
		}
		pt[body.ttlOffset()] = body.TTL - 1
		if !n.sendRelay(n.routes[string(body.Target)].via, pt) {
			return
		}
		switch body.Kind {
		case relayData:
			n.stats.NoteFrameRelayed()
		case relayAds:
			n.ownerAdsSent.Add(int64(ownerAdsCount(body.Payload)))
		}
		return
	}
	switch body.Kind {
	case relayData:
		n.deliver(body.Payload)
	case relayAds:
		n.takeAds(body, now)
	case relayAcks:
		n.takeAcks(body)
	}
}

// deliver opens a data frame relayed to this router, the session's
// owner, without a copy: it is decoded into the node's scratch frame and
// opened into its plaintext buffer.
func (n *Node) deliver(frame []byte) {
	if err := core.UnmarshalDataFrameInto(frame, &n.scratchFrame); err != nil {
		n.logf("backbone %s: relayed frame: %v", n.id, err)
		return
	}
	sess, ok := n.router.SessionByID(n.scratchFrame.Session)
	if !ok {
		n.logf("backbone %s: relayed frame for unknown session", n.id)
		return
	}
	pt, err := sess.OpenDataInto(&n.scratchFrame, n.pt[:0])
	if err != nil {
		n.logf("backbone %s: relayed frame rejected: %v", n.id, err)
		return
	}
	n.pt = pt[:0]
	n.stats.NoteDataDelivered()
	n.stats.NoteDataBytes(len(pt))
}

// ---- gossip plane ------------------------------------------------------

// step is everything the node does at now but serve datagrams: take the
// inbox once its window closed, tick once a round is due, relay the
// acknowledgements the datagrams served since owe, and flush all of it
// and the rest they provoked in one sendmmsg. It returns the next
// deadline: the round or the inbox window.
func (n *Node) step(now time.Time) time.Time {
	if due, ok := n.window(); ok && !now.Before(due) {
		n.drain(now)
	}
	if !now.Before(n.nextRound) {
		n.tick(now)
		// The next round is the interval's next beat, however far the
		// clock jumped or a route change pulled this one in.
		n.nextRound = now.Add(n.cfg.GossipInterval - now.Sub(n.epoch)%n.cfg.GossipInterval)
	}
	n.sendAcks()
	n.eg.Flush()
	return n.deadline()
}

// deadline is the earlier of the next round and the inbox's window.
func (n *Node) deadline() time.Time {
	if due, ok := n.window(); ok && due.Before(n.nextRound) {
		return due
	}
	return n.nextRound
}

// pullRound asks for a round within triggerSpacing of now; further
// changes inside that spacing ride the same round.
func (n *Node) pullRound(now time.Time) {
	if t := now.Add(triggerSpacing); t.Before(n.nextRound) {
		n.nextRound = t
	}
}

// tick is the maintenance pass at now: expire silent links, (re)send the
// hellos of configured-but-down links, drop expired ownership records,
// releasing the sessions handed off from here, re-send the unacknowledged
// ads that are due, and seal a round on every link. Its cost follows the
// links, routes and unacknowledged ads, not the ownership records held. A
// closed node does nothing.
func (n *Node) tick(now time.Time) {
	if n.closed.Load() {
		return
	}
	n.links = slices.DeleteFunc(n.links, func(l *link) bool {
		if now.Sub(l.lastSeen) <= peerTimeoutRounds*n.cfg.GossipInterval {
			return false
		}
		n.view.Lock()
		maps.DeleteFunc(n.routes, func(_ string, e routeEntry) bool { return e.via == l.peer })
		n.view.Unlock()
		return true
	})
	ids := make([]string, 0, len(n.dials))
	for id := range n.dials {
		ids = append(ids, id)
	}
	slices.Sort(ids) // an order the inputs decide keeps a stepped run reproducible
	for _, id := range ids {
		if frame := n.dial(id, now); frame != nil {
			n.eg.Queue(frame, n.dials[id])
		}
	}
	for len(n.expiry) > 0 && !now.Before(n.expiry[0].Expires) {
		ad := heap.Pop(&n.expiry).(*ownerAd)
		n.view.Lock()
		delete(n.owners, ad.Next)
		n.view.Unlock()
		// The grace window of this handoff closed: in-flight frames stop
		// forwarding, the audit log entry survives the release.
		n.router.ReleaseSession(ad.Prev)
	}
	n.resendAds(now)
	n.stats.SetGossipPeers(int64(len(n.links)))
	for _, l := range n.links {
		n.sendRound(l)
	}
}

// sendRound seals one gossip round on a link: the boot epoch and the
// routes, with split horizon (the peer itself and routes via it are
// withheld).
func (n *Node) sendRound(l *link) {
	body := &gossipBody{BootEpoch: n.server.BootEpoch()}
	for r, e := range n.routes {
		if e.via != l.peer && r != l.peer {
			body.Routes = append(body.Routes, routeAd{Router: r, Hops: e.hops})
		}
	}
	if n.sendSealed(l, transport.KindGossip, body.Marshal()) {
		n.gossipRounds.Add(1)
	}
}

// dial returns the hello to send toward a configured peer at now, or
// nil: the link is up, the peer is the designated initiator, or the
// pending hello went out less than an interval ago. A hello too old to
// pass the peer's freshness check is replaced by a new one.
func (n *Node) dial(peer string, now time.Time) []byte {
	if n.link(peer) != nil || n.id >= peer {
		return nil
	}
	p := n.pending[peer]
	if p == nil || now.Sub(p.signed) > helloFreshness/2 {
		var err error
		if p, err = n.newDial(now); err != nil {
			n.logf("backbone %s: dial %s: %v", n.id, peer, err)
			return nil
		}
		n.pending[peer] = p
	} else if now.Sub(p.sent) < n.cfg.GossipInterval {
		return nil
	}
	p.sent = now
	return p.frame
}

// newDial builds a fresh signed hello.
func (n *Node) newDial(now time.Time) (*pendingDial, error) {
	c := n.router.Certificate()
	if c == nil {
		return nil, fmt.Errorf("no certificate installed")
	}
	scalar, err := bn256.RandomScalar(rand.Reader)
	if err != nil {
		return nil, err
	}
	p := &pendingDial{
		scalar: scalar,
		share:  new(bn256.G1).ScalarBaseMult(scalar).Marshal(),
		signed: now,
	}
	if _, err := rand.Read(p.nonce[:]); err != nil {
		return nil, err
	}
	hello := &routerHello{
		Cert:      c,
		Share:     p.share,
		Nonce:     p.nonce,
		Timestamp: now,
	}
	if hello.Sig, err = n.router.SignAs(hello.SignedBody()); err != nil {
		return nil, err
	}
	if p.frame, err = transport.EncodeFrame(transport.KindRouterHello, hello.Marshal()); err != nil {
		return nil, err
	}
	return p, nil
}

// install makes l the link to its peer after a handshake in either role:
// its first round leaves at once, and the other links hear of the new
// neighbour within triggerSpacing.
func (n *Node) install(l *link, now time.Time) {
	if i := slices.IndexFunc(n.links, func(old *link) bool { return old.peer == l.peer }); i >= 0 {
		n.links[i] = l
	} else {
		n.links = append(n.links, l)
	}
	n.view.Lock()
	n.routes[l.peer] = routeEntry{via: l.peer, hops: 1}
	n.view.Unlock()
	n.handshakesDone.Add(1)
	n.sendRound(l)
	n.pullRound(now)
}

// integrateGossip folds one gossip round from a live peer into the
// routing table. A round lists every route its sender holds but those
// split horizon withholds, so a route via the peer that the round no
// longer lists within maxHops is withdrawn: the peer lost it, and a
// better one via another peer is taken at that peer's next round. A route
// learned, shortened or withdrawn asks for a round to pass it on.
func (n *Node) integrateGossip(l *link, body *gossipBody, now time.Time) {
	n.view.Lock()
	defer n.view.Unlock()
	for _, ad := range body.Routes {
		if ad.Router == n.id || ad.Router == l.peer || ad.Hops+1 > maxHops {
			continue
		}
		cand := routeEntry{via: l.peer, hops: ad.Hops + 1}
		cur, ok := n.routes[ad.Router]
		if better := !ok || cand.hops < cur.hops; better || cur.via == l.peer {
			n.routes[ad.Router] = cand
			if better {
				n.pullRound(now)
			}
		}
	}
	for r, e := range n.routes {
		if e.via == l.peer && r != l.peer && !slices.ContainsFunc(body.Routes, func(ad routeAd) bool {
			return ad.Router == r && ad.Hops+1 <= maxHops
		}) {
			delete(n.routes, r)
			n.pullRound(now)
		}
	}
}

// ---- socket loop -------------------------------------------------------

// run is the started node's one goroutine. Each pass steps, sets the read
// deadline to the step's next deadline, re-checks the inbox (a wake that
// landed before the deadline was set would be lost) and reads a batch,
// which the next step flushes behind. A timeout is a step, not an error.
func (n *Node) run() {
	defer close(n.done)
	for {
		now := n.cfg.Clock.Now()
		next := n.step(now)
		_ = n.conn.SetReadDeadline(time.Now().Add(next.Sub(now)))
		if n.closed.Load() {
			return
		}
		if due := n.deadline(); due.Before(next) {
			_ = n.conn.SetReadDeadline(time.Now().Add(due.Sub(now)))
		}
		if err := n.serve(); err != nil {
			if n.closed.Load() {
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			n.logf("backbone %s: read: %v", n.id, err)
			return
		}
	}
}

// serve reads one batch from the socket and dispatches it.
func (n *Node) serve() error {
	ms := n.ring.Prepare()
	nr, err := n.bc.ReadBatch(ms)
	if err != nil {
		return err
	}
	now := n.cfg.Clock.Now()
	for i := 0; i < nr; i++ {
		n.dispatch(&ms[i], now)
	}
	return nil
}

// dispatch decodes and serves one ingest slot at now. A sealed envelope
// is decoded in place and opened in place in the slot; every decoder of
// its plaintext, like the handshakes' decoders, copies what it keeps, so
// the slot is free for reuse on return. Only the hello path clones the
// peer address, which outlives the batch inside the installed link.
func (n *Node) dispatch(m *batchio.Message, now time.Time) {
	kind, payload, err := transport.DecodeFrame(m.Payload())
	if err != nil {
		return
	}
	switch kind {
	case transport.KindRouterHello:
		h, err := unmarshalRouterHello(payload)
		if err != nil {
			return
		}
		n.handleHello(h, batchio.CloneAddr(m.Addr), now)
	case transport.KindRouterWelcome:
		w, err := unmarshalRouterWelcome(payload)
		if err != nil {
			return
		}
		n.handleWelcome(w, now)
	case transport.KindGossip, transport.KindRelay:
		var env linkEnvelope
		if unmarshalLinkEnvelope(payload, &env) != nil {
			return
		}
		n.handleEnvelope(kind, &env, now)
	}
}

// handleEnvelope opens a sealed envelope on the sender's link and
// dispatches its plaintext.
func (n *Node) handleEnvelope(kind transport.Kind, env *linkEnvelope, now time.Time) {
	l := n.linkFrom(env.From)
	if l == nil {
		n.envelopeDrops.Add(1)
		return
	}
	pt, err := l.open(kind, env, now)
	if err != nil {
		// Replays, stale keys after a peer restart, corrupted datagrams —
		// all drop silently; gossip silence eventually expires a dead key.
		n.envelopeDrops.Add(1)
		return
	}
	switch kind {
	case transport.KindGossip:
		body, err := unmarshalGossipBody(pt)
		if err != nil {
			return
		}
		n.integrateGossip(l, body, now)
	case transport.KindRelay:
		var body relayBody
		if unmarshalRelayBody(pt, &body) != nil {
			return
		}
		n.handleRelay(&body, pt, now)
	}
}

// checkPeerCert verifies a handshake certificate against the NO
// authority and the installed CRL, and the handshake signature under it.
func (n *Node) checkPeerCert(c *cert.Certificate, signedBody, sig []byte, ts, now time.Time) error {
	if d := now.Sub(ts); d > helloFreshness || d < -helloFreshness {
		return fmt.Errorf("handshake timestamp stale")
	}
	if err := cert.CheckCertificate(c, n.router.RouterRevoked, n.router.Authority(), now); err != nil {
		return err
	}
	return c.PublicKey.Verify(signedBody, sig)
}

// handleHello answers a link handshake as the responder: verify the
// initiator's credentials, derive fresh link keys, install the link and
// send back a signed welcome with the link's first round behind it. A
// retransmitted hello (same nonce) gets the link's welcome again,
// keeping exactly one key derivation per handshake.
func (n *Node) handleHello(m *routerHello, addr net.Addr, now time.Time) {
	peer := m.Cert.SubjectID
	if peer == n.id {
		return
	}
	if l := n.link(peer); l != nil && l.welcome != nil && l.hello == m.Nonce {
		n.eg.Queue(l.welcome, addr)
		return
	}

	if err := n.checkPeerCert(m.Cert, m.SignedBody(), m.Sig, m.Timestamp, now); err != nil {
		n.logf("backbone %s: hello from %s refused: %v", n.id, peer, err)
		return
	}
	peerShare, err := new(bn256.G1).Unmarshal(m.Share)
	if err != nil {
		n.logf("backbone %s: hello share from %s: %v", n.id, peer, err)
		return
	}
	ownCert := n.router.Certificate()
	if ownCert == nil {
		return
	}
	scalar, err := bn256.RandomScalar(rand.Reader)
	if err != nil {
		return
	}
	share := new(bn256.G1).ScalarBaseMult(scalar).Marshal()
	dh := new(bn256.G1).ScalarMult(peerShare, scalar).Marshal()

	w := &routerWelcome{
		Cert:      ownCert,
		Share:     share,
		Echo:      m.Nonce,
		Timestamp: now,
	}
	if _, err := rand.Read(w.Nonce[:]); err != nil {
		return
	}
	if w.Sig, err = n.router.SignAs(w.SignedBody()); err != nil {
		n.logf("backbone %s: sign welcome: %v", n.id, err)
		return
	}
	frame, err := transport.EncodeFrame(transport.KindRouterWelcome, w.Marshal())
	if err != nil {
		return
	}

	l := newLink(peer, addr, deriveLinkKeys(dh, peer, n.id, m.Share, share, m.Nonce[:], w.Nonce[:]), now)
	l.hello, l.welcome = m.Nonce, frame
	// The welcome goes first: the initiator has no link to open the round
	// on before it.
	n.eg.Queue(frame, addr)
	n.install(l, now)
}

// handleWelcome completes a handshake this node initiated.
func (n *Node) handleWelcome(m *routerWelcome, now time.Time) {
	peer := m.Cert.SubjectID
	p := n.pending[peer]
	addr := n.dials[peer]
	if p == nil || addr == nil || m.Echo != p.nonce {
		return // stale or unsolicited
	}
	if err := n.checkPeerCert(m.Cert, m.SignedBody(), m.Sig, m.Timestamp, now); err != nil {
		n.logf("backbone %s: welcome from %s refused: %v", n.id, peer, err)
		return
	}
	peerShare, err := new(bn256.G1).Unmarshal(m.Share)
	if err != nil {
		return
	}
	dh := new(bn256.G1).ScalarMult(peerShare, p.scalar).Marshal()
	delete(n.pending, peer)
	n.install(newLink(peer, addr, deriveLinkKeys(dh, n.id, peer, p.share, m.Share, p.nonce[:], m.Nonce[:]), now), now)
}
