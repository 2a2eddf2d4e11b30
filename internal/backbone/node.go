package backbone

import (
	"container/heap"
	"crypto/rand"
	"fmt"
	"math/big"
	"net"
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
	// PeerTimeout declares a link dead after this much gossip silence;
	// the initiator side then re-runs the handshake. Default
	// 15 × GossipInterval.
	PeerTimeout time.Duration
	// GraceWindow is how long after a roaming handoff the previous router
	// keeps forwarding in-flight frames before releasing the session.
	// Default 10s.
	GraceWindow time.Duration
	// RelayTTL bounds backbone hops per relayed frame. Default 8.
	RelayTTL int
	// HelloFreshness bounds the age of handshake timestamps. Default 30s.
	HelloFreshness time.Duration
	// MaxHops drops route advertisements beyond this distance (bounds
	// count-to-infinity churn on partitions). Default 32.
	MaxHops uint32
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
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 15 * c.GossipInterval
	}
	if c.GraceWindow <= 0 {
		c.GraceWindow = 10 * time.Second
	}
	if c.RelayTTL < 1 {
		c.RelayTTL = 8
	}
	if c.HelloFreshness <= 0 {
		c.HelloFreshness = 30 * time.Second
	}
	if c.MaxHops == 0 {
		c.MaxHops = 32
	}
	if c.Clock == nil {
		c.Clock = core.SystemClock{}
	}
	return c
}

// backboneIOBatch is how many datagrams one recvmmsg/sendmmsg moves on
// the backbone socket; backboneFrameSize is the egress buffer class
// (gossip rounds and relayed data frames fit, owner ads are cut to it);
// backboneFlushDelay bounds how long a queued envelope waits for
// batch-mates when no burst boundary flushes it first; triggerSpacing is
// how far ahead a route change — a link came up, a round taught a new or
// shorter route — pulls the next gossip round in, so that whatever else
// changes meanwhile rides the same round.
const (
	backboneIOBatch    = 16
	backboneFrameSize  = 4096
	backboneFlushDelay = 200 * time.Microsecond
	triggerSpacing     = 10 * time.Millisecond
)

// routeEntry is one distance-vector entry: reach a router via a directly
// linked peer at a hop count.
type routeEntry struct {
	via  string
	hops uint32
}

// expiryQueue is a min-heap of the node's ownership records on Expires.
type expiryQueue []*transport.OwnerAd

func (q expiryQueue) Len() int           { return len(q) }
func (q expiryQueue) Less(i, j int) bool { return q[i].Expires.Before(q[j].Expires) }
func (q expiryQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *expiryQueue) Push(x any)        { *q = append(*q, x.(*transport.OwnerAd)) }
func (q *expiryQueue) Pop() any {
	old := *q
	last := len(old) - 1
	ad := old[last]
	old[last] = nil
	*q = old[:last]
	return ad
}

// pendingDial is an initiator's outstanding hello: the nonce and DH
// scalar it committed to, the encoded frame for retransmission (the
// same hello is re-sent until the welcome lands, so the responder's
// welcome replay cache stays coherent), when it was signed and when it
// was last sent.
type pendingDial struct {
	nonce  [transport.BackboneNonceSize]byte
	scalar *big.Int
	share  []byte
	frame  []byte
	signed time.Time
	sent   time.Time
}

// welcomeReplay caches the welcome answered to one hello nonce so a
// retransmitted hello gets the identical welcome back instead of a new
// handshake that would desynchronize the link keys.
type welcomeReplay struct {
	nonce [transport.BackboneNonceSize]byte
	frame []byte
}

// Node is one router's presence on the metro backbone: it owns the
// backbone socket, runs the link handshakes, gossips liveness and routes,
// floods session ownership and re-sends it until acknowledged, relays
// data frames multi-hop, and implements the transport server's Forwarder
// / HandoffObserver hooks.
type Node struct {
	cfg    Config
	id     string
	conn   net.PacketConn
	server *transport.Server
	router *core.MeshRouter
	stats  *transport.Stats

	// bc is the batch view of the backbone socket (recvmmsg/sendmmsg
	// where available); eg coalesces gossip rounds, relays and floods
	// into one sendmmsg per burst, sealing envelopes into framePool
	// buffers in place.
	bc        batchio.Conn
	eg        *batchio.Egress
	framePool *batchio.Pool

	// Relay-delivery scratch, used only by the read loop: the decode
	// frame and open-plaintext buffer of relayed-in data frames.
	scratchFrame core.DataFrame
	pt           []byte

	// maxAdsPlaintext is the largest handoff-announce plaintext whose
	// sealed frame still fits one backboneFrameSize egress buffer.
	maxAdsPlaintext int

	mu       sync.Mutex
	dials    map[string]net.Addr // configured peers, by router id
	links    map[string]*link    // established links, by router id
	pending  map[string]*pendingDial
	welcomes map[string]*welcomeReplay
	routes   map[string]routeEntry
	// owners holds every ownership record until it expires, keyed by the
	// adopted session; expiry orders the same records for the tick.
	owners map[core.SessionID]*transport.OwnerAd
	expiry expiryQueue

	// Backbone-native instruments, registered in the owning server's
	// registry so one /metrics scrape of a router also exposes its gossip
	// plane: gossip rounds sealed out, owner-ad copies sealed out (flood,
	// retransmission and link-up backlog alike), link handshakes completed
	// (both roles), sealed envelopes dropped before dispatch (no link, bad
	// key, replay), and envelopes refused at sealing because no datagram
	// could carry them.
	gossipRounds   *metrics.Counter
	ownerAdsSent   *metrics.Counter
	handshakesDone *metrics.Counter
	envelopeDrops  *metrics.Counter
	oversizeDrops  *metrics.Counter

	// trigger pulls the gossip loop's next round in after a route change;
	// done stops the loop.
	trigger chan struct{}
	done    chan struct{}
	closed  atomic.Bool
	wg      sync.WaitGroup
}

// NewNode starts a backbone node for server on conn (the router's
// dedicated backbone socket) and installs itself as the server's
// forwarder and handoff observer. Close the node before the server.
func NewNode(conn net.PacketConn, server *transport.Server, cfg Config) *Node {
	n := &Node{
		cfg:       cfg.withDefaults(),
		id:        server.Router().ID(),
		conn:      conn,
		server:    server,
		router:    server.Router(),
		stats:     server.Stats(),
		framePool: batchio.NewPool(backboneFrameSize),
		pt:        make([]byte, 0, 65536),
		dials:     make(map[string]net.Addr),
		links:     make(map[string]*link),
		pending:   make(map[string]*pendingDial),
		welcomes:  make(map[string]*welcomeReplay),
		routes:    make(map[string]routeEntry),
		owners:    make(map[core.SessionID]*transport.OwnerAd),
		trigger:   make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	n.maxAdsPlaintext = backboneFrameSize - transport.HeaderSize - transport.LinkEnvelopeLen(n.id, 0)
	reg := server.Stats().Registry()
	n.gossipRounds = reg.Counter("backbone_gossip_rounds", "gossip rounds sealed to backbone links")
	n.ownerAdsSent = reg.Counter("backbone_owner_ads_sent", "owner ad copies sealed to backbone links")
	n.handshakesDone = reg.Counter("backbone_handshakes", "backbone link handshakes completed")
	n.envelopeDrops = reg.Counter("backbone_envelope_drops", "sealed backbone envelopes dropped before dispatch")
	n.oversizeDrops = reg.Counter("backbone_oversize_drops", "backbone envelopes refused at sealing: larger than a datagram")
	var batched bool
	n.bc, batched = batchio.Upgrade(conn)
	if batched {
		// The read loop is the socket's only reader and reads it into
		// 64 KiB slots, so GSO trains from the peers' egress may arrive
		// whole and be split there.
		batchio.EnableGRO(n.bc, n.stats.NoteRxSplit)
	}
	n.eg = batchio.NewEgress(n.bc, backboneIOBatch, backboneFlushDelay, n.framePool, nil)
	server.SetBackbone(n, n)
	n.wg.Add(2)
	go n.readLoop()
	go n.gossipLoop()
	return n
}

// ID returns the router identity this node speaks for.
func (n *Node) ID() string { return n.id }

// Addr returns the backbone socket address.
func (n *Node) Addr() net.Addr { return n.conn.LocalAddr() }

// AddPeer configures a backbone link to a peer router. Both ends
// configure each other; the lexicographically smaller ID initiates the
// handshake (a deterministic tie-break so simultaneous hellos cannot
// derive mismatched keys) and sends its hello at once, the other answers.
func (n *Node) AddPeer(id string, addr net.Addr) {
	n.mu.Lock()
	n.dials[id] = addr
	frame := n.dial(id, n.cfg.Clock.Now())
	n.mu.Unlock()
	if frame != nil {
		n.eg.Queue(frame, addr)
		n.eg.Flush()
	}
}

// LivePeers returns the IDs of currently established links.
func (n *Node) LivePeers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.links))
	for id := range n.links {
		out = append(out, id)
	}
	return out
}

// HopsTo returns the known backbone distance to a router (0 for self).
func (n *Node) HopsTo(router string) (int, bool) {
	if router == n.id {
		return 0, true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.links[router] != nil {
		return 1, true
	}
	if e, ok := n.routes[router]; ok {
		return int(e.hops), true
	}
	return 0, false
}

// OwnerOf returns which router currently owns a roamed session, if this
// node has seen its ownership announcement and the grace window is open.
func (n *Node) OwnerOf(sid core.SessionID) (string, bool) {
	now := n.cfg.Clock.Now()
	n.mu.Lock()
	ad := n.owners[sid]
	n.mu.Unlock()
	if ad == nil || !now.Before(ad.Expires) {
		return "", false
	}
	return ad.Owner, true
}

// Close stops the loops and closes the backbone socket. The egress is
// closed first so its final flush still has a live socket under it.
// Sessions whose grace window is still open stay with the router.
func (n *Node) Close() {
	if n.closed.Swap(true) {
		return
	}
	close(n.done)
	n.eg.Close()
	_ = n.conn.Close()
	n.wg.Wait()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// ---- transport hooks -------------------------------------------------

// ForwardData implements transport.Forwarder: a data frame for a session
// this router no longer holds is relayed toward the adopting router when
// an unexpired ownership record exists. The frame is marshaled before
// returning (it aliases the server's receive buffer).
func (n *Node) ForwardData(f *core.DataFrame) bool {
	owner, ok := n.OwnerOf(f.Session)
	if !ok || owner == n.id {
		return false
	}
	body := &transport.RelayBody{
		Target:  owner,
		Origin:  n.id,
		TTL:     uint8(n.cfg.RelayTTL),
		Payload: f.Marshal(),
	}
	return n.relay(body)
}

// HandoffAdopted implements transport.HandoffObserver: the local server
// adopted a roamed session, so install the ownership record and flood
// the announcement.
func (n *Node) HandoffAdopted(prev, next core.SessionID, prevRouter string) {
	now := n.cfg.Clock.Now()
	ad := &transport.OwnerAd{
		Next:       next,
		Prev:       prev,
		Owner:      n.id,
		PrevRouter: prevRouter,
		Expires:    now.Add(n.cfg.GraceWindow),
	}
	n.integrateOwner(ad, "", now)
}

// ---- owner / handoff plane -------------------------------------------

// integrateOwner installs one ownership record if it is new and still
// open at now, counts a transfer away from this router (the tick
// releases the session when the record expires), and floods the ad to
// every link except the one it arrived on: numbered for each link,
// queued there until the peer acknowledges it, sealed at once. Duplicate
// announcements — flood echoes, retransmissions, backlogs — dedup on the
// adopted session ID and do nothing; an ad that arrives expired is
// dropped, never resurrected.
func (n *Node) integrateOwner(ad *transport.OwnerAd, from string, now time.Time) {
	if !now.Before(ad.Expires) {
		return
	}
	var few [4]*link
	targets := few[:0]
	n.mu.Lock()
	if n.owners[ad.Next] != nil {
		n.mu.Unlock()
		return
	}
	rec := *ad
	rec.Seq = 0
	n.owners[rec.Next] = &rec
	heap.Push(&n.expiry, &rec)
	for id, l := range n.links {
		if id != from {
			targets = append(targets, l)
		}
	}
	n.mu.Unlock()

	if rec.PrevRouter == n.id && rec.Owner != n.id {
		n.stats.NoteHandoffOut()
	}
	one := [1]transport.OwnerAd{rec}
	for _, l := range targets {
		one[0].Seq = l.enqueueAds(now, &rec)
		n.sendAds(l, one[:])
	}
}

// sendAds seals numbered owner ads on one link as handoff announces,
// each cut to fit one egress buffer. It is the only way an ad leaves:
// the flood of a fresh handoff, a round's retransmissions and a new
// link's backlog differ in how many ads they pass.
func (n *Node) sendAds(l *link, ads []transport.OwnerAd) {
	if len(ads) == 0 {
		return
	}
	n.ownerAdsSent.Add(int64(len(ads)))
	var pt []byte
	for len(ads) > 0 {
		k := transport.OwnerAdsFit(ads, n.maxAdsPlaintext)
		pt = transport.AppendOwnerAds(pt[:0], ads[:k])
		n.sendSealed(l, transport.KindHandoffAnnounce, pt)
		ads = ads[k:]
	}
}

// sendSealed seals plaintext on one link into a pooled egress buffer —
// frame header first (the envelope size is deterministic), envelope
// sealed in place after it — and queues the datagram for the next
// sendmmsg flush. An envelope no datagram can carry is counted and
// dropped.
func (n *Node) sendSealed(l *link, kind transport.Kind, plaintext []byte) bool {
	b := n.eg.Buffer()
	frame, err := transport.AppendFrameHeader(b.B, kind, transport.LinkEnvelopeLen(n.id, len(plaintext)))
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

// relay sends one relay body toward its target and counts the hop.
func (n *Node) relay(body *transport.RelayBody) bool {
	l := n.nextHop(body.Target)
	if l == nil {
		return false
	}
	if !n.sendSealed(l, transport.KindRelay, body.Marshal()) {
		return false
	}
	n.stats.NoteFrameRelayed()
	return true
}

// nextHop picks the link toward a target router: direct when linked,
// else the distance-vector route.
func (n *Node) nextHop(target string) *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l := n.links[target]; l != nil {
		return l
	}
	if e, ok := n.routes[target]; ok {
		return n.links[e.via]
	}
	return nil
}

// handleRelay processes one relay envelope: deliver at the target,
// forward with a decremented TTL otherwise.
func (n *Node) handleRelay(body *transport.RelayBody) {
	if body.Target == n.id {
		// Zero-copy delivery: decode into the read loop's scratch frame
		// (handleRelay only runs there) and open into its plaintext buffer.
		if err := core.UnmarshalDataFrameInto(body.Payload, &n.scratchFrame); err != nil {
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
		return
	}
	if body.TTL == 0 {
		n.logf("backbone %s: relay TTL exhausted toward %s", n.id, body.Target)
		return
	}
	body.TTL--
	n.relay(body)
}

// ---- gossip plane ------------------------------------------------------

// gossipLoop runs the tick: every GossipInterval, and triggerSpacing
// after a route change asked for a round sooner (further changes inside
// that spacing ride the same round).
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.GossipInterval)
	defer t.Stop()
	pulled := false
	for {
		select {
		case <-n.done:
			return
		case <-n.trigger:
			if !pulled && n.cfg.GossipInterval > triggerSpacing {
				pulled = true
				t.Reset(triggerSpacing)
			}
		case <-t.C:
			if pulled {
				pulled = false
				t.Reset(n.cfg.GossipInterval)
			}
			n.tick(n.cfg.Clock.Now())
		}
	}
}

// triggerRound asks the gossip loop for a round within triggerSpacing.
func (n *Node) triggerRound() {
	select {
	case n.trigger <- struct{}{}:
	default:
	}
}

// tick is the maintenance pass at now: expire silent links, (re)send the
// hellos of configured-but-down links, drop expired ownership records —
// releasing the sessions handed off from this router — and send one
// round on every live link. Its cost follows the links, the routes and
// the ads still unacknowledged, not the ads held.
func (n *Node) tick(now time.Time) {
	if n.closed.Load() {
		return
	}
	type hello struct {
		frame []byte
		addr  net.Addr
	}
	var hellos []hello
	type round struct {
		l      *link
		routes []transport.RouteAd
	}
	var rounds []round
	var released []core.SessionID

	n.mu.Lock()
	for id, l := range n.links {
		if now.Sub(l.seen()) > n.cfg.PeerTimeout {
			delete(n.links, id)
			delete(n.welcomes, id)
			for r, e := range n.routes {
				if e.via == id {
					delete(n.routes, r)
				}
			}
		}
	}
	for id, addr := range n.dials {
		if frame := n.dial(id, now); frame != nil {
			hellos = append(hellos, hello{frame: frame, addr: addr})
		}
	}
	for len(n.expiry) > 0 && !now.Before(n.expiry[0].Expires) {
		ad := heap.Pop(&n.expiry).(*transport.OwnerAd)
		delete(n.owners, ad.Next)
		if ad.PrevRouter == n.id && ad.Owner != n.id {
			released = append(released, ad.Prev)
		}
	}
	for id, l := range n.links {
		rounds = append(rounds, round{l: l, routes: n.routesFor(id)})
	}
	n.mu.Unlock()

	// The grace window of these handoffs closed: in-flight frames stop
	// forwarding, the audit log entries survive the release.
	for _, sid := range released {
		n.router.ReleaseSession(sid)
	}
	n.stats.SetGossipPeers(int64(len(rounds)))
	for _, h := range hellos {
		n.eg.Queue(h.frame, h.addr)
	}
	for _, r := range rounds {
		n.sendRound(r.l, r.routes, now)
	}
	// One tick, one flush: hellos and every link's round leave together.
	n.eg.Flush()
}

// routesFor composes the route list of a round to peer (under n.mu):
// every other live link at one hop and the distance-vector table, with
// split horizon — routes that go via peer are withheld.
func (n *Node) routesFor(peer string) []transport.RouteAd {
	routes := make([]transport.RouteAd, 0, len(n.routes)+len(n.links))
	for r, e := range n.routes {
		if e.via != peer && r != peer {
			routes = append(routes, transport.RouteAd{Router: r, Hops: e.hops})
		}
	}
	for id := range n.links {
		if id != peer {
			routes = append(routes, transport.RouteAd{Router: id, Hops: 1})
		}
	}
	return routes
}

// sendRound seals one round on a link: the gossip body — boot epoch,
// routes, the acknowledgement of the peer's ads — and behind it the
// link's own ads that are due, which on a link that just came up is
// every unexpired ad and otherwise only what the peer has left
// unacknowledged over a whole round of its own.
func (n *Node) sendRound(l *link, routes []transport.RouteAd, now time.Time) {
	due, ack, base := l.dueAds(now)
	body := &transport.GossipBody{BootEpoch: n.server.BootEpoch(), AdAck: ack, AdBase: base, Routes: routes}
	if n.sendSealed(l, transport.KindGossip, body.Marshal()) {
		n.gossipRounds.Add(1)
	}
	n.sendAds(l, due)
}

// dial returns the hello to send toward a configured peer at now (under
// n.mu), or nil: the link is up, the peer is the designated initiator,
// or the pending hello went out less than an interval ago. A hello too
// old to pass the peer's freshness check is replaced by a new one.
func (n *Node) dial(peer string, now time.Time) []byte {
	if n.links[peer] != nil || n.id >= peer {
		return nil
	}
	p := n.pending[peer]
	if p == nil || now.Sub(p.signed) > n.cfg.HelloFreshness/2 {
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

// newDial builds a fresh signed hello (called under n.mu).
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
	hello := &transport.RouterHello{
		Cert:      c,
		Share:     p.share,
		Nonce:     p.nonce,
		Timestamp: now,
	}
	if hello.Sig, err = n.router.SignAs(hello.SignedBody()); err != nil {
		return nil, err
	}
	if p.frame, err = transport.EncodeMessage(hello); err != nil {
		return nil, err
	}
	return p, nil
}

// install makes l the link to its peer (under n.mu) and returns what its
// first round carries: the routes, and every unexpired ownership record
// queued on l as never sealed — the new link's ad sequence starts over,
// which is what lets a router that was cut off, or rebooted, catch up.
func (n *Node) install(l *link, now time.Time) []transport.RouteAd {
	n.links[l.peer] = l
	backlog := make([]*transport.OwnerAd, 0, len(n.expiry))
	for _, ad := range n.expiry {
		if now.Before(ad.Expires) {
			backlog = append(backlog, ad)
		}
	}
	l.enqueueAds(time.Time{}, backlog...)
	return n.routesFor(l.peer)
}

// linkUp follows a completed handshake in either role: the new link's
// first round leaves at once, and the other links hear of the new
// neighbour within triggerSpacing.
func (n *Node) linkUp(l *link, routes []transport.RouteAd, now time.Time) {
	n.handshakesDone.Add(1)
	n.sendRound(l, routes, now)
	n.triggerRound()
}

// integrateGossip folds one gossip round from a live peer into the link's
// ad queue and the routing table; a route learned or shortened asks for
// a round to pass it on.
func (n *Node) integrateGossip(l *link, body *transport.GossipBody) {
	l.peerRound(body.AdAck, body.AdBase)
	improved := false
	n.mu.Lock()
	for _, ad := range body.Routes {
		if ad.Router == n.id || ad.Hops+1 > n.cfg.MaxHops {
			continue
		}
		cand := routeEntry{via: l.peer, hops: ad.Hops + 1}
		cur, ok := n.routes[ad.Router]
		better := !ok || cand.hops < cur.hops
		if better || cur.via == l.peer {
			n.routes[ad.Router] = cand
		}
		improved = improved || better
	}
	n.mu.Unlock()
	if improved {
		n.triggerRound()
	}
}

// ---- socket loop -------------------------------------------------------

func (n *Node) readLoop() {
	defer n.wg.Done()
	ring := batchio.NewRing(backboneIOBatch, batchio.NewPool(65536))
	defer ring.Close()
	for {
		ms := ring.Prepare()
		nr, err := n.bc.ReadBatch(ms)
		if err != nil {
			if n.closed.Load() {
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			n.logf("backbone %s: read: %v", n.id, err)
			return
		}
		for i := 0; i < nr; i++ {
			n.dispatch(&ms[i])
		}
		// Everything a batch provoked (relay forwards, flood echoes,
		// welcomes) leaves in one sendmmsg.
		n.eg.Flush()
	}
}

// dispatch decodes and serves one ingest slot. Every decoder below
// copies what it keeps, so the slot is free for reuse on return; only
// the hello path clones the peer address, which outlives the batch
// inside the installed link.
func (n *Node) dispatch(m *batchio.Message) {
	kind, payload, err := transport.DecodeFrame(m.Payload())
	if err != nil {
		return
	}
	switch kind {
	case transport.KindRouterHello:
		h, err := transport.UnmarshalRouterHello(payload)
		if err != nil {
			return
		}
		n.handleHello(h, batchio.CloneAddr(m.Addr))
	case transport.KindRouterWelcome:
		w, err := transport.UnmarshalRouterWelcome(payload)
		if err != nil {
			return
		}
		n.handleWelcome(w)
	case transport.KindGossip, transport.KindRelay, transport.KindHandoffAnnounce:
		env, err := transport.UnmarshalLinkEnvelope(payload)
		if err != nil {
			return
		}
		n.handleEnvelope(kind, env)
	}
}

// handleEnvelope opens a sealed envelope on the sender's link and
// dispatches its plaintext.
func (n *Node) handleEnvelope(kind transport.Kind, env *transport.LinkEnvelope) {
	n.mu.Lock()
	l := n.links[env.From]
	n.mu.Unlock()
	if l == nil {
		n.envelopeDrops.Add(1)
		return
	}
	now := n.cfg.Clock.Now()
	pt, err := l.open(kind, env, now)
	if err != nil {
		// Replays, stale keys after a peer restart, corrupted datagrams —
		// all drop silently; gossip silence eventually expires a dead key.
		n.envelopeDrops.Add(1)
		return
	}
	switch kind {
	case transport.KindGossip:
		body, err := transport.UnmarshalGossipBody(pt)
		if err != nil {
			return
		}
		n.integrateGossip(l, body)
	case transport.KindRelay:
		body, err := transport.UnmarshalRelayBody(pt)
		if err != nil {
			return
		}
		n.handleRelay(body)
	case transport.KindHandoffAnnounce:
		ads, err := transport.UnmarshalOwnerAds(pt)
		if err != nil {
			return
		}
		l.noteAds(ads)
		for i := range ads {
			n.integrateOwner(&ads[i], env.From, now)
		}
	}
}

// checkPeerCert verifies a handshake certificate against the NO
// authority and the installed CRL, and the handshake signature under it.
func (n *Node) checkPeerCert(c *cert.Certificate, signedBody, sig []byte, ts, now time.Time) error {
	if d := now.Sub(ts); d > n.cfg.HelloFreshness || d < -n.cfg.HelloFreshness {
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
// retransmitted hello (same nonce) gets the cached welcome, keeping
// exactly one key derivation per handshake.
func (n *Node) handleHello(m *transport.RouterHello, addr net.Addr) {
	peer := m.Cert.SubjectID
	if peer == n.id {
		return
	}

	n.mu.Lock()
	cached := n.welcomes[peer]
	n.mu.Unlock()
	if cached != nil && cached.nonce == m.Nonce {
		n.eg.Queue(cached.frame, addr)
		return
	}

	now := n.cfg.Clock.Now()
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

	w := &transport.RouterWelcome{
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
	frame, err := transport.EncodeMessage(w)
	if err != nil {
		return
	}

	keys := deriveLinkKeys(dh, peer, n.id, m.Share, share, m.Nonce[:], w.Nonce[:])
	l := newLink(peer, addr, keys, now)
	n.mu.Lock()
	routes := n.install(l, now)
	n.welcomes[peer] = &welcomeReplay{nonce: m.Nonce, frame: frame}
	n.mu.Unlock()

	// The welcome goes first: the initiator has no link to open the round
	// on before it.
	n.eg.Queue(frame, addr)
	n.linkUp(l, routes, now)
}

// handleWelcome completes a handshake this node initiated.
func (n *Node) handleWelcome(m *transport.RouterWelcome) {
	peer := m.Cert.SubjectID
	n.mu.Lock()
	p := n.pending[peer]
	addr := n.dials[peer]
	n.mu.Unlock()
	if p == nil || addr == nil || m.Echo != p.nonce {
		return // stale or unsolicited
	}
	now := n.cfg.Clock.Now()
	if err := n.checkPeerCert(m.Cert, m.SignedBody(), m.Sig, m.Timestamp, now); err != nil {
		n.logf("backbone %s: welcome from %s refused: %v", n.id, peer, err)
		return
	}
	peerShare, err := new(bn256.G1).Unmarshal(m.Share)
	if err != nil {
		return
	}
	dh := new(bn256.G1).ScalarMult(peerShare, p.scalar).Marshal()
	keys := deriveLinkKeys(dh, n.id, peer, p.share, m.Share, p.nonce[:], m.Nonce[:])
	l := newLink(peer, addr, keys, now)

	n.mu.Lock()
	delete(n.pending, peer)
	routes := n.install(l, now)
	n.mu.Unlock()
	n.linkUp(l, routes, now)
}
