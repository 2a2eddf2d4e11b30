package backbone_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/chaos"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
)

// The control-plane tests run backbone nodes over an in-memory datagram
// fabric, each endpoint wrapped in a seeded chaos.Conn, with protocol
// time on a clock the test owns. No node runs a goroutine: the test
// steps every node and then delivers until no datagram is in flight, so
// a run depends on its seeds and nothing else.

const (
	planeInterval = 200 * time.Millisecond
	planeGrace    = 10 * time.Second
	// maxDeliveryRounds bounds one delivery: nodes still answering each
	// other after that many rounds are in a livelock.
	maxDeliveryRounds = 1000
)

// fabric is an in-memory datagram network. Each endpoint has a fake UDP
// address and a queue; a write lands in the queue of the endpoint it
// addresses, or nowhere.
type fabric struct {
	ends map[string]*endpoint
}

type datagram struct {
	data []byte
	from net.Addr
}

// endpoint is one fabric address as a net.PacketConn. A read with
// nothing queued fails at once with a timeout, like a socket whose
// deadline passed.
type endpoint struct {
	f      *fabric
	addr   *net.UDPAddr
	queue  []datagram
	closed bool
}

func (f *fabric) listen() *endpoint {
	e := &endpoint{f: f, addr: &net.UDPAddr{IP: net.IPv4(10, 0, 0, byte(len(f.ends)+1)), Port: 7000}}
	f.ends[e.addr.String()] = e
	return e
}

func (e *endpoint) WriteTo(p []byte, addr net.Addr) (int, error) {
	if e.closed {
		return 0, net.ErrClosed
	}
	if dst := e.f.ends[addr.String()]; dst != nil && !dst.closed {
		dst.queue = append(dst.queue, datagram{data: bytes.Clone(p), from: e.addr})
	}
	return len(p), nil
}

func (e *endpoint) ReadFrom(p []byte) (int, net.Addr, error) {
	if e.closed {
		return 0, nil, net.ErrClosed
	}
	if len(e.queue) == 0 {
		return 0, nil, drained{}
	}
	d := e.queue[0]
	e.queue = e.queue[1:]
	return copy(p, d.data), d.from, nil
}

func (e *endpoint) Close() error {
	e.closed, e.queue = true, nil
	return nil
}

func (e *endpoint) LocalAddr() net.Addr              { return e.addr }
func (e *endpoint) SetDeadline(time.Time) error      { return nil }
func (e *endpoint) SetReadDeadline(time.Time) error  { return nil }
func (e *endpoint) SetWriteDeadline(time.Time) error { return nil }

// drained is the error of a read from an empty endpoint.
type drained struct{}

func (drained) Error() string   { return "fabric: nothing queued" }
func (drained) Timeout() bool   { return true }
func (drained) Temporary() bool { return true }

// frameStats counts, per frame kind, the datagrams a node wrote (before
// faults) and the largest one.
type frameStats struct {
	wrote  map[transport.Kind]int
	widest map[transport.Kind]int
}

func (s *frameStats) stat(kind transport.Kind) (wrote, widest int) {
	return s.wrote[kind], s.widest[kind]
}

// plane is n routers of one NO with a backbone node each, unlinked until
// the test links them.
type plane struct {
	t       testing.TB
	clock   *core.FixedClock
	net     *transport.LocalNetwork
	servers []*transport.Server
	nodes   []*backbone.Node
	ends    []*endpoint
	faults  []*chaos.Conn
	logs    []*frameStats
}

func newPlane(t testing.TB, n int, cfg backbone.Config) *plane {
	t.Helper()
	ln, err := transport.NewLocalNetwork(core.Config{}, "grp-plane", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return newPlaneOn(t, ln, n, cfg, 7)
}

// newPlaneOn builds a plane over the first n routers of ln, seeding the
// fault streams from seed. Protocol time starts a day before the
// routers' certificates expire and only moves when the test says so.
func newPlaneOn(t testing.TB, ln *transport.LocalNetwork, n int, cfg backbone.Config, seed int64) *plane {
	t.Helper()
	p := &plane{t: t, net: ln, clock: &core.FixedClock{T: ln.Routers[0].Certificate().ExpiresAt.Add(-24 * time.Hour)}}
	if cfg.Clock == nil {
		cfg.Clock = p.clock
	}
	if cfg.GossipInterval == 0 {
		cfg.GossipInterval = planeInterval
	}
	if cfg.GraceWindow == 0 {
		cfg.GraceWindow = planeGrace
	}
	fab := &fabric{ends: map[string]*endpoint{}}
	for i := 0; i < n; i++ {
		user, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.NewServer(user, ln.Routers[i], transport.ServerConfig{BootEpoch: uint64(100 + i)})
		end := fab.listen()
		fault := chaos.Wrap(end, chaos.FaultPlan{}, chaos.FaultPlan{}, seed+int64(i))
		log := &frameStats{wrote: map[transport.Kind]int{}, widest: map[transport.Kind]int{}}
		fault.Tap(func(dir chaos.Direction, _ net.Addr, data []byte) {
			if kind, _, err := transport.DecodeFrame(data); err == nil && dir == chaos.Sent {
				log.wrote[kind]++
				log.widest[kind] = max(log.widest[kind], len(data))
			}
		})
		node := backbone.NewStepped(fault, srv, cfg)
		p.servers = append(p.servers, srv)
		p.ends = append(p.ends, end)
		p.faults = append(p.faults, fault)
		p.logs = append(p.logs, log)
		p.nodes = append(p.nodes, node)
		t.Cleanup(func() {
			node.Close()
			srv.Close()
		})
	}
	return p
}

// link configures the link i–j on both ends.
func (p *plane) link(i, j int) {
	p.nodes[i].AddPeer(p.nodes[j].ID(), p.nodes[j].Addr())
	p.nodes[j].AddPeer(p.nodes[i].ID(), p.nodes[i].Addr())
}

// connect links i–j for every pair of edges and brings the links up on
// triggered rounds alone, at most one triggerSpacing of protocol time per
// router, failing the test unless converged holds then.
func (p *plane) connect(edges [][2]int, converged func() bool) {
	p.t.Helper()
	for _, e := range edges {
		p.link(e[0], e[1])
	}
	p.stepNodes()
	for r := 0; r < len(p.nodes) && !converged(); r++ {
		p.clock.Advance(backbone.TriggerSpacing)
		p.stepNodes()
	}
	if !converged() {
		p.t.Fatal("the links did not converge on triggered rounds")
	}
}

// linkLine links the first n nodes into a line, and brings it up until
// each routes to every other at its distance along the line.
func (p *plane) linkLine(n int) {
	p.t.Helper()
	var edges [][2]int
	for k := 0; k+1 < n; k++ {
		edges = append(edges, [2]int{k, k + 1})
	}
	p.connect(edges, func() bool {
		for i, a := range p.nodes[:n] {
			for j, b := range p.nodes[:n] {
				if h, ok := a.HopsTo(b.ID()); !ok || h != max(i-j, j-i) {
					return false
				}
			}
		}
		return true
	})
}

// deliver serves queued datagrams, node by node, until none is in
// flight.
func (p *plane) deliver() {
	p.t.Helper()
	now := p.clock.Now()
	for round := 0; ; round++ {
		if round == maxDeliveryRounds {
			p.t.Fatalf("datagrams still in flight after %d delivery rounds: livelock", round)
		}
		busy := false
		for i, n := range p.nodes {
			if len(p.ends[i].queue) > 0 {
				busy = true
				n.Serve(now)
			}
		}
		if !busy {
			return
		}
	}
}

// stepNodes steps every node at the present protocol time, one after the
// other as the unsynchronised loops of real routers would, delivering
// what each step sent before the next node steps.
func (p *plane) stepNodes() {
	p.t.Helper()
	now := p.clock.Now()
	for _, n := range p.nodes {
		n.Step(now)
		p.deliver()
	}
}

// flushInboxes lets the inbox window pass: every node takes what was
// handed to it and sends what that provokes.
func (p *plane) flushInboxes() {
	p.t.Helper()
	p.clock.Advance(backbone.FlushDelay)
	p.stepNodes()
}

// step is one interval of protocol time: the clock moves on, and every
// node steps — which runs its tick — with its round delivered.
func (p *plane) step() time.Time {
	p.t.Helper()
	p.clock.Advance(planeInterval)
	p.stepNodes()
	return p.clock.Now()
}

func (p *plane) counter(i int, name string) int64 {
	return p.servers[i].Stats().Snapshot().Value(name)
}

// sid derives a distinct session ID from a label and an index.
func sid(label string, i int) core.SessionID {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(i))
	return core.SessionID(sha256.Sum256(append([]byte(label), buf[:]...)))
}

// adopt has node at announce count handoffs labelled label, away from
// the router of node from, and returns the adopted session IDs. The node
// floods them at its first step once the inbox window has passed.
func (p *plane) adopt(at, from int, label string, lo, hi int) []core.SessionID {
	ids := make([]core.SessionID, 0, hi-lo)
	for i := lo; i < hi; i++ {
		next := sid(label+"/next", i)
		p.nodes[at].HandoffAdopted(sid(label+"/prev", i), next, p.nodes[from].ID())
		ids = append(ids, next)
	}
	return ids
}

// knows reports how many of ids node i resolves to owner.
func (p *plane) knows(i int, ids []core.SessionID, owner string) int {
	n := 0
	for _, id := range ids {
		if got, ok := p.nodes[i].OwnerOf(id); ok && got == owner {
			n++
		}
	}
	return n
}

// hold installs a session at router i under the prev ID of handoff
// label/k, as if it had been attached there, and returns the ID.
func (p *plane) hold(i int, label string, k int) core.SessionID {
	id := sid(label+"/prev", k)
	sess := core.ResumeSession(id, []byte("secret"), []byte("cn"), []byte("sn"), "user", p.clock.Now())
	sess.ID = id
	p.net.Routers[i].AdoptResumedSession(sess, nil)
	return id
}

func (p *plane) held(i int, id core.SessionID) bool {
	_, ok := p.net.Routers[i].SessionByID(id)
	return ok
}

// placedAt reports whether node i alone resolves ids to owner: every
// other router knows none of them.
func (p *plane) placedAt(i int, ids []core.SessionID, owner string) bool {
	for j := range p.nodes {
		want := 0
		if j == i {
			want = len(ids)
		}
		if p.knows(j, ids, owner) != want {
			return false
		}
	}
	return true
}

// TestGossipRoundFitsBufferAtAnyRate holds a three-node line at 6,000
// live ads — one benchmark epoch of roam_handoff — for longer than
// PeerTimeout. Every tick must seal a round on every link, no gossip or
// relay frame may outgrow the egress buffer class, nothing may be
// refused at sealing, the links must stay up on those rounds alone, every
// ad must be at its previous router and nowhere else, and the ads must
// leave packed into buffer-sized relays, not one relay per ad.
func TestGossipRoundFitsBufferAtAnyRate(t *testing.T) {
	p := newPlane(t, 3, backbone.Config{})
	p.linkLine(3)

	// Router i adopts away from router i+1 (mod 3): the last batch crosses
	// the middle router.
	const perNode = 2000
	var ids [3][]core.SessionID
	for i := range ids {
		ids[i] = p.adopt(i, (i+1)%3, fmt.Sprintf("rate-%d", i), 0, perNode)
	}
	placed := func() bool {
		for o := range ids {
			if !p.placedAt((o+1)%3, ids[o], p.nodes[o].ID()) {
				return false
			}
		}
		return true
	}
	links := []int{1, 2, 1}
	for tick := 0; tick < 20; tick++ { // 4 s of protocol time; PeerTimeout is 3 s
		var before [3]int64
		for i := range before {
			before[i] = p.counter(i, "backbone_gossip_rounds")
		}
		p.clock.Advance(planeInterval)
		now := p.clock.Now()
		for i := 0; i < 3; i++ {
			p.nodes[i].Step(now)
		}
		for i := range before {
			if got := p.counter(i, "backbone_gossip_rounds") - before[i]; got < int64(links[i]) {
				t.Fatalf("tick %d: %s sealed %d rounds on %d links", tick, p.nodes[i].ID(), got, links[i])
			}
		}
		p.deliver()
	}
	if !placed() {
		t.Fatal("6,000 ads not each at their previous router alone after 20 rounds")
	}
	for i := 0; i < 3; i++ {
		if got := len(p.nodes[i].LivePeers()); got != links[i] {
			t.Errorf("%s holds %d live links after 4 s of rounds, want %d", p.nodes[i].ID(), got, links[i])
		}
		if left := p.nodes[i].Unacked(); left != 0 {
			t.Errorf("%s holds %d unacknowledged ads after 4 s of rounds", p.nodes[i].ID(), left)
		}
	}

	for i, l := range p.logs {
		for _, kind := range []transport.Kind{transport.KindGossip, transport.KindRelay} {
			wrote, widest := l.stat(kind)
			if wrote == 0 {
				t.Errorf("%s wrote no %v frame", p.nodes[i].ID(), kind)
			}
			if widest > backbone.FrameSize {
				t.Errorf("%s sealed a %d-byte %v frame, buffer class is %d", p.nodes[i].ID(), widest, kind, backbone.FrameSize)
			}
		}
		if got := p.counter(i, "backbone_oversize_drops"); got != 0 {
			t.Errorf("%s: backbone_oversize_drops = %d", p.nodes[i].ID(), got)
		}
	}
	// The 2,000 ads of one drain left in buffer-sized relays: the cut
	// fills the buffers it is bounded by.
	if wrote, widest := p.logs[0].stat(transport.KindRelay); widest < backbone.FrameSize*3/4 {
		t.Errorf("%s: widest relay %d bytes of %d written — the ads were not packed", p.nodes[0].ID(), widest, wrote)
	}
}

// TestOwnerAdsRoutedNotFlooded adopts sessions on a four-router line,
// first at one end away from the other, then next door. Each time the
// ownership is known at the previous router and at no other: the routers
// on the path forward the ads without keeping them. The ad copies sealed
// per handoff, summed over the routers, follow the path — three hops,
// then one — not the three links a flood from either adopter crosses.
func TestOwnerAdsRoutedNotFlooded(t *testing.T) {
	p := newPlane(t, 4, backbone.Config{})
	p.linkLine(4)
	sent := func() (sum int64) {
		for i := range p.nodes {
			sum += p.counter(i, "backbone_owner_ads_sent")
		}
		return sum
	}
	const n = 20
	for _, tc := range []struct{ at, from, hops int }{{3, 0, 3}, {1, 0, 1}} {
		before := sent()
		ids := p.adopt(tc.at, tc.from, fmt.Sprintf("routed-%d", tc.at), 0, n)
		p.flushInboxes()
		for i := range p.nodes {
			want := 0
			if i == tc.from {
				want = n
			}
			if got := p.knows(i, ids, p.nodes[tc.at].ID()); got != want {
				t.Errorf("adoption at %s: %s knows %d of %d ads, want %d", p.nodes[tc.at].ID(), p.nodes[i].ID(), got, n, want)
			}
		}
		if got := sent() - before; got != n*int64(tc.hops) {
			t.Errorf("adoption at %s: %d ad copies sealed for %d handoffs %d hops away, want %d",
				p.nodes[tc.at].ID(), got, n, tc.hops, n*tc.hops)
		}
		p.step()
		if left := p.nodes[tc.at].Unacked(); left != 0 {
			t.Errorf("adoption at %s: %d ads unacknowledged a round later", p.nodes[tc.at].ID(), left)
		}
	}
}

// TestOwnerAdsSurviveLoss loses 30 % of the datagrams, each way, on one
// link of a line that stays up. Every ad must still reach its previous
// router before it expires, healed by the missing acknowledgement — and
// only by it: an ad is re-sent until acknowledged and no longer, so the
// copies sealed onto the lossy link stay within 5× the ads (the tick-only
// design sealed one copy per tick of the grace window: 50×).
func TestOwnerAdsSurviveLoss(t *testing.T) {
	p := newPlane(t, 3, backbone.Config{})
	p.linkLine(len(p.nodes))
	lossy := chaos.FaultPlan{Drop: 0.3}
	p.faults[0].SetPeerPlans(p.nodes[1].Addr().String(), lossy, lossy)

	const ads, perTick = 300, 30
	// wave has node origin adopt ads sessions away from node prev, a few
	// per tick, and keeps ticking until prev knows all of them — or the
	// first is about to expire.
	wave := func(origin, prev int, label string) {
		t.Helper()
		var ids []core.SessionID
		owner := p.nodes[origin].ID()
		firstExpires := p.clock.Now().Add(planeGrace)
		for len(ids) < ads || p.knows(prev, ids, owner) != len(ids) {
			if len(ids) < ads {
				ids = append(ids, p.adopt(origin, prev, label, len(ids), len(ids)+perTick)...)
			}
			if now := p.step(); !now.Add(planeInterval).Before(firstExpires) {
				t.Fatalf("%s: %d/%d ads at the previous router as the first expires", label,
					p.knows(prev, ids, owner), len(ids))
			}
		}
		if !p.placedAt(prev, ids, owner) {
			t.Fatalf("%s: a router other than the previous one knows an ad", label)
		}
		// The acknowledgements are lossy too; the adopter stops once one
		// gets through.
		for tick := 0; tick < 10 && p.nodes[origin].Unacked() > 0; tick++ {
			p.step()
		}
		if left := p.nodes[origin].Unacked(); left != 0 {
			t.Fatalf("%s: %d ads still unacknowledged ten rounds after the last arrived", label, left)
		}
	}

	// From the first router to the far one, every ad crosses the lossy
	// link first: the first router's sealed copies are that link's.
	wave(0, 2, "loss-out")
	if got := p.counter(0, "backbone_owner_ads_sent"); got > 5*ads {
		t.Errorf("%d ad copies sealed on the lossy link for %d ads, want ≤ %d", got, ads, 5*ads)
	} else {
		t.Logf("lossy link, outbound: %d copies for %d ads", got, ads)
	}
	// From the far router to the first, the middle one forwards them onto
	// the lossy link.
	before := p.counter(1, "backbone_owner_ads_sent")
	wave(2, 0, "loss-in")
	if got := p.counter(1, "backbone_owner_ads_sent") - before; got > 5*ads {
		t.Errorf("%d ad copies forwarded onto the lossy link for %d ads, want ≤ %d", got, ads, 5*ads)
	} else {
		t.Logf("lossy link, forwarded: %d copies for %d ads", got, ads)
	}
	if drops := p.faults[0].Counters().Dropped; drops == 0 {
		t.Fatal("the lossy link dropped nothing")
	}
	for i := range p.nodes {
		if got := len(p.nodes[i].LivePeers()); got != []int{1, 2, 1}[i] {
			t.Errorf("%s: %d live links at the end — the link did not stay up", p.nodes[i].ID(), got)
		}
	}
}

// TestOwnerAdsCrossPartitions cuts the first router of a line off while
// the far router adopts sessions away from it: once for less than
// PeerTimeout (the link survives) and once for longer (the link dies and
// is dialled again). Either way the adopter keeps re-sending. During the
// partition the cut-off router learns nothing and counts no handoff, and
// the middle router, which forwards the ads, keeps none of them; after
// the heal every unexpired ad arrives, and one that expired meanwhile is
// never resurrected.
func TestOwnerAdsCrossPartitions(t *testing.T) {
	const grace = 10 // rounds; PeerTimeout is 15
	for _, tc := range []struct {
		name   string
		rounds int // how long the partition lasts
		redial bool
	}{
		{"shorter than PeerTimeout", 11, false},
		{"longer than PeerTimeout", 20, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPlane(t, 3, backbone.Config{GraceWindow: grace * planeInterval})
			p.linkLine(3)
			handshakes := p.counter(0, "backbone_handshakes")
			owner := p.nodes[2].ID()

			// One ad that will not outlive the partition, then a batch that
			// will.
			p.faults[0].PartitionFor(time.Hour)
			early := p.adopt(2, 0, "part-early", 0, 1)
			for r := 0; r < tc.rounds-3; r++ {
				p.step()
			}
			late := p.adopt(2, 0, "part-late", 0, 200)
			for r := 0; r < 3; r++ {
				p.step()
			}
			if got := p.nodes[2].Unacked(); got != len(late) {
				t.Fatalf("the adopter holds %d unacknowledged ads, want the %d unexpired ones", got, len(late))
			}
			if got := p.knows(0, late, owner); got != 0 {
				t.Fatalf("%d ads crossed the partition", got)
			}
			if got := p.counter(0, "handoffs_out"); got != 0 {
				t.Fatalf("handoffs_out = %d at the partitioned router", got)
			}
			if got := p.knows(1, late, owner); got != 0 {
				t.Fatalf("the middle router keeps %d/%d ads it forwarded", got, len(late))
			}

			p.faults[0].PartitionFor(0)
			for r := 0; r < 4 && p.knows(0, late, owner) != len(late); r++ {
				p.step()
			}
			if got := p.knows(0, late, owner); got != len(late) {
				t.Fatalf("%d/%d unexpired ads arrived after the heal", got, len(late))
			}
			if got := p.counter(0, "handoffs_out"); got != int64(len(late)) {
				t.Errorf("handoffs_out = %d at the healed router, want %d", got, len(late))
			}
			if _, ok := p.nodes[0].OwnerOf(early[0]); ok {
				t.Error("an expired ad was resurrected at the healed router")
			}
			if redialled := p.counter(0, "backbone_handshakes") > handshakes; redialled != tc.redial {
				t.Errorf("link re-established = %v, want %v", redialled, tc.redial)
			}
			// Healed means quiet: nothing is left to re-send.
			p.step()
			p.step()
			for i, n := range p.nodes {
				if left := n.Unacked(); left != 0 {
					t.Errorf("%s: %d ads unacknowledged two rounds after they arrived", p.nodes[i].ID(), left)
				}
			}
		})
	}
}

// TestOwnerAdsRouteAroundCutLink cuts one link of a four-router ring,
// 0–1–2–3–0, while router 2 reaches router 0 through router 1 and adopts
// sessions away from router 0. Once router 1 declares the cut link dead
// and stops advertising router 0, router 2 must drop its route through
// router 1 and take the one through router 3, so every ad reaches router
// 0 over the other half of the ring before it expires, is known nowhere
// else, and is acknowledged.
func TestOwnerAdsRouteAroundCutLink(t *testing.T) {
	p := newPlane(t, 4, backbone.Config{})
	p.linkLine(4)
	p.connect([][2]int{{3, 0}}, func() bool {
		h, ok := p.nodes[3].HopsTo(p.nodes[0].ID())
		return ok && h == 1
	})
	prev, owner := p.nodes[0].ID(), p.nodes[2].ID()
	if via, _ := p.nodes[2].RouteVia(prev); via != p.nodes[1].ID() {
		t.Fatalf("router 2 reaches router 0 via %q before the cut, want via router 1", via)
	}

	p.faults[0].PartitionPeerFor(p.nodes[1].Addr().String(), time.Hour)
	defer p.faults[0].PartitionPeerFor(p.nodes[1].Addr().String(), 0)
	expires := p.clock.Now().Add(planeGrace)
	ids := p.adopt(2, 0, "ring-cut", 0, 20)
	p.flushInboxes()
	rounds := 0
	for ; p.knows(0, ids, owner) != len(ids) || p.nodes[2].Unacked() != 0; rounds++ {
		if now := p.step(); !now.Add(planeInterval).Before(expires) {
			t.Fatalf("%d/%d ads at router 0 and %d unacknowledged as they expire (router 2 routes via %q)",
				p.knows(0, ids, owner), len(ids), p.nodes[2].Unacked(), func() string { v, _ := p.nodes[2].RouteVia(prev); return v }())
		}
	}
	t.Logf("every ad at router 0 and acknowledged %d rounds after the cut", rounds)
	if !p.placedAt(0, ids, owner) {
		t.Error("a router other than the previous one knows an ad")
	}
	if via, _ := p.nodes[2].RouteVia(prev); via != p.nodes[3].ID() {
		t.Errorf("router 2 reaches router 0 via %q after the cut, want via router 3", via)
	}
	if got := p.counter(3, "backbone_owner_ads_sent"); got < int64(len(ids)) {
		t.Errorf("router 3 forwarded %d ad copies, want at least the %d ads", got, len(ids))
	}
}

// TestLinkUpWithoutWaitingForTick configures a line whose gossip interval
// is an hour. AddPeer alone must bring each link up once the inbox window
// has passed, and the middle router's triggered round, one triggerSpacing
// later, must carry the far route: nothing here waits for an interval.
func TestLinkUpWithoutWaitingForTick(t *testing.T) {
	p := newPlane(t, 3, backbone.Config{GossipInterval: time.Hour})
	p.link(0, 1)
	p.flushInboxes()
	a, okA := p.nodes[0].HopsTo(p.nodes[1].ID())
	b, okB := p.nodes[1].HopsTo(p.nodes[0].ID())
	if !okA || !okB || a != 1 || b != 1 {
		t.Fatalf("first link after AddPeer: %d (%v) and %d (%v) hops", a, okA, b, okB)
	}
	p.link(1, 2)
	p.flushInboxes()
	p.clock.Advance(backbone.TriggerSpacing)
	p.stepNodes()
	ac, okA := p.nodes[0].HopsTo(p.nodes[2].ID())
	ca, okC := p.nodes[2].HopsTo(p.nodes[0].ID())
	if !okA || !okC || ac != 2 || ca != 2 {
		t.Fatalf("far routes one triggerSpacing on: %d (%v) and %d (%v) hops", ac, okA, ca, okC)
	}
	for i := range p.nodes {
		if got := p.counter(i, "backbone_envelope_drops"); got != 0 {
			t.Errorf("%s dropped %d envelopes during bring-up", p.nodes[i].ID(), got)
		}
	}
	// Each link carried one hello and one welcome: bring-up does not lean
	// on retransmission.
	for i, want := range []int{1, 1, 0} {
		if got, _ := p.logs[i].stat(transport.KindRouterHello); got != want {
			t.Errorf("%s sent %d hellos, want %d", p.nodes[i].ID(), got, want)
		}
	}
}

// TestStaleHelloIsRedrawn keeps a dial unanswered for longer than the
// handshake freshness window. The initiator must not keep offering the
// hello it signed at the start — the peer would refuse it as stale for
// ever — but sign a fresh one, so the link comes up when the peer does.
func TestStaleHelloIsRedrawn(t *testing.T) {
	p := newPlane(t, 2, backbone.Config{})
	p.faults[1].PartitionFor(time.Hour)
	p.link(0, 1)
	p.flushInboxes()
	p.clock.Advance(time.Minute) // HelloFreshness is 30 s
	p.faults[1].PartitionFor(0)
	p.step()
	if _, ok := p.nodes[1].HopsTo(p.nodes[0].ID()); !ok || len(p.nodes[0].LivePeers()) != 1 {
		t.Fatal("no link one round after a long-unanswered dial was healed")
	}
}

// TestHandoffOutReleasesOnce follows handed-off sessions through the
// expiry queue: the previous router keeps each until its ad expires, no
// tick before that releases it, the first tick at or after does, a
// session that reappears under the same ID is left alone (the release
// happened once), and a closed node releases nothing.
func TestHandoffOutReleasesOnce(t *testing.T) {
	p := newPlane(t, 2, backbone.Config{})
	p.linkLine(len(p.nodes))
	held := func(id core.SessionID) bool { return p.held(0, id) }

	// Two sessions leave router 0 one round apart.
	first := p.hold(0, "rel-a", 0)
	p.adopt(1, 0, "rel-a", 0, 1)
	firstExpires := p.clock.Now().Add(planeGrace)
	p.step()
	second := p.hold(0, "rel-b", 0)
	p.adopt(1, 0, "rel-b", 0, 1)
	p.flushInboxes()
	if got := p.counter(0, "handoffs_out"); got != 2 {
		t.Fatalf("handoffs_out = %d after both handoffs, want 2", got)
	}

	for p.clock.Now().Add(planeInterval).Before(firstExpires) {
		p.step()
		if !held(first) || !held(second) {
			t.Fatalf("a session was released %v before its ad expires", firstExpires.Sub(p.clock.Now()))
		}
	}
	p.nodes[0].Tick(firstExpires.Add(-time.Nanosecond))
	if !held(first) {
		t.Fatal("released a nanosecond early")
	}
	p.nodes[0].Tick(firstExpires)
	if held(first) || !held(second) {
		t.Fatalf("at the first expiry: first held = %v, second held = %v", held(first), held(second))
	}
	// The same ID comes back (a test's liberty); the queue is done with it.
	p.hold(0, "rel-a", 0)
	p.clock.T = firstExpires // catch up with the two ticks above
	p.step()
	if held(second) {
		t.Fatal("second session outlived its grace window by a round")
	}
	for tick := 0; tick < 3; tick++ {
		p.step()
	}
	if !held(first) {
		t.Fatal("a handed-off session was released twice")
	}
	if got := p.counter(0, "handoffs_out"); got != 2 {
		t.Fatalf("handoffs_out = %d, want 2", got)
	}

	// A node closed inside a grace window leaves the session where it is.
	third := p.hold(0, "rel-c", 0)
	p.adopt(1, 0, "rel-c", 0, 1)
	p.flushInboxes()
	if got := p.counter(0, "handoffs_out"); got != 3 {
		t.Fatalf("handoffs_out = %d after the third handoff, want 3", got)
	}
	p.nodes[0].Close()
	p.clock.Advance(2 * planeGrace)
	p.nodes[0].Tick(p.clock.Now())
	if !held(third) {
		t.Fatal("a closed node released a session")
	}
}
