package backbone_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/chaos"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
)

// The control-plane tests run backbone nodes in a line over seeded
// chaos.Conn sockets, with protocol time on a clock the test owns:
// rounds happen when the test calls Tick, never because time passed, and
// every wait is for an event (a datagram processed, a record installed).
// The nodes' own tickers stay armed with the production interval; a tick
// of theirs reads the same frozen clock and at most repeats a round.

const (
	planeInterval = 200 * time.Millisecond
	planeGrace    = 10 * time.Second
)

// testClock is a core.FixedClock the nodes' goroutines may read while
// the test advances it.
type testClock struct {
	mu sync.Mutex
	c  core.FixedClock
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c.Now()
}

func (c *testClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.c.Advance(d)
	return c.c.Now()
}

// frameLog sits between a node and its socket and records, per frame
// kind, how many datagrams the node wrote and the largest one, plus how
// many datagrams reached its read loop.
type frameLog struct {
	net.PacketConn
	mu     sync.Mutex
	wrote  map[transport.Kind]int
	widest map[transport.Kind]int
	moved  int // datagrams written or read
}

func (f *frameLog) WriteTo(p []byte, addr net.Addr) (int, error) {
	f.mu.Lock()
	if kind, _, err := transport.DecodeFrame(p); err == nil {
		f.wrote[kind]++
		f.widest[kind] = max(f.widest[kind], len(p))
	}
	f.moved++
	f.mu.Unlock()
	return f.PacketConn.WriteTo(p, addr)
}

func (f *frameLog) ReadFrom(p []byte) (int, net.Addr, error) {
	n, addr, err := f.PacketConn.ReadFrom(p)
	if err == nil {
		f.mu.Lock()
		f.moved++
		f.mu.Unlock()
	}
	return n, addr, err
}

func (f *frameLog) stat(kind transport.Kind) (wrote, widest int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.wrote[kind], f.widest[kind]
}

// plane is n routers of one NO with a backbone node each, unlinked until
// the test links them.
type plane struct {
	t       testing.TB
	clock   *testClock
	net     *transport.LocalNetwork
	servers []*transport.Server
	nodes   []*backbone.Node
	faults  []*chaos.Conn
	logs    []*frameLog
}

func newPlane(t testing.TB, n int, cfg backbone.Config) *plane {
	t.Helper()
	ln, err := transport.NewLocalNetwork(core.Config{}, "grp-plane", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The routers' certificates are issued on the system clock, so
	// protocol time starts at the present and only moves when told to.
	p := &plane{t: t, net: ln, clock: &testClock{c: core.FixedClock{T: time.Now()}}}
	if cfg.Clock == nil {
		cfg.Clock = p.clock
	}
	if cfg.GossipInterval == 0 {
		cfg.GossipInterval = planeInterval
	}
	if cfg.GraceWindow == 0 {
		cfg.GraceWindow = planeGrace
	}
	for i := 0; i < n; i++ {
		user, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.NewServer(user, ln.Routers[i], transport.ServerConfig{BootEpoch: uint64(100 + i)})
		bb, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fault := chaos.Wrap(bb, chaos.FaultPlan{}, chaos.FaultPlan{}, int64(7+i))
		log := &frameLog{PacketConn: fault, wrote: map[transport.Kind]int{}, widest: map[transport.Kind]int{}}
		node := backbone.NewNode(log, srv, cfg)
		p.servers = append(p.servers, srv)
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

// linkLine links the first n nodes into a line and waits until each has
// a route to every other.
func (p *plane) linkLine(n int) {
	p.t.Helper()
	for k := 0; k+1 < n; k++ {
		p.link(k, k+1)
	}
	p.waitFor("line converged", func() bool {
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

func (p *plane) waitFor(what string, cond func() bool) {
	p.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			p.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// settle waits until no node has written or read a datagram for a few
// milliseconds: everything the last step provoked has been processed.
func (p *plane) settle() {
	moved := func() int {
		total := 0
		for _, l := range p.logs {
			l.mu.Lock()
			total += l.moved
			l.mu.Unlock()
		}
		return total
	}
	for last, quiet := moved(), 0; quiet < 3; {
		time.Sleep(time.Millisecond)
		if now := moved(); now != last {
			last, quiet = now, 0
		} else {
			quiet++
		}
	}
}

// step is one interval of protocol time: the clock moves on and every
// node runs its tick, one after the other as the unsynchronised tickers
// of real routers would, each round processed before the next leaves.
func (p *plane) step() time.Time {
	now := p.clock.Advance(planeInterval)
	for _, n := range p.nodes {
		n.Tick(now)
		p.settle()
	}
	return now
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
// the router of node from, and returns the adopted session IDs.
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

// TestGossipRoundFitsBufferAtAnyRate holds a three-node line at 6,000
// live ads — one benchmark epoch of roam_handoff — for longer than
// PeerTimeout. Every tick must seal a round on every link, no gossip or
// announce frame may outgrow the egress buffer class, nothing may be
// refused at sealing, the links must stay up on those rounds alone, and
// a router that joins late must still be routed to by the far end and
// handed the whole table in buffer-sized pieces.
func TestGossipRoundFitsBufferAtAnyRate(t *testing.T) {
	p := newPlane(t, 4, backbone.Config{})
	p.linkLine(3)

	const perNode = 2000
	var ids [3][]core.SessionID
	for i := range ids {
		ids[i] = p.adopt(i, (i+1)%3, fmt.Sprintf("rate-%d", i), 0, perNode)
	}
	everyoneKnows := func(nodes int) func() bool {
		return func() bool {
			for i := 0; i < nodes; i++ {
				for o := range ids {
					if p.knows(i, ids[o], p.nodes[o].ID()) != perNode {
						return false
					}
				}
			}
			return true
		}
	}
	// The floods race each other into loopback socket buffers; whatever
	// one of them loses, the rounds below re-send.
	links := []int{1, 2, 1}
	for tick := 0; tick < 20; tick++ { // 4 s of protocol time; PeerTimeout is 3 s
		var before [3]int64
		for i := range before {
			before[i] = p.counter(i, "backbone_gossip_rounds")
		}
		now := p.clock.Advance(planeInterval)
		for i := 0; i < 3; i++ {
			p.nodes[i].Tick(now)
		}
		for i := range before {
			if got := p.counter(i, "backbone_gossip_rounds") - before[i]; got < int64(links[i]) {
				t.Fatalf("tick %d: %s sealed %d rounds on %d links", tick, p.nodes[i].ID(), got, links[i])
			}
		}
		p.settle()
	}
	p.waitFor("6,000 ads at every node", everyoneKnows(3))
	for i := 0; i < 3; i++ {
		if got := len(p.nodes[i].LivePeers()); got != links[i] {
			t.Errorf("%s holds %d live links after 4 s of rounds, want %d", p.nodes[i].ID(), got, links[i])
		}
	}

	// A fourth router joins the far end: routes still travel, and its link
	// starts from every unexpired ad.
	p.link(2, 3)
	p.waitFor("route from the first router to the late joiner", func() bool {
		h, ok := p.nodes[0].HopsTo(p.nodes[3].ID())
		return ok && h == 3
	})
	for tick := 0; tick < 3 && !everyoneKnows(4)(); tick++ {
		p.step()
	}
	p.waitFor("the whole table at the late joiner", everyoneKnows(4))

	for i, l := range p.logs {
		for _, kind := range []transport.Kind{transport.KindGossip, transport.KindHandoffAnnounce} {
			wrote, widest := l.stat(kind)
			if wrote == 0 && i < 3 { // the late joiner has no ad to pass on
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
	// The late joiner's backlog came in buffer-sized announces, not one
	// per ad: the cut fills the buffers it is bounded by.
	if wrote, widest := p.logs[2].stat(transport.KindHandoffAnnounce); widest < backbone.FrameSize*3/4 {
		t.Errorf("%s: widest announce %d bytes of %d written — the backlog was not packed", p.nodes[2].ID(), widest, wrote)
	}
}

// TestOwnerAdsSurviveLoss loses 30 % of the datagrams, each way, on one
// link that stays up. Every ad must still be known at every node before
// it expires, healed by the missing acknowledgement — and only by it: an
// ad is re-sent until acknowledged and no longer, so the copies sealed on
// the lossy link stay within 5× the ads (the tick-only design sealed one
// copy per tick of the grace window: 50×).
func TestOwnerAdsSurviveLoss(t *testing.T) {
	p := newPlane(t, 3, backbone.Config{})
	p.linkLine(len(p.nodes))
	lossy := chaos.FaultPlan{Drop: 0.3}
	p.faults[0].SetPeerPlans(p.nodes[1].Addr().String(), lossy, lossy)

	const ads, perTick = 300, 30
	// wave announces ads handoffs at node origin, a few per tick, and keeps
	// ticking until every node knows all of them — or the first is about
	// to expire.
	wave := func(origin int, label string) {
		t.Helper()
		var ids []core.SessionID
		firstExpires := p.clock.Now().Add(planeGrace)
		known := func() bool {
			for i := range p.nodes {
				if p.knows(i, ids, p.nodes[origin].ID()) != len(ids) {
					return false
				}
			}
			return true
		}
		for len(ids) < ads || !known() {
			if len(ids) < ads {
				ids = append(ids, p.adopt(origin, 1, label, len(ids), len(ids)+perTick)...)
			}
			if now := p.step(); !now.Add(planeInterval).Before(firstExpires) {
				t.Fatalf("%s: %d/%d ads at the far node as the first expires", label,
					p.knows(2-origin, ids, p.nodes[origin].ID()), len(ids))
			}
		}
		// The acknowledgements are lossy too; the senders stop once one
		// gets through.
		for tick := 0; tick < 10 && p.nodes[0].Unacked()+p.nodes[1].Unacked() > 0; tick++ {
			p.step()
		}
		if left := p.nodes[0].Unacked() + p.nodes[1].Unacked(); left != 0 {
			t.Fatalf("%s: %d ads still unacknowledged ten rounds after the last arrived", label, left)
		}
	}

	// From the first router, every ad crosses the lossy link out of it:
	// its sealed copies are that link's.
	wave(0, "loss-out")
	if got := p.counter(0, "backbone_owner_ads_sent"); got > 5*ads {
		t.Errorf("%d ad copies sealed on the lossy link for %d ads, want ≤ %d", got, ads, 5*ads)
	} else {
		t.Logf("lossy link, outbound: %d copies for %d ads", got, ads)
	}
	// From the far router, the middle one relays them onto the lossy link
	// and nowhere else (split horizon).
	before := p.counter(1, "backbone_owner_ads_sent")
	wave(2, "loss-in")
	if got := p.counter(1, "backbone_owner_ads_sent") - before; got > 5*ads {
		t.Errorf("%d ad copies relayed onto the lossy link for %d ads, want ≤ %d", got, ads, 5*ads)
	} else {
		t.Logf("lossy link, relayed: %d copies for %d ads", got, ads)
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
// the far router adopts sessions: once for less than PeerTimeout (the
// link survives and the missing acknowledgement heals it) and once for
// longer (the link dies, and its successor starts from every unexpired
// ad). After the heal every unexpired ad arrives; one that expired
// meanwhile is never resurrected.
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
			if _, ok := p.nodes[1].OwnerOf(early[0]); ok {
				t.Fatal("the early ad should have expired during the partition")
			}
			if got := p.knows(0, late, owner); got != 0 {
				t.Fatalf("%d ads crossed the partition", got)
			}
			if got := p.knows(1, late, owner); got != len(late) {
				t.Fatalf("the middle router knows %d/%d ads", got, len(late))
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

// TestLinkUpWithoutWaitingForTick configures a line with tickers that
// never fire and a clock that never moves. AddPeer alone must bring each
// link up, and the middle router's triggered round must carry the far
// route: nothing here waits for a gossip interval.
func TestLinkUpWithoutWaitingForTick(t *testing.T) {
	p := newPlane(t, 3, backbone.Config{GossipInterval: time.Hour})
	start := time.Now()
	p.link(0, 1)
	p.waitFor("first link, both ways", func() bool {
		a, okA := p.nodes[0].HopsTo(p.nodes[1].ID())
		b, okB := p.nodes[1].HopsTo(p.nodes[0].ID())
		return okA && okB && a == 1 && b == 1
	})
	p.link(1, 2)
	p.waitFor("far routes by triggered round", func() bool {
		a, okA := p.nodes[0].HopsTo(p.nodes[2].ID())
		c, okC := p.nodes[2].HopsTo(p.nodes[0].ID())
		return okA && okC && a == 2 && c == 2
	})
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("line converged in %v without ticks", took)
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
	p.clock.Advance(time.Minute) // HelloFreshness is 30 s
	p.faults[1].PartitionFor(0)
	p.step()
	p.waitFor("link after a long-unanswered dial", func() bool {
		_, ok := p.nodes[1].HopsTo(p.nodes[0].ID())
		return ok && len(p.nodes[0].LivePeers()) == 1
	})
}

// TestHandoffOutReleasesOnce follows handed-off sessions through the
// expiry queue: the previous router keeps each until its ad expires, no
// tick before that releases it, the first tick at or after does, a
// session that reappears under the same ID is left alone (the release
// happened once), and a closed node releases nothing.
func TestHandoffOutReleasesOnce(t *testing.T) {
	p := newPlane(t, 2, backbone.Config{})
	p.linkLine(len(p.nodes))
	router := p.net.Routers[0]
	hold := func(label string, i int) core.SessionID {
		id := sid(label+"/prev", i)
		sess := core.ResumeSession(id, []byte("secret"), []byte("cn"), []byte("sn"), "user", p.clock.Now())
		sess.ID = id
		router.AdoptResumedSession(sess, nil)
		return id
	}

	// Two sessions leave router 0 one round apart.
	first := hold("rel-a", 0)
	p.adopt(1, 0, "rel-a", 0, 1)
	p.step()
	second := hold("rel-b", 0)
	p.adopt(1, 0, "rel-b", 0, 1)
	p.waitFor("both handoffs counted", func() bool { return p.counter(0, "handoffs_out") == 2 })
	firstExpires := p.clock.Now().Add(planeGrace - planeInterval)

	held := func(id core.SessionID) bool { _, ok := router.SessionByID(id); return ok }
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
	hold("rel-a", 0)
	p.clock.Advance(planeInterval) // catch up with the two ticks above
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
	third := hold("rel-c", 0)
	p.adopt(1, 0, "rel-c", 0, 1)
	p.waitFor("third handoff counted", func() bool { return p.counter(0, "handoffs_out") == 3 })
	p.nodes[0].Close()
	p.nodes[0].Tick(p.clock.Advance(2 * planeGrace))
	if !held(third) {
		t.Fatal("a closed node released a session")
	}
}
