package backbone_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/chaos"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
)

// connected reports whether every node routes to every other.
func (p *plane) connected() bool {
	for _, a := range p.nodes {
		for _, b := range p.nodes {
			if _, ok := a.HopsTo(b.ID()); !ok {
				return false
			}
		}
	}
	return true
}

// TestDuplicatedAdsCountOnce doubles every datagram on every endpoint of
// a three-router ring, both ways, so every owner ad reaches the previous
// router, and every acknowledgement the adopter, twice: the second copy
// as a replayed envelope. Every handoff must still count once and
// release once, and leave nothing unacknowledged.
func TestDuplicatedAdsCountOnce(t *testing.T) {
	p := newPlane(t, 3, backbone.Config{})
	dup := chaos.FaultPlan{Duplicate: 1}
	for _, f := range p.faults {
		f.SetPlans(dup, dup)
	}
	p.connect([][2]int{{0, 1}, {1, 2}, {2, 0}}, p.connected)

	const n = 40
	prev := make([]core.SessionID, n)
	for i := range prev {
		prev[i] = p.hold(0, "dup", i)
	}
	p.adopt(1, 0, "dup", 0, n)
	expires := p.clock.Now().Add(planeGrace)
	p.flushInboxes()
	if got := p.counter(0, "handoffs_out"); got != n {
		t.Fatalf("handoffs_out = %d, want %d", got, n)
	}
	if got := p.faults[0].Counters().Duplicated; got == 0 {
		t.Fatal("nothing was duplicated")
	}
	if left := p.nodes[1].Unacked(); left != 0 {
		t.Fatalf("%d ads unacknowledged after one exchange", left)
	}
	for p.clock.Now().Before(expires) {
		p.step()
		for i, id := range prev {
			if now := p.clock.Now(); now.Before(expires) && !p.held(0, id) {
				t.Fatalf("session %d released %v before its ad expires", i, expires.Sub(now))
			}
		}
	}
	p.step()
	for i, id := range prev {
		if p.held(0, id) {
			t.Fatalf("session %d still held an interval after its ad expired", i)
		}
		p.hold(0, "dup", i) // a second release would take it again
	}
	for r := 0; r < 3; r++ {
		p.step()
	}
	for i, id := range prev {
		if !p.held(0, id) {
			t.Fatalf("session %d released twice", i)
		}
	}
	if got := p.counter(0, "handoffs_out"); got != n {
		t.Fatalf("handoffs_out = %d after the grace window, want %d", got, n)
	}
}

// scheduleSeeds is how many seeded schedules TestPlaneSchedules runs.
const scheduleSeeds = 40

// TestPlaneSchedules runs scheduleSeeds seeded schedules. Each scripts a
// line or ring of three or four routers with per-link drop, duplicate
// and reorder plans, adoptions at random routers, partitions that open
// and heal, and clock steps that cross expiry boundaries, some with a
// round's datagrams in flight across them, and checks
// after every step that
//
//  1. no node's OwnerOf holds a record at or after its Expires, nor
//     names a router other than the adopter, nor holds one at a router
//     other than the previous router;
//  2. a previous router counts exactly the handoffs it learnt of, and
//     releases each handed-off session once, never before Expires and no
//     later than an interval after it;
//
// and at the end, with every fault healed and after quiet rounds,
//
//  3. every unexpired ad is known at its previous router and at no other
//     router, and nothing is left pending.
func TestPlaneSchedules(t *testing.T) {
	ln, err := transport.NewLocalNetwork(core.Config{}, "grp-schedules", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= scheduleSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runSchedule(t, ln, seed) })
	}
}

// handoff is one adoption a schedule made and what the checks saw of it.
type handoff struct {
	prev, next core.SessionID
	k          int // label index
	from, at   int
	expires    time.Time
	known      bool // the previous router held the record at some check
	released   bool
}

func runSchedule(t *testing.T, ln *transport.LocalNetwork, seed int64) {
	const (
		grace = 40 * planeInterval // outlives PeerTimeout, so an ad must cross a redial
		steps = 60
		// A link one end dropped and the other still holds heals when the
		// other's PeerTimeout (15 rounds) runs out, and its redial one
		// round later.
		quiet = 20
	)
	rng := rand.New(rand.NewSource(seed))
	label := fmt.Sprintf("sched-%d", seed)
	n := 3 + rng.Intn(2)
	p := newPlaneOn(t, ln, n, backbone.Config{GraceWindow: grace}, seed*100)
	var edges [][2]int
	for k := 0; k+1 < n; k++ {
		edges = append(edges, [2]int{k, k + 1})
	}
	ring := rng.Intn(2) == 0
	if ring {
		edges = append(edges, [2]int{n - 1, 0})
	}
	p.connect(edges, p.connected)

	faulty := func() chaos.FaultPlan {
		return chaos.FaultPlan{Drop: 0.3 * rng.Float64(), Duplicate: 0.2 * rng.Float64(), Reorder: 0.2 * rng.Float64()}
	}
	for _, e := range edges {
		if rng.Intn(3) > 0 {
			p.faults[e[0]].SetPeerPlans(p.nodes[e[1]].Addr().String(), faulty(), faulty())
		}
	}

	var ads []*handoff
	counted := make([]int64, n) // handoffs each router knew of at a check
	check := func(when string) {
		t.Helper()
		now := p.clock.Now()
		for k := range counted {
			counted[k] = 0
		}
		for _, a := range ads {
			for i := range p.nodes {
				owner, ok := p.nodes[i].OwnerOf(a.next)
				if !ok {
					continue
				}
				if !now.Before(a.expires) {
					t.Fatalf("seed %d, %s: %s holds an ad %v past its expiry", seed, when, p.nodes[i].ID(), now.Sub(a.expires))
				}
				if owner != p.nodes[a.at].ID() {
					t.Fatalf("seed %d, %s: %s names %s the owner, the adopter is %s", seed, when, p.nodes[i].ID(), owner, p.nodes[a.at].ID())
				}
				if i != a.from {
					t.Fatalf("seed %d, %s: %s holds the ad of a handoff away from %s", seed, when, p.nodes[i].ID(), p.nodes[a.from].ID())
				}
				a.known = true
			}
			if a.known {
				counted[a.from]++
			}
			switch held := p.held(a.from, a.prev); {
			case !held && a.released:
				t.Fatalf("seed %d, %s: %s released a handed-off session twice", seed, when, p.nodes[a.from].ID())
			case !held && now.Before(a.expires):
				t.Fatalf("seed %d, %s: %s released a session %v before its ad expires", seed, when, p.nodes[a.from].ID(), a.expires.Sub(now))
			case !held:
				a.released = true
				p.hold(a.from, label, a.k) // a second release would take it again
			case a.known && !a.released && !now.Before(a.expires.Add(planeInterval)):
				t.Fatalf("seed %d, %s: %s still holds a session %v after its ad expired", seed, when, p.nodes[a.from].ID(), now.Sub(a.expires))
			}
		}
		for i := range p.nodes {
			if got := p.counter(i, "handoffs_out"); got != counted[i] {
				t.Fatalf("seed %d, %s: %s counted %d handoffs out, it learnt of %d", seed, when, p.nodes[i].ID(), got, counted[i])
			}
		}
	}

	cutUntil := make([]int, n) // step at which a node's partition heals; 0 = none
	for s := 1; s <= steps; s++ {
		when := fmt.Sprintf("step %d", s)
		if rng.Intn(3) == 0 {
			from := rng.Intn(n)
			at := (from + 1 + rng.Intn(n-1)) % n
			for k := rng.Intn(4); k >= 0; k-- {
				i := len(ads)
				a := &handoff{prev: p.hold(from, label, i), next: sid(label+"/next", i), k: i, from: from, at: at,
					expires: p.clock.Now().Add(grace)}
				ads = append(ads, a)
				p.adopt(at, from, label, i, i+1)
			}
		}
		if s < steps-15 && rng.Intn(12) == 0 {
			i := rng.Intn(n)
			if cutUntil[i] == 0 {
				cutUntil[i] = s + 3 + rng.Intn(25)
				p.faults[i].PartitionFor(time.Hour)
			}
		}
		for i, until := range cutUntil {
			if until != 0 && s >= until {
				cutUntil[i] = 0
				p.faults[i].PartitionFor(0)
			}
		}
		// inFlight runs a round whose datagrams are still on the way when
		// the clock jumps, so what they carry can expire before it lands.
		inFlight := func() {
			if rng.Intn(2) == 0 {
				p.clock.Advance(planeInterval)
				for _, node := range p.nodes {
					node.Step(p.clock.Now())
				}
			}
		}
		switch r := rng.Intn(20); {
		case r < 14 || s > steps-20: // the last ads outlive the quiet rounds
			p.clock.Advance(planeInterval)
		case r < 16:
			p.clock.Advance(time.Duration(1 + rng.Int63n(int64(planeInterval))))
		case r < 19: // a jump across several rounds, and the expiries inside it
			inFlight()
			p.clock.Advance(time.Duration(2+rng.Intn(7))*planeInterval + time.Duration(rng.Int63n(int64(planeInterval))))
		default: // a jump past every open grace window and PeerTimeout: what was still in an inbox expired there
			inFlight()
			p.clock.Advance(grace + time.Duration(rng.Int63n(int64(planeInterval))))
		}
		p.stepNodes()
		check(when)
	}

	// Heal everything, then quiet rounds.
	for i, f := range p.faults {
		f.PartitionFor(0)
		f.SetPlans(chaos.FaultPlan{}, chaos.FaultPlan{})
		for j := range p.nodes {
			if j != i {
				f.SetPeerPlans(p.nodes[j].Addr().String(), chaos.FaultPlan{}, chaos.FaultPlan{})
			}
		}
	}
	for r := 0; r < quiet; r++ {
		p.step()
		check(fmt.Sprintf("quiet round %d", r+1))
	}
	now := p.clock.Now()
	live := 0
	for _, a := range ads {
		if !now.Before(a.expires) {
			continue
		}
		live++
		if _, ok := p.nodes[a.from].OwnerOf(a.next); !ok {
			t.Fatalf("seed %d: %s lacks an unexpired ad %d quiet rounds after the heal", seed, p.nodes[a.from].ID(), quiet)
		}
	}
	for i, node := range p.nodes {
		if left := node.Unacked(); left != 0 {
			t.Fatalf("seed %d: %s holds %d ads pending %d quiet rounds after the heal", seed, p.nodes[i].ID(), left, quiet)
		}
	}
	t.Logf("seed %d: %d routers (ring %v), %d handoffs, %d live at the end", seed, n, ring, len(ads), live)
}
