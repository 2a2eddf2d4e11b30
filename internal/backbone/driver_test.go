package backbone_test

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
)

// loopbackRouters builds n servers of one NO on loopback sockets.
func loopbackRouters(t *testing.T, n int) []*transport.Server {
	t.Helper()
	ln, err := transport.NewLocalNetwork(core.Config{}, "grp-driver", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*transport.Server, n)
	for i := range servers {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.NewServer(conn, ln.Routers[i], transport.ServerConfig{BootEpoch: uint64(300 + i)})
		servers[i] = srv
		t.Cleanup(srv.Close)
	}
	return servers
}

func listenLoopback(t *testing.T) net.PacketConn {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// nodeGoroutines counts the goroutines the backbone package started.
func nodeGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "created by github.com/peace-mesh/peace/internal/backbone.")
}

// TestNodeDriverWakes runs two started nodes over loopback with a gossip
// interval of an hour, so no tick comes to their rescue: the inbox alone
// must wake each loop. Configuring the peers must bring the link up, an
// adoption must reach the previous router's ownership table, and one
// made just before Close must still leave, because Close flushes the
// inbox before it closes the socket. Each started node runs one
// goroutine.
func TestNodeDriverWakes(t *testing.T) {
	servers := loopbackRouters(t, 2)
	var nodes [2]*backbone.Node
	for i := range nodes {
		nodes[i] = backbone.NewNode(listenLoopback(t), servers[i], backbone.Config{GossipInterval: time.Hour})
		t.Cleanup(nodes[i].Close)
	}
	if got := nodeGoroutines(); got != len(nodes) {
		t.Errorf("two started nodes run %d goroutines, want 2", got)
	}
	nodes[0].AddPeer(nodes[1].ID(), nodes[1].Addr())
	nodes[1].AddPeer(nodes[0].ID(), nodes[0].Addr())
	waitFor(t, func() bool {
		_, there := nodes[0].HopsTo(nodes[1].ID())
		_, back := nodes[1].HopsTo(nodes[0].ID())
		return there && back
	}, "the link, woken by AddPeer")

	owned := func(id core.SessionID) func() bool {
		return func() bool {
			owner, ok := nodes[0].OwnerOf(id)
			return ok && owner == nodes[1].ID()
		}
	}
	nodes[1].HandoffAdopted(sid("wake/prev", 0), sid("wake/next", 0), nodes[0].ID())
	waitFor(t, owned(sid("wake/next", 0)), "the adoption at the previous router")

	nodes[1].HandoffAdopted(sid("wake/prev", 1), sid("wake/next", 1), nodes[0].ID())
	nodes[1].Close()
	waitFor(t, owned(sid("wake/next", 1)), "the adoption handed in just before Close")
}

// TestHandoffAdoptedAllocs holds the shard loop's side of an adoption at
// 0 allocs/op once the inbox has grown to its working size: the record
// appended to the inbox, and — for the first adoption after the loop
// drained it — the wake. Each run drains the inbox first, outside the
// count, so every run pays for a wake. MemStats counts the whole
// process, so the count runs with no other goroutine of the test alive:
// the server the node was built on is closed first, which stops its read
// loop, drainers and DoS sampler.
func TestHandoffAdoptedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	servers := loopbackRouters(t, 1)
	node := backbone.NewStepped(listenLoopback(t), servers[0], backbone.Config{})
	t.Cleanup(node.Close)
	servers[0].Close()
	const runs, perRun = 100, 8
	var prev, next [perRun]core.SessionID
	for i := range prev {
		prev[i], next[i] = sid("allocs/prev", i), sid("allocs/next", i)
	}
	adopt := func() {
		for i := range prev {
			node.HandoffAdopted(prev[i], next[i], "router-elsewhere")
		}
	}
	// The step takes the inbox once its window has passed; two such drains
	// leave capacity on both sides of the inbox's swap. They run on the one
	// P the count runs on: shrinking GOMAXPROCS moves the other Ps' timers
	// into its timer heap, and the wake's read deadline could then be the
	// timer that grows it inside the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	drain := func() { node.Step(time.Now().Add(backbone.FlushDelay)) }
	for round := 0; round < 2; round++ {
		adopt()
		drain()
	}
	var ms runtime.MemStats
	var mallocs uint64
	for r := 0; r < runs; r++ {
		drain()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		adopt()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
	}
	if mallocs != 0 {
		t.Fatalf("HandoffAdopted: %d allocations over %d adoptions, want 0", mallocs, runs*perRun)
	}
}
