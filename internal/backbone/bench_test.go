package backbone_test

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
)

// BenchmarkNodeTick is one tick of a router with two links that holds
// live unexpired owner ads, every one acknowledged by both peers: the
// state of a busy metro between two losses. The tick's time and bytes
// must not depend on live — rounds carry routes and acknowledgements,
// and ads only while a peer has not confirmed them.
func BenchmarkNodeTick(b *testing.B) {
	for _, live := range []int{0, 600, 6000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			p := newPlane(b, 3, backbone.Config{})
			p.linkLine(3)
			ids := p.adopt(1, 0, "tick", 0, live)
			p.waitFor("the ads at both peers", func() bool {
				p.step()
				return p.knows(0, ids, p.nodes[1].ID()) == live && p.knows(2, ids, p.nodes[1].ID()) == live &&
					p.nodes[1].Unacked() == 0
			})
			now := p.clock.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.nodes[1].Tick(now)
			}
		})
	}
}

// BenchmarkLinkUp is the time from configuring a link on both routers
// to each knowing the other reachable, over loopback: one hello, one
// welcome, two certificate checks and two DH derivations — no timer.
func BenchmarkLinkUp(b *testing.B) {
	ln, err := transport.NewLocalNetwork(core.Config{}, "grp-linkup", 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	var servers [2]*transport.Server
	for i := range servers {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		servers[i] = transport.NewServer(conn, ln.Routers[i], transport.ServerConfig{BootEpoch: uint64(1 + i)})
		defer servers[i].Close()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var nodes [2]*backbone.Node
		for k := range nodes {
			conn, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			nodes[k] = backbone.NewNode(conn, servers[k], backbone.Config{})
		}
		deadline := time.Now().Add(10 * time.Second)
		b.StartTimer()
		nodes[0].AddPeer(nodes[1].ID(), nodes[1].Addr())
		nodes[1].AddPeer(nodes[0].ID(), nodes[0].Addr())
		for {
			_, there := nodes[0].HopsTo(nodes[1].ID())
			_, back := nodes[1].HopsTo(nodes[0].ID())
			if there && back {
				break
			}
			if time.Now().After(deadline) {
				b.Fatal("link never came up")
			}
			runtime.Gosched()
		}
		b.StopTimer()
		nodes[0].Close()
		nodes[1].Close()
	}
}
