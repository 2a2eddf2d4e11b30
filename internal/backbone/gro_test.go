package backbone_test

import (
	"crypto/rand"
	"fmt"
	"net"
	"testing"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/transport"
	"github.com/peace-mesh/peace/internal/transport/batchio"
)

// TestRelayedBurstArrivesAsTrain roams a user from router 0 to router 1
// over plain UDP sockets, then sends a burst of data frames to router 0
// as one segmented send. Router 0 relays every frame to router 1, its
// egress coalescing the equal-size relay envelopes into GSO trains; router
// 1's backbone socket takes them whole and splits them back, and every
// frame is delivered and opens in order under the adopted session.
func TestRelayedBurstArrivesAsTrain(t *testing.T) {
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pbc, _ := batchio.Upgrade(probe)
	gro := batchio.EnableGRO(pbc, nil)
	probe.Close()
	if !gro {
		t.Skip("no UDP GRO on this platform")
	}

	ln, err := transport.NewLocalNetwork(core.Config{}, "grp-gro", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	listen := func() net.PacketConn {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// One STEK ring across the metro, so a ticket resumes at either router.
	ring, err := symcrypto.NewTicketKeyRing(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var servers []*transport.Server
	var nodes []*backbone.Node
	for i := 0; i < 2; i++ {
		srv := transport.NewServer(listen(), ln.Routers[i], transport.ServerConfig{BootEpoch: uint64(200 + i), TicketKeys: ring})
		node := backbone.NewNode(listen(), srv, backbone.Config{})
		servers = append(servers, srv)
		nodes = append(nodes, node)
		t.Cleanup(func() {
			node.Close()
			srv.Close()
		})
	}
	nodes[0].AddPeer(nodes[1].ID(), nodes[1].Addr())
	nodes[1].AddPeer(nodes[0].ID(), nodes[0].Addr())
	waitFor(t, func() bool {
		_, ok := nodes[0].HopsTo(nodes[1].ID())
		return ok
	}, "backbone link")

	conn := listen()
	defer conn.Close()
	cl := transport.NewClient(conn, servers[0].Addr(), ln.Users[0], testClientConfig())
	ctx := testCtx(t)
	if _, err := cl.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	cl.Retarget(servers[1].Addr())
	sess, err := cl.Resume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		owner, ok := nodes[0].OwnerOf(sess.ID)
		return ok && owner == nodes[1].ID()
	}, "ownership at the previous router")

	const burst = 16
	out := make([]batchio.Message, burst)
	for i := range out {
		payload := []byte(fmt.Sprintf("in-flight frame %02d", i))
		buf, err := transport.AppendFrameHeader(nil, transport.KindSessionData, core.SealedDataLen(len(payload)))
		if err == nil {
			buf, err = sess.AppendSealedData(buf, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		out[i].Set(buf, servers[0].Addr())
	}
	bc, _ := batchio.Upgrade(conn)
	if n, err := bc.WriteBatch(out); err != nil || n != burst {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}

	// A frame is counted only once it opens, and a session opens
	// sequence numbers strictly in order: all of them counted means none
	// was cut, merged or overtaken on the way.
	st := servers[1].Stats()
	waitFor(t, func() bool { return st.DataDelivered() == burst }, "every relayed frame delivered")
	if got := servers[0].Stats().FramesRelayed(); got != burst {
		t.Fatalf("router 0 relayed %d frames, want %d", got, burst)
	}
	if st.RxTrains() == 0 {
		t.Fatal("the relayed burst reached router 1 one datagram at a time")
	}
	if st.RxTruncated() != 0 {
		t.Fatalf("rx_truncated = %d", st.RxTruncated())
	}
}
