package chaos

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
)

// TestBatchPathFaultInjection pins the composition contract of the
// batched data plane and the fault layer: a server whose socket is a
// chaos.Conn takes the portable single-datagram fallback of the batch
// interface (the wrapper is not a *net.UDPConn, so recvmmsg cannot
// apply), and every fault class still injects per datagram underneath
// ReadBatch/WriteBatch — batching must never bypass the chaos layer.
func TestBatchPathFaultInjection(t *testing.T) {
	ln, err := transport.NewLocalNetwork(core.Config{}, "grp-batch", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faults := FaultPlan{Drop: 0.05, Corrupt: 0.10}
	link := Wrap(raw, faults, faults, 99)
	srv := transport.NewServer(link, ln.Routers[0], transport.ServerConfig{
		BootEpoch: 1,
		EchoData:  true,
	})
	defer srv.Close()

	cconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cconn.Close()
	cl := transport.NewClient(cconn, srv.Addr(), ln.Users[0], transport.ClientConfig{Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := cl.Attach(ctx); err != nil {
		t.Fatalf("attach through faulty link: %v", err)
	}

	const sends = 400
	for i := 0; i < sends; i++ {
		if err := cl.SendData([]byte("chaos batch payload")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && srv.Stats().DataDelivered() < sends/4 {
		time.Sleep(20 * time.Millisecond)
	}

	st := srv.Stats()
	if st.ReadBatches() == 0 {
		t.Fatal("server never read through the batch interface")
	}
	if st.BatchedIO() {
		t.Fatal("chaos conn claimed the mmsg fast path; faults would be bypassed")
	}
	if st.DataDelivered() == 0 {
		t.Fatal("no data survived the faulty link")
	}
	c := link.Counters()
	if c.Dropped == 0 || c.Corrupted == 0 {
		t.Fatalf("fault injection incomplete under the batch path: %+v", c)
	}
	// Corrupted datagrams must surface as decode errors, not crashes or
	// silent acceptance.
	if st.DecodeErrors() == 0 {
		t.Fatal("corrupted datagrams produced no decode errors")
	}
}
