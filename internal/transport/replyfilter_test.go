package transport

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
)

// readScriptConn is a client socket that answers each ReadFrom with the
// next scripted datagram and its source, and swallows every write.
type readScriptConn struct {
	net.PacketConn // nil: only the methods below are called
	reads          []scriptedRead
}

type scriptedRead struct {
	from net.Addr
	data []byte
}

func (c *readScriptConn) ReadFrom(p []byte) (int, net.Addr, error) {
	if len(c.reads) == 0 {
		return 0, nil, &net.OpError{Op: "read", Err: errReadScriptDone{}}
	}
	r := c.reads[0]
	c.reads = c.reads[1:]
	return copy(p, r.data), r.from, nil
}

func (c *readScriptConn) WriteTo(p []byte, _ net.Addr) (int, error) { return len(p), nil }
func (c *readScriptConn) SetReadDeadline(time.Time) error           { return nil }

// errReadScriptDone is the timeout an exhausted script reports.
type errReadScriptDone struct{}

func (errReadScriptDone) Error() string   { return "read script exhausted" }
func (errReadScriptDone) Timeout() bool   { return true }
func (errReadScriptDone) Temporary() bool { return true }

// stringAddr is a net.Addr that is not a *net.UDPAddr, the kind a wrapped
// test conn may report.
type stringAddr string

func (a stringAddr) Network() string { return "udp" }
func (a stringAddr) String() string  { return string(a) }

// TestClientReplyFilter pins which sources the client's driver takes a
// reply from: the router's address, also in its IPv4-mapped form,
// and nothing from another port or IP, which counts as unhandled. A
// source that is not a *net.UDPAddr is compared by its formatted form.
func TestClientReplyFilter(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-filter", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeMessage(&BeaconRequest{})
	if err != nil {
		t.Fatal(err)
	}
	router := &net.UDPAddr{IP: net.IP{127, 0, 0, 1}, Port: 9000}
	cases := []struct {
		name      string
		from      []net.Addr // all but the last are refused
		unhandled int64
	}{
		{"ipv4-mapped-router", []net.Addr{
			&net.UDPAddr{IP: net.IP{127, 0, 0, 1}, Port: 9001},
			&net.UDPAddr{IP: net.IP{127, 0, 0, 2}, Port: 9000},
			&net.UDPAddr{IP: net.ParseIP("::ffff:127.0.0.1"), Port: 9000},
		}, 2},
		{"router-itself", []net.Addr{
			&net.UDPAddr{IP: net.ParseIP("::1"), Port: 9000},
			router,
		}, 1},
		{"not-a-udp-addr", []net.Addr{
			stringAddr("127.0.0.1:9001"),
			stringAddr("127.0.0.1:9000"),
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := &readScriptConn{}
			for _, from := range tc.from {
				conn.reads = append(conn.reads, scriptedRead{from, frame})
			}
			cl := NewClient(conn, router, ln.Users[0], ClientConfig{MaxRetries: 1})
			handled := 0
			err := cl.drive(context.Background(), &exchange{c: cl, frame: frame, accept: func(_ time.Time, kind Kind, _ []byte) bool {
				handled++
				return kind == KindBeaconRequest
			}})
			if err != nil {
				t.Fatalf("exchange: %v", err)
			}
			if handled != 1 {
				t.Fatalf("handled %d frames, want 1", handled)
			}
			if got := cl.Stats().Snapshot().Value("unhandled"); got != tc.unhandled {
				t.Fatalf("unhandled = %d, want %d", got, tc.unhandled)
			}
		})
	}
}
