package chaos

import (
	"bytes"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

// sinkConn is a net.PacketConn that records every write; reads block
// until Close. It isolates the fault layer's send-side decisions from the
// network.
type sinkConn struct {
	mu     sync.Mutex
	writes [][]byte
	closed chan struct{}
}

func newSink() *sinkConn { return &sinkConn{closed: make(chan struct{})} }

func (s *sinkConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	s.mu.Lock()
	s.writes = append(s.writes, append([]byte(nil), p...))
	s.mu.Unlock()
	return len(p), nil
}

func (s *sinkConn) Writes() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]byte, len(s.writes))
	copy(out, s.writes)
	return out
}

func (s *sinkConn) ReadFrom(p []byte) (int, net.Addr, error) {
	<-s.closed
	return 0, nil, net.ErrClosed
}

func (s *sinkConn) Close() error                       { close(s.closed); return nil }
func (s *sinkConn) LocalAddr() net.Addr                { return &net.UDPAddr{} }
func (s *sinkConn) SetDeadline(t time.Time) error      { return nil }
func (s *sinkConn) SetReadDeadline(t time.Time) error  { return nil }
func (s *sinkConn) SetWriteDeadline(t time.Time) error { return nil }

var testAddr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}

// TestConnDropDeterministic sends the same workload through two
// identically seeded conns and expects identical drop decisions.
func TestConnDropDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		sink := newSink()
		c := Wrap(sink, FaultPlan{}, FaultPlan{Drop: 0.5}, seed)
		var delivered []bool
		for i := 0; i < 400; i++ {
			before := len(sink.Writes())
			if _, err := c.WriteTo([]byte{byte(i)}, testAddr); err != nil {
				t.Fatal(err)
			}
			delivered = append(delivered, len(sink.Writes()) > before)
		}
		return delivered
	}
	a, b := pattern(99), pattern(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop decision %d differs between identically seeded runs", i)
		}
	}
	c := pattern(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop pattern")
	}
	drops := 0
	for _, d := range a {
		if !d {
			drops++
		}
	}
	if drops < 100 || drops > 300 {
		t.Fatalf("dropped %d/400 at p=0.5 — policy broken", drops)
	}
}

// TestConnCorrupt checks corruption mangles bytes without changing size,
// and never touches the caller's buffer.
func TestConnCorrupt(t *testing.T) {
	sink := newSink()
	c := Wrap(sink, FaultPlan{}, FaultPlan{Corrupt: 1}, 5)
	orig := bytes.Repeat([]byte{0xAA}, 64)
	sent := append([]byte(nil), orig...)
	if _, err := c.WriteTo(sent, testAddr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sent, orig) {
		t.Fatal("corruption mutated the caller's buffer")
	}
	w := sink.Writes()
	if len(w) != 1 {
		t.Fatalf("%d writes, want 1", len(w))
	}
	if len(w[0]) != len(orig) {
		t.Fatalf("corrupted datagram resized: %d -> %d", len(orig), len(w[0]))
	}
	if bytes.Equal(w[0], orig) {
		t.Fatal("corruption flipped no bits")
	}
	if got := c.Counters().Corrupted; got != 1 {
		t.Fatalf("corrupted counter = %d, want 1", got)
	}
}

// TestConnDuplicateAndReorder checks duplication emits the datagram twice
// and reordering lets the successor overtake the held datagram.
func TestConnDuplicateAndReorder(t *testing.T) {
	sink := newSink()
	c := Wrap(sink, FaultPlan{}, FaultPlan{Duplicate: 1}, 5)
	if _, err := c.WriteTo([]byte("dup"), testAddr); err != nil {
		t.Fatal(err)
	}
	if w := sink.Writes(); len(w) != 2 || !bytes.Equal(w[0], w[1]) {
		t.Fatalf("duplicate produced %d writes", len(w))
	}

	sink2 := newSink()
	c2 := Wrap(sink2, FaultPlan{}, FaultPlan{Reorder: 1}, 5)
	if _, err := c2.WriteTo([]byte("A"), testAddr); err != nil { // held
		t.Fatal(err)
	}
	if w := sink2.Writes(); len(w) != 0 {
		t.Fatalf("held datagram escaped: %d writes", len(w))
	}
	c2.SetPlans(FaultPlan{}, FaultPlan{}) // next write passes cleanly
	if _, err := c2.WriteTo([]byte("B"), testAddr); err != nil {
		t.Fatal(err)
	}
	w := sink2.Writes()
	if len(w) != 2 || string(w[0]) != "B" || string(w[1]) != "A" {
		t.Fatalf("reorder sequence = %q, want [B A]", w)
	}
}

// addrSink is a sinkConn that also records where each write went.
type addrSink struct {
	*sinkConn
	to []string
}

func (s *addrSink) WriteTo(p []byte, addr net.Addr) (int, error) {
	s.to = append(s.to, addr.String())
	return s.sinkConn.WriteTo(p, addr)
}

// TestConnHeldDatagramKeepsItsAddress reuses one address value for two
// destinations, as a batching sender reuses its slots: the datagram held
// back for reordering still goes where it was addressed.
func TestConnHeldDatagramKeepsItsAddress(t *testing.T) {
	sink := &addrSink{sinkConn: newSink()}
	c := Wrap(sink, FaultPlan{}, FaultPlan{Reorder: 1}, 5)
	slot := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
	if _, err := c.WriteTo([]byte("A"), slot); err != nil { // held
		t.Fatal(err)
	}
	slot.Port = 2
	c.SetPlans(FaultPlan{}, FaultPlan{})
	if _, err := c.WriteTo([]byte("B"), slot); err != nil {
		t.Fatal(err)
	}
	if want := []string{"127.0.0.1:2", "127.0.0.1:1"}; !slices.Equal(sink.to, want) {
		t.Fatalf("writes went to %v, want %v", sink.to, want)
	}
}

// TestConnPartitionBothDirections cuts a live UDP path in both directions
// and expects silence during the window and traffic after it.
func TestConnPartitionBothDirections(t *testing.T) {
	a, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	link := Wrap(a, FaultPlan{}, FaultPlan{}, 1)

	link.PartitionFor(400 * time.Millisecond)
	if !link.Partitioned() {
		t.Fatal("partition window not open")
	}

	// Outbound: vanishes.
	if _, err := link.WriteTo([]byte("out"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	_ = b.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if n, _, err := b.ReadFrom(buf); err == nil {
		t.Fatalf("partitioned write delivered %q", buf[:n])
	}

	// Inbound: swallowed.
	if _, err := b.WriteTo([]byte("in"), link.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	_ = link.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if n, _, err := link.ReadFrom(buf); err == nil {
		t.Fatalf("partitioned read delivered %q", buf[:n])
	}

	if got := link.Counters().PartitionDrops; got < 2 {
		t.Fatalf("partition drops = %d, want >= 2", got)
	}

	// After expiry both directions flow again.
	time.Sleep(300 * time.Millisecond)
	if link.Partitioned() {
		t.Fatal("partition window still open")
	}
	if _, err := link.WriteTo([]byte("hello"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	_ = b.SetReadDeadline(time.Now().Add(time.Second))
	if n, _, err := b.ReadFrom(buf); err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("post-partition delivery failed: %q %v", buf[:n], err)
	}
	if _, err := b.WriteTo([]byte("world"), link.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	_ = link.SetReadDeadline(time.Now().Add(time.Second))
	if n, _, err := link.ReadFrom(buf); err != nil || string(buf[:n]) != "world" {
		t.Fatalf("post-partition receive failed: %q %v", buf[:n], err)
	}
}

// TestConnReadDuplicate checks receive-side duplication delivers the same
// datagram on two consecutive reads.
func TestConnReadDuplicate(t *testing.T) {
	a, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	link := Wrap(a, FaultPlan{Duplicate: 1}, FaultPlan{}, 1)

	if _, err := b.WriteTo([]byte("twice"), link.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 2; i++ {
		_ = link.SetReadDeadline(time.Now().Add(time.Second))
		n, _, err := link.ReadFrom(buf)
		if err != nil || string(buf[:n]) != "twice" {
			t.Fatalf("read %d: %q %v", i, buf[:n], err)
		}
	}
	if got := link.Counters().Duplicated; got != 1 {
		t.Fatalf("duplicated counter = %d, want 1", got)
	}
}
