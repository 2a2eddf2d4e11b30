//go:build linux && (amd64 || arm64)

package batchio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// groCounts accumulates what an EnableGRO observer reports.
type groCounts struct {
	mu                          sync.Mutex
	trains, segments, truncated int
}

func (g *groCounts) observe(trains, segments, truncated int) {
	g.mu.Lock()
	g.trains += trains
	g.segments += segments
	g.truncated += truncated
	g.mu.Unlock()
}

func (g *groCounts) get() (trains, segments, truncated int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.trains, g.segments, g.truncated
}

// groReceiver opens a loopback socket with UDP GRO on, read through the
// mmsg path, and skips the test where the kernel has no UDP GRO.
func groReceiver(t *testing.T) (*net.UDPConn, Conn, *groCounts) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { pc.Close() })
	bc, batched := Upgrade(pc)
	if !batched {
		t.Fatal("no mmsg path for a *net.UDPConn")
	}
	g := &groCounts{}
	if !EnableGRO(bc, g.observe) {
		t.Skip("kernel refused UDP_GRO")
	}
	return pc.(*net.UDPConn), bc, g
}

func udpSender(t *testing.T) *net.UDPConn {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { pc.Close() })
	return pc.(*net.UDPConn)
}

// sendTrain sends payload as one segmented send: the kernel cuts it into
// datagrams of seg bytes, the last one shorter when seg does not divide
// len(payload).
func sendTrain(t *testing.T, from *net.UDPConn, to net.Addr, payload []byte, seg int) {
	t.Helper()
	oob := make([]byte, syscall.CmsgSpace(2))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level = syscall.IPPROTO_UDP
	h.Type = udpSegment
	h.SetLen(syscall.CmsgLen(2))
	binary.NativeEndian.PutUint16(oob[syscall.CmsgLen(0):], uint16(seg))
	ua := to.(*net.UDPAddr)
	sa := &syscall.SockaddrInet4{Port: ua.Port}
	copy(sa.Addr[:], ua.IP.To4())
	rc, err := from.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.Sendmsg(int(fd), payload, oob, sa, 0)
	}); err != nil || serr != nil {
		t.Fatalf("segmented send: %v %v", err, serr)
	}
}

// numbered builds count datagrams of size bytes, each stamped with tag
// and its index, so order and boundaries can be checked byte for byte.
func numbered(tag string, count, size int) [][]byte {
	out := make([][]byte, count)
	for i := range out {
		d := make([]byte, size)
		for j := range d {
			d[j] = byte(i + j)
		}
		copy(d, fmt.Sprintf("%s-%03d", tag, i))
		out[i] = d
	}
	return out
}

func concat(ds [][]byte) []byte {
	var b []byte
	for _, d := range ds {
		b = append(b, d...)
	}
	return b
}

// datagram is one read result, copied out of its slot.
type datagram struct {
	payload string
	from    string
}

func slots(k, size int) []Message {
	ms := make([]Message, k)
	for i := range ms {
		ms[i].Buf = make([]byte, size)
	}
	return ms
}

// readCall runs one ReadBatch and copies its datagrams out.
func readCall(t *testing.T, c Conn, ms []Message) []datagram {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := c.ReadBatch(ms)
	if err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	out := make([]datagram, n)
	for i := range out {
		out[i] = datagram{string(ms[i].Payload()), ms[i].Addr.String()}
	}
	return out
}

// readAll reads until want datagrams have arrived, then checks nothing
// more is queued.
func readAll(t *testing.T, c Conn, ms []Message, want int) []datagram {
	t.Helper()
	var got []datagram
	for len(got) < want {
		got = append(got, readCall(t, c, ms)...)
	}
	if len(got) != want {
		t.Fatalf("read %d datagrams, want %d", len(got), want)
	}
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := c.ReadBatch(ms); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("extra read after %d datagrams: n=%d err=%v", want, n, err)
	}
	return got
}

func expect(t *testing.T, got []datagram, want [][]byte, from net.Addr) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d datagrams, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].payload != string(want[i]) {
			t.Fatalf("datagram %d = %q (%d B), want %q (%d B)", i,
				got[i].payload[:min(12, len(got[i].payload))], len(got[i].payload),
				want[i][:min(12, len(want[i]))], len(want[i]))
		}
		if got[i].from != from.String() {
			t.Fatalf("datagram %d from %s, want %s", i, got[i].from, from)
		}
	}
}

// Trains sent by WriteBatch arrive as the datagrams that went in: 60 ×
// 64 B (more than the 32 slots, so part of it is carried) and 16 × 1200 B.
func TestGROSplitsWriteBatchTrains(t *testing.T) {
	pc, rx, g := groReceiver(t)
	tx, _ := Upgrade(udpSender(t))
	ms := slots(32, 65536)
	for _, tc := range []struct{ count, size int }{{60, 64}, {16, 1200}} {
		want := numbered(fmt.Sprintf("w%d", tc.size), tc.count, tc.size)
		out := make([]Message, len(want))
		for i := range want {
			out[i].Set(want[i], pc.LocalAddr())
		}
		if n, err := tx.WriteBatch(out); err != nil || n != len(out) {
			t.Fatalf("WriteBatch = %d, %v", n, err)
		}
		expect(t, readAll(t, rx, ms, tc.count), want, tx.LocalAddr())
	}
	wantTrains(t, g, 2, 76)
}

// A train longer than the caller's slots is handed out over two calls,
// the second one from the carry alone.
func TestGROCarriesAcrossCalls(t *testing.T) {
	pc, rx, g := groReceiver(t)
	tx := udpSender(t)
	want := numbered("c", 12, 100)
	sendTrain(t, tx, pc.LocalAddr(), concat(want), 100)
	ms := slots(8, 65536)
	first := readCall(t, rx, ms)
	if len(first) != 8 {
		t.Fatalf("first call returned %d datagrams, want 8", len(first))
	}
	second := readCall(t, rx, ms)
	if len(second) != 4 {
		t.Fatalf("second call returned %d datagrams, want 4", len(second))
	}
	expect(t, append(first, second...), want, tx.LocalAddr())
	wantTrains(t, g, 1, 12)
}

// wantTrains checks the observer saw the datagrams arrive as trains and
// not as singles the kernel had already split.
func wantTrains(t *testing.T, g *groCounts, trains, segments int) {
	t.Helper()
	if gt, gs, _ := g.get(); gt != trains || gs != segments {
		t.Fatalf("observer saw %d trains / %d segments, want %d / %d", gt, gs, trains, segments)
	}
}

// A train whose length is not a multiple of its segment size ends in a
// shorter datagram.
func TestGROShortLastSegment(t *testing.T) {
	pc, rx, g := groReceiver(t)
	tx := udpSender(t)
	want := append(numbered("s", 5, 100), []byte("tail-37-bytes-of-the-last-segment!!!!"))
	sendTrain(t, tx, pc.LocalAddr(), concat(want), 100)
	expect(t, readAll(t, rx, slots(32, 65536), len(want)), want, tx.LocalAddr())
	wantTrains(t, g, 1, 6)
}

// Singles and trains from two senders keep their arrival order and each
// datagram keeps its own sender's address, also across the carry.
func TestGROInterleavedSenders(t *testing.T) {
	pc, rx, g := groReceiver(t)
	a, b := udpSender(t), udpSender(t)
	to := pc.LocalAddr()
	var want [][]byte
	var from []net.Addr
	single := func(c *net.UDPConn, p string) {
		if _, err := c.WriteTo([]byte(p), to); err != nil {
			t.Fatal(err)
		}
		want = append(want, []byte(p))
		from = append(from, c.LocalAddr())
	}
	train := func(c *net.UDPConn, tag string, count, size int) {
		ds := numbered(tag, count, size)
		sendTrain(t, c, to, concat(ds), size)
		for _, d := range ds {
			want = append(want, d)
			from = append(from, c.LocalAddr())
		}
	}
	single(a, "a-single-0")
	train(b, "b0", 4, 80)
	train(a, "a1", 3, 200)
	single(b, "b-single-1")
	train(b, "b2", 7, 64)
	single(a, "a-single-2")
	// Seven slots: the carry is crossed several times on the way.
	ms := slots(7, 65536)
	var got []datagram
	for len(got) < len(want) {
		got = append(got, readCall(t, rx, ms)...)
	}
	for i := range want {
		expect(t, got[i:i+1], want[i:i+1], from[i])
	}
	wantTrains(t, g, 3, 14)
}

// UDP_GRO is a property of the socket: a second Upgrade of it splits
// trains too, whichever of the two turned the option on.
func TestGROTwoUpgradesOfOneSocket(t *testing.T) {
	pc, first, _ := groReceiver(t)
	second, _ := Upgrade(pc)
	tx := udpSender(t)
	ms := slots(32, 65536)
	for i, c := range []Conn{second, first} {
		want := numbered(fmt.Sprintf("u%d", i), 10, 90)
		sendTrain(t, tx, pc.LocalAddr(), concat(want), 90)
		expect(t, readAll(t, c, ms, len(want)), want, tx.LocalAddr())
	}
}

// A train that does not fit its slot is dropped whole, never handed out
// in part, and counted; the datagram behind it still arrives.
func TestGROTruncatedTrainDropped(t *testing.T) {
	pc, rx, g := groReceiver(t)
	tx := udpSender(t)
	sendTrain(t, tx, pc.LocalAddr(), concat(numbered("big", 10, 100)), 100)
	if _, err := tx.WriteTo([]byte("after"), pc.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	expect(t, readAll(t, rx, slots(4, 512), 1), [][]byte{[]byte("after")}, tx.LocalAddr())
	if trains, _, truncated := g.get(); trains != 0 || truncated != 1 {
		t.Fatalf("observer saw %d trains / %d truncated, want 0 / 1", trains, truncated)
	}
}

// A conn with carried segments hands them out at once even while another
// conn of the same socket is parked in ReadBatch: the top-up read after
// the carry must not queue behind that reader.
func TestGROTopUpBesideParkedReader(t *testing.T) {
	pc, first, _ := groReceiver(t)
	second, _ := Upgrade(pc)
	tx := udpSender(t)
	want := numbered("p", 12, 100)
	sendTrain(t, tx, pc.LocalAddr(), concat(want), 100)
	ms := slots(8, 65536)
	got := readCall(t, first, ms)

	parked := make(chan []datagram, 1)
	go func() {
		second.SetReadDeadline(time.Now().Add(5 * time.Second))
		ms := slots(8, 65536)
		var got []datagram
		if n, err := second.ReadBatch(ms); err == nil {
			for _, m := range ms[:n] {
				got = append(got, datagram{string(m.Payload()), m.Addr.String()})
			}
		}
		parked <- got
	}()
	time.Sleep(50 * time.Millisecond) // let the second reader park

	start := time.Now()
	got = append(got, readCall(t, first, ms)...)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("carried segments took %v behind a parked reader", d)
	}
	expect(t, got, want, tx.LocalAddr())

	if _, err := tx.WriteTo([]byte("wake"), pc.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	expect(t, <-parked, [][]byte{[]byte("wake")}, tx.LocalAddr())
}

// TestSplitLayoutMatchesReference drives split with synthesized recvmmsg
// results — singles, trains with and without a short last segment,
// truncated trains, in any mix — and checks that the datagrams handed out
// by this call and then by the carry are exactly the untruncated
// segments in arrival order, each with its slot's source port.
func TestSplitLayoutMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for iter := 0; iter < 2000; iter++ {
		c := &mmsgConn{}
		free := 1 + rng.IntN(40)
		n := 1 + rng.IntN(free)
		ms := slots(free, 4096)
		c.rbl.ensure(free)
		var want []datagram
		for i := 0; i < n; i++ {
			h, ctrl := &c.rbl.hdrs[i], &c.rbl.ctrls[i]
			from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1000 + i}
			if _, err := putSockaddr(&c.rbl.names[i], from); err != nil {
				t.Fatal(err)
			}
			var segs [][]byte
			gso, truncated := 0, false
			switch rng.IntN(4) {
			case 0: // a lone datagram, possibly empty
				segs = [][]byte{randBytes(rng, rng.IntN(300))}
			case 3: // a train that did not fit its slot
				truncated = true
				fallthrough
			default:
				gso = 1 + rng.IntN(200)
				count := 2 + rng.IntN(min(19, 3900/gso))
				for j := 0; j < count; j++ {
					segs = append(segs, randBytes(rng, gso))
				}
				if rng.IntN(2) == 0 {
					segs[count-1] = segs[count-1][:1+rng.IntN(gso)]
				}
			}
			size := copy(ms[i].Buf, concat(segs))
			h.len = uint32(size)
			h.hdr = syscall.Msghdr{}
			if truncated {
				h.hdr.Flags = syscall.MSG_TRUNC
			}
			if gso > 0 {
				ctrl.hdr = syscall.Cmsghdr{Level: syscall.IPPROTO_UDP, Type: udpGRO}
				*(*int32)(unsafe.Pointer(&ctrl.data[0])) = int32(gso)
				h.hdr.SetControllen(syscall.CmsgLen(4))
			}
			if truncated {
				continue
			}
			for _, s := range segs {
				want = append(want, datagram{string(s), from.String()})
			}
		}
		k := c.split(ms, n)
		var got []datagram
		collect := func(k int) {
			for _, m := range ms[:k] {
				got = append(got, datagram{string(m.Payload()), m.Addr.String()})
			}
		}
		collect(k)
		for k = c.carried.take(ms); k > 0; k = c.carried.take(ms) {
			collect(k)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d datagrams out, want %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d: datagram %d = %d B from %s, want %d B from %s",
					iter, i, len(got[i].payload), got[i].from, len(want[i].payload), want[i].from)
			}
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}
