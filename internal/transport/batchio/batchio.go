package batchio

import (
	"net"
	"time"
)

// Message is one datagram slot in a batch. On reads the implementation
// fills Buf[:N] and Addr with the datagram and its source; on writes the
// caller provides the datagram as Buf[:N] and the destination in Addr.
//
// Each slot carries its own reusable net.UDPAddr and IP backing array so
// the batched read path reports source addresses without allocating.
// The Addr of a read Message is only valid until the slot is reused by
// the next batch; handlers that keep it longer must CloneAddr it.
type Message struct {
	Buf  []byte
	N    int
	Addr net.Addr

	ua net.UDPAddr
	ip [16]byte
}

// Payload returns the filled portion of the slot's buffer.
func (m *Message) Payload() []byte { return m.Buf[:m.N] }

// Set stages frame/addr into the slot for a WriteBatch. UDP addresses
// are copied into the slot's own backing so the caller's addr may be a
// reused read-slot address.
func (m *Message) Set(frame []byte, addr net.Addr) {
	m.Buf = frame
	m.N = len(frame)
	m.SetAddr(addr)
}

// SetAddr points the slot at addr, copying *net.UDPAddr values into the
// slot's own storage (no aliasing of, and no allocation for, the
// caller's address).
func (m *Message) SetAddr(addr net.Addr) {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		m.Addr = addr
		return
	}
	n := copy(m.ip[:], ua.IP)
	m.ua.IP = m.ip[:n]
	m.ua.Port = ua.Port
	m.ua.Zone = ua.Zone
	m.Addr = &m.ua
}

// setIPPort installs a received source address into the slot's reusable
// UDPAddr (read side of the mmsg implementation).
func (m *Message) setIPPort(ip []byte, port int) {
	n := copy(m.ip[:], ip)
	m.ua.IP = m.ip[:n]
	m.ua.Port = port
	m.ua.Zone = ""
	m.Addr = &m.ua
}

// copyAddr gives m the source address of the read slot src.
func (m *Message) copyAddr(src *Message) {
	if src.Addr == nil {
		m.Addr = nil
		return
	}
	m.setIPPort(src.ua.IP, src.ua.Port)
}

// CloneAddr returns a heap copy of a read-slot address that stays valid
// after the slot is reused, for a handler that stores a peer address.
func CloneAddr(addr net.Addr) net.Addr {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return addr
	}
	c := &net.UDPAddr{IP: append([]byte(nil), ua.IP...), Port: ua.Port, Zone: ua.Zone}
	return c
}

// SameAddr reports whether a and b name the same peer. Two UDP addresses
// compare by port, zone and IP.Equal (so a v4 address equals its
// IPv4-mapped form) without formatting either; any other pair of
// net.Addr compares by String.
func SameAddr(a, b net.Addr) bool {
	ua, ok := a.(*net.UDPAddr)
	ub, ok2 := b.(*net.UDPAddr)
	if !ok || !ok2 {
		return a.String() == b.String()
	}
	if ua == ub {
		return true
	}
	return ua.Port == ub.Port && ua.Zone == ub.Zone && ua.IP.Equal(ub.IP)
}

// Conn is the batched view of a datagram socket. ReadBatch blocks until
// at least one datagram is available (or the read deadline passes, or
// the conn is closed) and fills as many slots as the kernel has queued;
// oversize datagrams are silently truncated to the slot buffer, exactly
// like net.PacketConn.ReadFrom. On a socket with EnableGRO, a slot may
// come back from the kernel holding a train of datagrams: ReadBatch
// returns them one per slot as sent, carries what does not fit into the
// next call, and drops a train too large for its slot. Slots of one call
// are expected to be the same size. WriteBatch sends every staged slot
// and returns how many went out.
type Conn interface {
	ReadBatch(ms []Message) (int, error)
	WriteBatch(ms []Message) (int, error)
	LocalAddr() net.Addr
	SetReadDeadline(t time.Time) error
	Close() error
}

// Upgrade wraps pc in the best available batch implementation. The
// second result reports whether a true multi-datagram syscall path is
// in use: *net.UDPConn on supported Linux targets gets recvmmsg/
// sendmmsg, a pc that already implements Conn (test fakes) is used
// as-is, and everything else — including fault-injecting wrappers like
// chaos.Conn — gets the portable loop-of-singles fallback so faults
// keep injecting per datagram.
func Upgrade(pc net.PacketConn) (Conn, bool) {
	if bc, ok := pc.(Conn); ok {
		return bc, true
	}
	if uc, ok := pc.(*net.UDPConn); ok {
		if bc, ok := upgradeUDP(uc); ok {
			return bc, true
		}
	}
	return Single(pc), false
}

// Single wraps pc in the portable single-datagram implementation,
// regardless of platform — the unbatched baseline for benchmarks.
func Single(pc net.PacketConn) Conn { return &singleConn{pc: pc} }

// singleConn is the portable fallback: one syscall per datagram behind
// the batch interface. ReadBatch fills at most one slot per call.
type singleConn struct{ pc net.PacketConn }

func (c *singleConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	m := &ms[0]
	n, addr, err := c.pc.ReadFrom(m.Buf)
	if err != nil {
		return 0, err
	}
	m.N = n
	m.Addr = addr
	return 1, nil
}

func (c *singleConn) WriteBatch(ms []Message) (int, error) {
	for i := range ms {
		m := &ms[i]
		if _, err := c.pc.WriteTo(m.Buf[:m.N], m.Addr); err != nil {
			return i, err
		}
	}
	return len(ms), nil
}

func (c *singleConn) LocalAddr() net.Addr               { return c.pc.LocalAddr() }
func (c *singleConn) SetReadDeadline(t time.Time) error { return c.pc.SetReadDeadline(t) }
func (c *singleConn) Close() error                      { return c.pc.Close() }
