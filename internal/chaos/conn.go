package chaos

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/peace-mesh/peace/internal/metrics"
)

// FaultPlan is the per-direction fault schedule of a Conn. Probabilities
// are per datagram and mutually exclusive per roll (drop is tried first,
// then corrupt, duplicate, reorder, delay), so e.g. Drop 0.1 + Corrupt
// 0.05 mean 10% dropped and 4.5% of all datagrams corrupted.
type FaultPlan struct {
	// Drop silently discards the datagram.
	Drop float64
	// Corrupt flips one to three random bits.
	Corrupt float64
	// Duplicate delivers the datagram twice.
	Duplicate float64
	// Reorder holds the datagram back until the next one passes it.
	Reorder float64
	// Delay holds the datagram for a uniform random time in (0, DelayMax]
	// before sending it on (send side only; the receive side treats a
	// delay roll as a reorder).
	Delay    float64
	DelayMax time.Duration
}

// Counters reports what a Conn has injected so far.
type Counters struct {
	Dropped        int64
	Corrupted      int64
	Duplicated     int64
	Reordered      int64
	Delayed        int64
	PartitionDrops int64
}

// packet is a buffered datagram with its peer address.
type packet struct {
	data []byte
	addr net.Addr
}

// Conn wraps a net.PacketConn with seeded fault injection on both
// directions: Out applies to WriteTo (this endpoint toward the network),
// In applies to ReadFrom (the network toward this endpoint). A timed
// partition blackholes both directions at once. All random decisions come
// from one seeded stream, so the fault pattern is reproducible.
type Conn struct {
	inner net.PacketConn

	mu             sync.Mutex
	rng            *rand.Rand
	in, out        FaultPlan
	partitionUntil time.Time
	// peers holds per-remote-address overrides: on a shared backbone
	// socket each router-to-router link gets its own fault plan and
	// partition window, keyed by the peer's address string.
	peers       map[string]*peerFaults
	heldWrite   *packet  // reorder: outgoing datagram awaiting its successor
	heldRead    *packet  // reorder: incoming datagram awaiting its successor
	pendingRead []packet // duplicates and released reorders to deliver next

	// tap, when set, sees every datagram in the clear (see Tap).
	tap atomic.Pointer[TapFunc]

	// The soak judges (via Counters) and a /metrics scrape read the same
	// instruments.
	injected
}

// Direction says which way a tapped datagram crossed a Conn.
type Direction uint8

const (
	// Sent is a datagram this endpoint wrote, as written: before the Out
	// faults.
	Sent Direction = iota + 1
	// Received is a datagram this endpoint read, as delivered: after the In
	// faults.
	Received
)

// TapFunc observes one datagram crossing a Conn: its direction, the remote
// address it went to or came from, and its bytes, which are only valid
// during the call. Decode them with transport.DecodeFrame.
type TapFunc func(dir Direction, peer net.Addr, data []byte)

// Tap installs fn on the link, replacing any earlier tap; nil removes it.
// It is the passive eavesdropper's vantage point: every datagram this
// endpoint writes, before faults, and every one it reads, after them.
func (c *Conn) Tap(fn TapFunc) { c.tap.Store(&fn) }

func (c *Conn) tapped(dir Direction, peer net.Addr, data []byte) {
	if fn := c.tap.Load(); fn != nil && *fn != nil {
		(*fn)(dir, peer, data)
	}
}

// Wrap puts a fault-injecting layer around conn. in and out may differ,
// giving each direction its own schedule. The injection counters live in
// a private registry; use WrapInRegistry to aggregate many links into a
// shared one.
func Wrap(conn net.PacketConn, in, out FaultPlan, seed int64) *Conn {
	return WrapInRegistry(conn, in, out, seed, nil)
}

// WrapInRegistry is Wrap with the chaos_injected{fault=...} counter
// family resolved in reg (nil creates a private registry). Registration
// is idempotent, so every wrapped link of a soak may share one registry
// and the family counts faults fleet-wide.
func WrapInRegistry(conn net.PacketConn, in, out FaultPlan, seed int64, reg *metrics.Registry) *Conn {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Conn{
		inner:    conn,
		rng:      rand.New(rand.NewSource(seed)),
		in:       in,
		out:      out,
		injected: injectedIn(reg),
	}
}

// injected is the chaos_injected{fault=...} counter family resolved in
// one registry.
type injected struct {
	dropped        *metrics.Counter
	corrupted      *metrics.Counter
	duplicated     *metrics.Counter
	reordered      *metrics.Counter
	delayed        *metrics.Counter
	partitionDrops *metrics.Counter
}

func injectedIn(reg *metrics.Registry) injected {
	vec := reg.CounterVec("chaos_injected", "faults injected by the chaos wrapper", "fault")
	return injected{
		dropped:        vec.With("drop"),
		corrupted:      vec.With("corrupt"),
		duplicated:     vec.With("duplicate"),
		reordered:      vec.With("reorder"),
		delayed:        vec.With("delay"),
		partitionDrops: vec.With("partition"),
	}
}

// Counters snapshots the injected-fault counters — of one Conn, or of
// every Conn wrapped in the same registry.
func (c injected) Counters() Counters {
	return Counters{
		Dropped:        c.dropped.Load(),
		Corrupted:      c.corrupted.Load(),
		Duplicated:     c.duplicated.Load(),
		Reordered:      c.reordered.Load(),
		Delayed:        c.delayed.Load(),
		PartitionDrops: c.partitionDrops.Load(),
	}
}

// SetPlans replaces both fault schedules (e.g. to heal the link for a
// scenario's settle phase). The partition, if any, stays in force.
func (c *Conn) SetPlans(in, out FaultPlan) {
	c.mu.Lock()
	c.in, c.out = in, out
	c.mu.Unlock()
}

// peerFaults is one remote address's fault override.
type peerFaults struct {
	in, out        FaultPlan
	partitionUntil time.Time
}

func (c *Conn) peer(addr string) *peerFaults {
	if c.peers == nil {
		c.peers = make(map[string]*peerFaults)
	}
	p := c.peers[addr]
	if p == nil {
		p = &peerFaults{in: c.in, out: c.out}
		c.peers[addr] = p
	}
	return p
}

// SetPeerPlans gives traffic to and from one remote address its own
// fault schedule, overriding the connection-wide plans — a single
// backbone link of a router that talks to many peers over one socket.
func (c *Conn) SetPeerPlans(addr string, in, out FaultPlan) {
	c.mu.Lock()
	p := c.peer(addr)
	p.in, p.out = in, out
	c.mu.Unlock()
}

// PartitionPeerFor blackholes traffic to and from one remote address for
// d, starting now, leaving every other link of this socket untouched.
// Calling it again extends or shortens the window.
func (c *Conn) PartitionPeerFor(addr string, d time.Duration) {
	c.mu.Lock()
	c.peer(addr).partitionUntil = time.Now().Add(d)
	c.mu.Unlock()
}

// PeerPartitioned reports whether the per-link partition window of one
// remote address is currently open.
func (c *Conn) PeerPartitioned(addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.peers[addr]
	return p != nil && time.Now().Before(p.partitionUntil)
}

// faultsFor resolves the plan and partition deadline governing one
// datagram (under mu): the peer override when present, else the
// connection-wide schedule. The wider of the two partition windows wins.
func (c *Conn) faultsFor(addr net.Addr) (FaultPlan, FaultPlan, time.Time) {
	in, out, until := c.in, c.out, c.partitionUntil
	if p := c.peers[addr.String()]; p != nil {
		in, out = p.in, p.out
		if p.partitionUntil.After(until) {
			until = p.partitionUntil
		}
	}
	return in, out, until
}

// PartitionFor blackholes the connection in both directions for d,
// starting now. Calling it again extends or shortens the window.
func (c *Conn) PartitionFor(d time.Duration) {
	c.mu.Lock()
	c.partitionUntil = time.Now().Add(d)
	c.mu.Unlock()
}

// Partitioned reports whether the partition window is currently open.
func (c *Conn) Partitioned() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Now().Before(c.partitionUntil)
}

// roll draws one uniform variate under mu.
func (c *Conn) roll() float64 { return c.rng.Float64() }

// corrupt flips 1–3 random bits of p in place (under mu, for the rng).
func (c *Conn) corrupt(p []byte) {
	if len(p) == 0 {
		return
	}
	flips := 1 + c.rng.Intn(3)
	for i := 0; i < flips; i++ {
		bit := c.rng.Intn(len(p) * 8)
		p[bit/8] ^= 1 << (bit % 8)
	}
}

// clonePacket copies a datagram that outlives the call, address too: a
// batching sender reuses the address it passed for its next datagram.
func clonePacket(p []byte, addr net.Addr) packet {
	if ua, ok := addr.(*net.UDPAddr); ok {
		addr = &net.UDPAddr{IP: append(net.IP(nil), ua.IP...), Port: ua.Port, Zone: ua.Zone}
	}
	return packet{data: append([]byte(nil), p...), addr: addr}
}

// WriteTo applies the Out schedule, then forwards to the wrapped conn.
// Faulted datagrams still report a successful send — exactly what a lossy
// radio link looks like to the sender.
func (c *Conn) WriteTo(p []byte, addr net.Addr) (int, error) {
	c.tapped(Sent, addr, p)
	c.mu.Lock()
	_, plan, partitionUntil := c.faultsFor(addr)
	if time.Now().Before(partitionUntil) {
		c.mu.Unlock()
		c.partitionDrops.Add(1)
		return len(p), nil
	}
	// A datagram held for reordering is released behind the current one.
	var release *packet
	if c.heldWrite != nil {
		release = c.heldWrite
		c.heldWrite = nil
	}

	v := c.roll()
	switch {
	case v < plan.Drop:
		c.mu.Unlock()
		c.dropped.Add(1)
		return c.flush(nil, release, len(p))
	case v < plan.Drop+plan.Corrupt:
		bad := clonePacket(p, addr)
		c.corrupt(bad.data)
		c.mu.Unlock()
		c.corrupted.Add(1)
		return c.flush(&bad, release, len(p))
	case v < plan.Drop+plan.Corrupt+plan.Duplicate:
		dup := clonePacket(p, addr)
		c.mu.Unlock()
		c.duplicated.Add(1)
		if _, err := c.inner.WriteTo(p, addr); err != nil {
			return 0, err
		}
		return c.flush(&dup, release, len(p))
	case v < plan.Drop+plan.Corrupt+plan.Duplicate+plan.Reorder:
		held := clonePacket(p, addr)
		c.heldWrite = &held
		c.mu.Unlock()
		c.reordered.Add(1)
		return c.flush(nil, release, len(p))
	case v < plan.Drop+plan.Corrupt+plan.Duplicate+plan.Reorder+plan.Delay:
		d := time.Duration(c.rng.Int63n(int64(max(plan.DelayMax, time.Millisecond))))
		late := clonePacket(p, addr)
		c.mu.Unlock()
		c.delayed.Add(1)
		time.AfterFunc(d, func() {
			// Best effort: the conn may already be closed.
			_, _ = c.inner.WriteTo(late.data, late.addr)
		})
		return c.flush(nil, release, len(p))
	}
	c.mu.Unlock()
	if _, err := c.inner.WriteTo(p, addr); err != nil {
		return 0, err
	}
	return c.flush(nil, release, len(p))
}

// flush sends the optional extra and released datagrams, reporting n as
// the caller's write size.
func (c *Conn) flush(extra, release *packet, n int) (int, error) {
	if extra != nil {
		_, _ = c.inner.WriteTo(extra.data, extra.addr)
	}
	if release != nil {
		_, _ = c.inner.WriteTo(release.data, release.addr)
	}
	return n, nil
}

// ReadFrom applies the In schedule to arriving datagrams: drops and
// partition losses are swallowed (the read keeps waiting within the
// deadline), corruption mangles the delivered bytes, duplicates and
// released reorders are queued for the next call.
func (c *Conn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, addr, err := c.readFrom(p)
	if err == nil {
		c.tapped(Received, addr, p[:n])
	}
	return n, addr, err
}

func (c *Conn) readFrom(p []byte) (int, net.Addr, error) {
	for {
		c.mu.Lock()
		if len(c.pendingRead) > 0 {
			pkt := c.pendingRead[0]
			c.pendingRead = c.pendingRead[1:]
			c.mu.Unlock()
			return copy(p, pkt.data), pkt.addr, nil
		}
		c.mu.Unlock()

		n, addr, err := c.inner.ReadFrom(p)
		if err != nil {
			return n, addr, err
		}

		c.mu.Lock()
		plan, _, partitionUntil := c.faultsFor(addr)
		if time.Now().Before(partitionUntil) {
			c.mu.Unlock()
			c.partitionDrops.Add(1)
			continue
		}
		if c.heldRead != nil {
			c.pendingRead = append(c.pendingRead, *c.heldRead)
			c.heldRead = nil
		}
		v := c.roll()
		switch {
		case v < plan.Drop:
			c.mu.Unlock()
			c.dropped.Add(1)
			continue
		case v < plan.Drop+plan.Corrupt:
			c.corrupt(p[:n])
			c.mu.Unlock()
			c.corrupted.Add(1)
			return n, addr, nil
		case v < plan.Drop+plan.Corrupt+plan.Duplicate:
			c.pendingRead = append(c.pendingRead, clonePacket(p[:n], addr))
			c.mu.Unlock()
			c.duplicated.Add(1)
			return n, addr, nil
		case v < plan.Drop+plan.Corrupt+plan.Duplicate+plan.Reorder+plan.Delay:
			// Receive-side delay behaves like a reorder: hold the datagram
			// until the next one overtakes it.
			held := clonePacket(p[:n], addr)
			c.heldRead = &held
			c.mu.Unlock()
			c.reordered.Add(1)
			continue
		}
		c.mu.Unlock()
		return n, addr, nil
	}
}

// Close closes the wrapped conn.
func (c *Conn) Close() error { return c.inner.Close() }

// LocalAddr returns the wrapped conn's address.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// SetDeadline forwards to the wrapped conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline forwards to the wrapped conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline forwards to the wrapped conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
