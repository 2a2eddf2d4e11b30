package chaos

import (
	"context"
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/transport"
)

// TestbedConfig sizes and tunes a Testbed. Every drill's config embeds
// it, so the knobs the drills share exist once.
type TestbedConfig struct {
	// Routers is how many certified routers serve the group. With more
	// than one, each also runs a backbone node and the nodes form a ring.
	// Default 1, and every drill but the metro pins it there: they judge
	// router 0's counters and degrade client links.
	Routers int
	// Users is how many members of the group are enrolled; user i's home
	// router is i mod Routers. Default 1.
	Users int
	// Seed drives every pseudo-random stream in the run. Default 1.
	Seed int64
	// Faults is the per-direction schedule of the links a drill degrades:
	// every client link of a single router, every backbone socket of a
	// metro (whose user plane stays clean — the metro drills measure
	// roaming over a degraded backbone, the single-router ones client
	// healing). The zero plan passes every datagram through.
	Faults FaultPlan
	// Keepalive is the keepalive interval of launched (self-healing)
	// clients. Default 150ms.
	Keepalive time.Duration
	// SettleTimeout bounds each Settle wait; a launched client's single
	// attach attempt gets a third of it. Default 90s.
	SettleTimeout time.Duration
	// Client and Server tune the endpoints. The testbed sets the per-client
	// Seed and every router's BootEpoch and TicketKeys itself.
	Client transport.ClientConfig
	Server transport.ServerConfig
	// Logf, when set, receives phase-by-phase progress.
	Logf func(format string, args ...any)
}

func (c TestbedConfig) withDefaults() TestbedConfig {
	if c.Routers < 1 {
		c.Routers = 1
	}
	if c.Users < 1 {
		c.Users = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Keepalive <= 0 {
		c.Keepalive = 150 * time.Millisecond
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 90 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// withFleetClient gives the soaks' clients, unless the caller tuned them,
// quick first retransmits so lossy runs converge fast and a budget deep
// enough to sit out a busy router's verification queue.
func (c TestbedConfig) withFleetClient() TestbedConfig {
	if c.Client == (transport.ClientConfig{}) {
		c.Client = transport.ClientConfig{
			RetransmitTimeout: 60 * time.Millisecond,
			MaxTimeout:        time.Second,
			MaxRetries:        12,
		}
	}
	return c
}

// Verdict collects the invariant violations of one drill; every report
// embeds it. A clean run has none.
type Verdict struct {
	mu         sync.Mutex
	Violations []string `json:"violations,omitempty"`
}

// Failed reports whether the run violated any invariant.
func (v *Verdict) Failed() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.Violations) > 0
}

func (v *Verdict) violate(format string, args ...any) {
	v.mu.Lock()
	v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
	v.mu.Unlock()
}

// Testbed is a provisioned deployment running on loopback UDP: one
// transport.Server per router on a shared STEK ring (so tickets survive
// restarts and roam), one backbone.Node each when there is more than one
// router, and the clients dialed so far. Every client link and backbone
// socket sits behind a seeded Conn. The drills of this package are
// scripts over it.
type Testbed struct {
	Net     *transport.LocalNetwork
	Ring    *symcrypto.TicketKeyRing
	Servers []*transport.Server
	// Nodes and Backbone are router i's backbone node and the fault
	// wrapper around its socket; empty with a single router.
	Nodes    []*backbone.Node
	Backbone []*Conn
	// Clients[i] and Links[i] are user i's most recently dialed client
	// and its socket wrapper; nil until Dial.
	Clients []*transport.Client
	Links   []*Conn

	cfg      TestbedConfig
	faultReg *metrics.Registry // every Conn of the testbed counts here
	spare    int               // next unissued credential slot BumpRevocation revokes

	ctx    context.Context
	cancel context.CancelFunc
	fleet  sync.WaitGroup
}

// gossipInterval and graceWindow configure every backbone node: gossip
// quick enough that a healed partition converges within a test's
// patience, a grace window no drill outlives.
const (
	gossipInterval = 50 * time.Millisecond
	graceWindow    = 60 * time.Second
)

// NewTestbed provisions the network and boots every router.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	cfg = cfg.withDefaults()
	ln, err := transport.NewLocalNetwork(core.Config{}, "grp-0", cfg.Routers, cfg.Users)
	if err != nil {
		return nil, fmt.Errorf("provision: %w", err)
	}
	if cfg.Routers > 1 {
		// A metro's users get the enrollment-time out-of-band bootstrap:
		// its drills measure roaming, not delta distribution. Single-
		// router drills keep the in-band path they exercise.
		if err := ln.SeedUserRevocations(); err != nil {
			return nil, err
		}
	}
	ring, err := symcrypto.NewTicketKeyRing(rand.Reader)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{
		Net:      ln,
		Ring:     ring,
		Servers:  make([]*transport.Server, cfg.Routers),
		Clients:  make([]*transport.Client, cfg.Users),
		Links:    make([]*Conn, cfg.Users),
		cfg:      cfg,
		faultReg: metrics.NewRegistry(),
		spare:    cfg.Users,
	}
	tb.ctx, tb.cancel = context.WithCancel(context.Background())
	if cfg.Routers > 1 {
		tb.Nodes = make([]*backbone.Node, cfg.Routers)
		tb.Backbone = make([]*Conn, cfg.Routers)
	}
	for i := range tb.Servers {
		if err := tb.boot(i, "127.0.0.1:0", "127.0.0.1:0"); err != nil {
			tb.Close()
			return nil, err
		}
	}
	// Ring topology: each router links to both neighbours, so most
	// handoffs cross multi-hop paths.
	for i, node := range tb.Nodes {
		tb.addPeers(i, node)
	}
	return tb, nil
}

// boot starts router i's next incarnation on the given user-plane and
// backbone addresses. It inherits the (closed) previous incarnation's
// registry, so the server counters a drill judges span restarts.
func (tb *Testbed) boot(i int, userAddr, backboneAddr string) error {
	conn, err := listenRetry(userAddr)
	if err != nil {
		return err
	}
	scfg := tb.cfg.Server
	scfg.TicketKeys = tb.Ring
	scfg.BootEpoch = uint64(1000*i + 1)
	if prev := tb.Servers[i]; prev != nil {
		scfg.BootEpoch = prev.BootEpoch() + 1
		scfg.Metrics = prev.Stats().Registry()
	}
	tb.Servers[i] = transport.NewServer(conn, tb.Net.Routers[i], scfg)
	if tb.Nodes == nil {
		return nil
	}
	bb, err := listenRetry(backboneAddr)
	if err != nil {
		return err
	}
	tb.Backbone[i] = WrapInRegistry(bb, tb.cfg.Faults, tb.cfg.Faults, tb.cfg.Seed+int64(i), tb.faultReg)
	tb.Nodes[i] = backbone.NewNode(tb.Backbone[i], tb.Servers[i], backbone.Config{
		GossipInterval: gossipInterval,
		GraceWindow:    graceWindow,
		Logf:           tb.cfg.Server.Logf,
	})
	return nil
}

func (tb *Testbed) addPeers(i int, node *backbone.Node) {
	n := len(tb.Nodes)
	for _, j := range []int{(i + 1) % n, (i + n - 1) % n} {
		if j != i {
			node.AddPeer(tb.Nodes[j].ID(), tb.Nodes[j].Addr())
		}
	}
}

// listenRetry binds a UDP socket, retrying while a just-closed socket
// still holds the exact address a restart re-listens on.
func listenRetry(addr string) (net.PacketConn, error) {
	var lastErr error
	for i := 0; i < 100; i++ {
		conn, err := net.ListenPacket("udp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("chaos: listen %v: %w", addr, lastErr)
}

// Restart kills router i and reincarnates it on the same addresses with
// the next boot epoch: volatile session state is lost, durable state
// (keys, certificates, revocation, the STEK ring, the counters) survives.
// Drain the server first for a graceful restart.
func (tb *Testbed) Restart(i int) error {
	userAddr, backboneAddr := tb.Servers[i].Addr().String(), ""
	if tb.Nodes != nil {
		backboneAddr = tb.Nodes[i].Addr().String()
		tb.Nodes[i].Close()
	}
	tb.Servers[i].Close()
	tb.Net.Routers[i].Reboot()
	if err := tb.boot(i, userAddr, backboneAddr); err != nil {
		return err
	}
	if tb.Nodes != nil {
		tb.addPeers(i, tb.Nodes[i])
	}
	return nil
}

// Dial opens a fresh loopback socket for user i and returns a client on
// it aimed at the user's home router. It replaces (and closes) the link
// the user dialed before; Close closes the last one.
func (tb *Testbed) Dial(i int) (*transport.Client, error) {
	raw, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if tb.Links[i] != nil {
		_ = tb.Links[i].Close()
	}
	var faults FaultPlan
	if tb.Nodes == nil {
		faults = tb.cfg.Faults
	}
	tb.Links[i] = WrapInRegistry(raw, faults, faults, tb.cfg.Seed*1_000_003+int64(i), tb.faultReg)
	ccfg := tb.cfg.Client
	ccfg.Seed = tb.cfg.Seed*2_000_003 + int64(i)
	tb.Clients[i] = transport.NewClient(tb.Links[i], tb.Servers[i%len(tb.Servers)].Addr(), tb.Net.Users[i], ccfg)
	return tb.Clients[i], nil
}

// Launch dials users lo..hi-1 and keeps their clients attached — the
// self-healing Maintain loop — until Close.
func (tb *Testbed) Launch(lo, hi int) error {
	for i := lo; i < hi; i++ {
		cl, err := tb.Dial(i)
		if err != nil {
			return err
		}
		tb.fleet.Add(1)
		go func() {
			defer tb.fleet.Done()
			_ = cl.Maintain(tb.ctx, transport.MaintainConfig{
				KeepaliveInterval: tb.cfg.Keepalive,
				PingTimeout:       2 * tb.cfg.Keepalive,
				MaxMissed:         3,
				ReattachMin:       50 * time.Millisecond,
				ReattachMax:       500 * time.Millisecond,
				AttachTimeout:     tb.cfg.SettleTimeout / 3,
			})
		}()
	}
	return nil
}

// Established counts the dialed clients that hold a session with the
// current incarnation of the router they point at.
func (tb *Testbed) Established() int {
	epochs := make(map[string]uint64, len(tb.Servers))
	for _, s := range tb.Servers {
		epochs[s.Addr().String()] = s.BootEpoch()
	}
	n := 0
	for _, cl := range tb.Clients {
		if cl != nil && cl.Session() != nil && cl.BootEpoch() == epochs[cl.RouterAddr().String()] {
			n++
		}
	}
	return n
}

// poll waits until cond holds or SettleTimeout passes.
func (tb *Testbed) poll(cond func() bool) bool {
	deadline := time.Now().Add(tb.cfg.SettleTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
	return true
}

// Settle polls cond until it holds or SettleTimeout passes, which it
// records in v as a violation.
func (tb *Testbed) Settle(v *Verdict, what string, cond func() bool) bool {
	if !tb.poll(cond) {
		v.violate("timed out settling: %s", what)
		return false
	}
	return true
}

// WaitConverged blocks until every backbone node has a route to every
// router, or returns false after SettleTimeout.
func (tb *Testbed) WaitConverged() bool {
	return tb.poll(func() bool {
		for _, node := range tb.Nodes {
			for _, other := range tb.Nodes {
				if _, reach := node.HopsTo(other.ID()); !reach {
					return false
				}
			}
		}
		return true
	})
}

// BumpRevocation revokes n spare (never issued to a user) credential
// slots, so the URL epoch advances without knocking out any client, and
// installs the advanced bundles on the named routers — all of them when
// none is named — whose beacons then advertise the new epoch.
func (tb *Testbed) BumpRevocation(n int, routers ...int) error {
	for ; n > 0; n-- {
		tok, err := tb.Net.NO.TokenOf(tb.Net.GM.ID(), tb.spare)
		if err != nil {
			return fmt.Errorf("chaos: spare slot exhausted: %w", err)
		}
		tb.spare++
		tb.Net.NO.RevokeUserKey(tok)
	}
	if len(routers) == 0 {
		for i := range tb.Servers {
			routers = append(routers, i)
		}
	}
	targets := make([]*core.MeshRouter, len(routers))
	for k, i := range routers {
		targets[k] = tb.Net.Routers[i]
	}
	if err := tb.Net.RefreshRevocations(targets...); err != nil {
		return err
	}
	for _, i := range routers {
		tb.Servers[i].InvalidateBeacon()
	}
	return nil
}

// ProbeKeys proves end to end that every dialed client holding a session
// agrees on its keys with the router serving it — the only way a session
// exists is a completed, uncorrupted handshake. It returns how many
// clients passed and records the rest in v.
func (tb *Testbed) ProbeKeys(v *Verdict) int {
	passed := 0
	for i, cl := range tb.Clients {
		if cl == nil {
			continue
		}
		sess := cl.Session()
		if sess == nil {
			continue
		}
		var routerSess *core.Session
		for _, r := range tb.Net.Routers {
			if s, ok := r.SessionByID(sess.ID); ok {
				routerSess = s
				break
			}
		}
		if routerSess == nil {
			v.violate("client %d session %s unknown to every router", i, sess.ID)
			continue
		}
		probe := fmt.Sprintf("probe-%d", i)
		frame, err := routerSess.SealData(rand.Reader, []byte(probe))
		if err != nil {
			v.violate("client %d: router seal: %v", i, err)
			continue
		}
		if pt, err := sess.OpenData(frame); err != nil || string(pt) != probe {
			v.violate("client %d: session keys disagree: %v", i, err)
			continue
		}
		passed++
	}
	return passed
}

// Injected sums the faults injected on every client link and backbone
// socket of the testbed, closed ones included.
func (tb *Testbed) Injected() Counters { return injectedIn(tb.faultReg).Counters() }

// Close stops the launched clients, then the backbone, then the servers.
func (tb *Testbed) Close() {
	tb.cancel()
	tb.fleet.Wait()
	for _, l := range tb.Links {
		if l != nil {
			_ = l.Close()
		}
	}
	for _, n := range tb.Nodes {
		if n != nil {
			n.Close()
		}
	}
	for _, s := range tb.Servers {
		if s != nil {
			s.Close()
		}
	}
}
