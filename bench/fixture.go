package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"net"
	"time"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/sgs"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/transport"
)

// The fixtures are built from production constructors only, so that a
// later change that moves or deletes a harness (transport.NewLocalNetwork,
// backbone.StartMetro, ...) never has to edit the benchmark;
// imports_test.go enforces the list.

const (
	benchGroup = core.GroupID("grp-bench")
	decoyGroup = core.GroupID("grp-decoy")
	// revokedTokens is the URL size every router checks against: spare
	// key slots of the bench group, revoked before the first attach.
	revokedTokens = 16
)

// deployment is one provisioned PEACE network under a single operator:
// the bench group with its enrolled users, a decoy group (so an audit has
// two groups to choose from), and certified routers that all hold the
// same revocation state. Users are in sync with that state, as after an
// out-of-band bootstrap at enrollment.
type deployment struct {
	no      *core.NetworkOperator
	users   []*core.User
	routers []*core.MeshRouter
	// revoked are the URL's tokens, kept for the per-layer sweep rows.
	revoked []*sgs.RevocationToken
}

func newDeployment(nRouters, nUsers int) (*deployment, error) {
	cfg := core.Config{}
	no, err := core.NewNetworkOperator(cfg)
	if err != nil {
		return nil, err
	}
	ttp, err := core.NewTTP(cfg, no.Authority())
	if err != nil {
		return nil, err
	}
	gm, err := core.NewGroupManager(cfg, benchGroup, no.Authority())
	if err != nil {
		return nil, err
	}
	if err := no.RegisterUserGroup(gm, ttp, nUsers+revokedTokens); err != nil {
		return nil, err
	}
	decoy, err := core.NewGroupManager(cfg, decoyGroup, no.Authority())
	if err != nil {
		return nil, err
	}
	if err := no.RegisterUserGroup(decoy, ttp, 2); err != nil {
		return nil, err
	}

	d := &deployment{no: no}
	for i := 0; i < nUsers; i++ {
		u, err := core.NewUser(cfg, core.Identity{
			Essential:  core.UserID(fmt.Sprintf("bench-user-%d", i)),
			Attributes: []core.Attribute{{Group: benchGroup, Role: "member"}},
		}, no.Authority(), no.GroupPublicKey())
		if err != nil {
			return nil, err
		}
		if err := core.EnrollUser(u, gm, ttp); err != nil {
			return nil, err
		}
		d.users = append(d.users, u)
	}
	// Users took slots 0..nUsers-1; the spare slots behind them go on the URL.
	for i := 0; i < revokedTokens; i++ {
		tok, err := no.TokenOf(benchGroup, nUsers+i)
		if err != nil {
			return nil, err
		}
		no.RevokeUserKey(tok)
		d.revoked = append(d.revoked, tok)
	}
	crl, url, err := no.RevocationBundles()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nRouters; i++ {
		id := fmt.Sprintf("bench-r%d", i)
		r, err := core.NewMeshRouter(cfg, id, no.Authority(), no.GroupPublicKey())
		if err != nil {
			return nil, err
		}
		c, err := no.EnrollRouter(id, r.Public())
		if err != nil {
			return nil, err
		}
		r.SetCertificate(c)
		if err := r.UpdateRevocations(crl, url); err != nil {
			return nil, err
		}
		d.routers = append(d.routers, r)
	}
	for _, l := range []revocation.List{revocation.ListURL, revocation.ListCRL} {
		snap, ok := d.routers[0].RevocationSnapshot(l)
		if !ok {
			return nil, fmt.Errorf("fixture: router has no %v snapshot", l)
		}
		for _, u := range d.users {
			if err := u.InstallRevocationSnapshot(snap); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// serve starts router i on a fresh loopback socket. cfg carries only what
// a workload must pin; everything else stays at the transport defaults so
// a changed default is measured the way users get it.
func (d *deployment) serve(i int, cfg transport.ServerConfig) (*transport.Server, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return transport.NewServer(conn, d.routers[i], cfg), nil
}

// client opens a socket for user i talking to srv. seed drives the
// retransmit jitter only; protocol randomness stays crypto/rand.
func (d *deployment) client(i int, srv *transport.Server, seed int64) (*transport.Client, net.PacketConn, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	return transport.NewClient(conn, srv.Addr(), d.users[i], transport.ClientConfig{Seed: seed}), conn, nil
}

// opTimeout bounds one protocol operation of a workload.
const opTimeout = 20 * time.Second

// attach runs one full M.1–M.3 attach. It only returns a session that
// passed User.HandleAccessConfirm.
func attach(cl *transport.Client) (*core.Session, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	return cl.Attach(ctx)
}

// metro is a running two-or-more-router deployment: one user-facing
// server and one backbone node per router, fully meshed, sharing a STEK
// ring so tickets roam.
type metro struct {
	servers []*transport.Server
	nodes   []*backbone.Node
	// linkHandshake is the time from the first AddPeer until every node
	// had a route to every other.
	linkHandshake time.Duration
}

func (d *deployment) startMetro() (*metro, error) {
	ring, err := symcrypto.NewTicketKeyRing(rand.Reader)
	if err != nil {
		return nil, err
	}
	m := &metro{}
	for i := range d.routers {
		srv, err := d.serve(i, transport.ServerConfig{BootEpoch: uint64(1000 + i), TicketKeys: ring})
		if err != nil {
			m.close()
			return nil, err
		}
		m.servers = append(m.servers, srv)
		bb, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			m.close()
			return nil, err
		}
		m.nodes = append(m.nodes, backbone.NewNode(bb, srv, backbone.Config{}))
	}
	start := time.Now()
	for i, a := range m.nodes {
		for j, b := range m.nodes {
			if i != j {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}
	deadline := start.Add(30 * time.Second)
	for !m.converged() {
		if time.Now().After(deadline) {
			m.close()
			return nil, fmt.Errorf("fixture: backbone never converged")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m.linkHandshake = time.Since(start)
	return m, nil
}

func (m *metro) converged() bool {
	for _, a := range m.nodes {
		for _, b := range m.nodes {
			if _, ok := a.HopsTo(b.ID()); !ok {
				return false
			}
		}
	}
	return true
}

// close tears the metro down, backbone first.
func (m *metro) close() {
	for _, n := range m.nodes {
		n.Close()
	}
	for _, s := range m.servers {
		s.Close()
	}
}
