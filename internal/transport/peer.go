package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/core"
)

// PeerResponder is the responder side of the user–user AKA on the wire:
// it answers M̃.1 hellos with group-signed M̃.2 responses (replaying the
// cached response on duplicate hellos, so a lost M̃.2 is recovered by the
// initiator's retransmission) and validates M̃.3 confirmations.
type PeerResponder struct {
	conn  net.PacketConn
	user  *core.User
	group core.GroupID
	stats *Stats

	mu        sync.Mutex
	responses map[string][]byte // marshaled g^{r_j} → cached M̃.2 frame
	confirmed []*core.Session
	closed    bool
	loopDone  chan struct{}
}

// NewPeerResponder starts answering peer hellos on conn as user.
func NewPeerResponder(conn net.PacketConn, user *core.User, group core.GroupID) *PeerResponder {
	p := &PeerResponder{
		conn:      conn,
		user:      user,
		group:     group,
		stats:     NewStats(nil),
		responses: make(map[string][]byte),
		loopDone:  make(chan struct{}),
	}
	go p.readLoop()
	return p
}

// Addr returns the responder's listen address.
func (p *PeerResponder) Addr() net.Addr { return p.conn.LocalAddr() }

// Stats returns the responder's transport counters.
func (p *PeerResponder) Stats() *Stats { return p.stats }

// Confirmed returns the sessions whose M̃.3 confirmation arrived and
// decrypted correctly.
func (p *PeerResponder) Confirmed() []*core.Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*core.Session(nil), p.confirmed...)
}

// Close stops the responder.
func (p *PeerResponder) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	_ = p.conn.Close()
	<-p.loopDone
}

func (p *PeerResponder) readLoop() {
	defer close(p.loopDone)
	buf := make([]byte, 65536)
	for {
		n, addr, err := p.conn.ReadFrom(buf)
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		p.stats.bytesIn.Add(int64(n))
		kind, payload, err := DecodeFrame(buf[:n])
		if err != nil {
			p.stats.decodeErrors.Add(1)
			continue
		}
		p.stats.framesIn.Add(1)
		switch kind {
		case KindPeerHello:
			p.handleHello(payload, addr)
		case KindPeerConfirm:
			p.handleConfirm(payload)
		default:
			p.stats.unhandled.Add(1)
		}
	}
}

func (p *PeerResponder) handleHello(payload []byte, addr net.Addr) {
	m, err := core.UnmarshalPeerHello(payload)
	if err != nil {
		p.stats.decodeErrors.Add(1)
		return
	}
	key := string(m.GJ.Marshal())
	p.mu.Lock()
	cached := p.responses[key]
	p.mu.Unlock()
	if cached != nil {
		// Duplicate hello: the initiator missed our M̃.2 — replay it
		// rather than minting a second session.
		p.stats.duplicates.Add(1)
		p.writeTo(cached, addr)
		return
	}
	resp, _, err := p.user.HandlePeerHello(m, p.group)
	if err != nil {
		p.stats.rejects.Add(1)
		return
	}
	frame, err := EncodeMessage(resp)
	if err != nil {
		return
	}
	p.mu.Lock()
	p.responses[key] = frame
	p.mu.Unlock()
	p.writeTo(frame, addr)
}

func (p *PeerResponder) handleConfirm(payload []byte) {
	m, err := core.UnmarshalPeerConfirm(payload)
	if err != nil {
		p.stats.decodeErrors.Add(1)
		return
	}
	sess, err := p.user.HandlePeerConfirm(m)
	if err != nil {
		p.stats.rejects.Add(1)
		return
	}
	p.mu.Lock()
	for _, s := range p.confirmed {
		if s.ID == sess.ID {
			p.mu.Unlock()
			p.stats.duplicates.Add(1)
			return
		}
	}
	p.confirmed = append(p.confirmed, sess)
	p.mu.Unlock()
}

func (p *PeerResponder) writeTo(frame []byte, addr net.Addr) {
	n, err := p.conn.WriteTo(frame, addr)
	if err != nil {
		return
	}
	p.stats.framesOut.Add(1)
	p.stats.bytesOut.Add(int64(n))
}

// AttachPeer runs the initiator side of the user–user AKA against a peer
// at raddr: broadcast M̃.1, await the matching M̃.2 (retransmitting
// through loss), then send the M̃.3 confirmation. The user must have
// processed a beacon so the serving router's generator is cached (or the
// caller provisions it via core.User.StartPeerAuthWithGenerator first).
func AttachPeer(ctx context.Context, conn net.PacketConn, raddr net.Addr, user *core.User, cfg ClientConfig) (*core.Session, error) {
	c := NewClient(conn, raddr, user, cfg)
	hello, err := user.StartPeerAuth(c.cfg.Group)
	if err != nil {
		return nil, err
	}
	helloFrame, err := EncodeMessage(hello)
	if err != nil {
		return nil, err
	}
	gj := hello.GJ.Marshal()
	var resp *core.PeerResponse
	x := &exchange{c: c, frame: helloFrame, accept: func(_ time.Time, kind Kind, payload []byte) bool {
		if kind != KindPeerResponse {
			return drop(c.stats.unhandled)
		}
		m, err := core.UnmarshalPeerResponse(payload)
		if err != nil {
			return drop(c.stats.decodeErrors)
		}
		if string(m.GJ.Marshal()) != string(gj) {
			return drop(c.stats.unhandled)
		}
		resp = m
		return true
	}}
	if err := c.drive(ctx, x); err != nil {
		return nil, fmt.Errorf("peer hello: %w", err)
	}
	confirm, sess, err := user.HandlePeerResponse(resp)
	if err != nil {
		return nil, err
	}
	confirmFrame, err := EncodeMessage(confirm)
	if err != nil {
		return nil, err
	}
	if err := c.send(confirmFrame); err != nil {
		return nil, err
	}
	return sess, nil
}
