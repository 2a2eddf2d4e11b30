package backbone

import (
	"net"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
	"github.com/peace-mesh/peace/internal/transport/batchio"
)

// FrameSize is the egress buffer class no sealed gossip or relay frame
// may exceed.
const FrameSize = backboneFrameSize

// FlushDelay is how long the inbox holds work before the loop wakes for
// it.
const FlushDelay = backboneFlushDelay

// TriggerSpacing is how far ahead a route change pulls the next round.
const TriggerSpacing = triggerSpacing

// NewStepped builds a node that runs no goroutine: the caller owns it
// and drives it with Step and Serve.
func NewStepped(conn net.PacketConn, server *transport.Server, cfg Config) *Node {
	return newNode(conn, server, cfg)
}

// Step runs the node's step at now.
func (n *Node) Step(now time.Time) { n.step(now) }

// Serve reads and dispatches every datagram waiting on the node's
// socket, then steps at now so what they provoked leaves in one flush.
func (n *Node) Serve(now time.Time) {
	for n.serve() == nil {
	}
	n.step(now)
}

// Tick runs one maintenance pass at now, due or not, and flushes it.
func (n *Node) Tick(now time.Time) {
	n.tick(now)
	n.eg.Flush()
}

// Flush sends what the node has queued.
func (n *Node) Flush() { n.eg.Flush() }

// RouteVia returns the linked peer the node reaches router through.
func (n *Node) RouteVia(router string) (string, bool) {
	n.view.RLock()
	defer n.view.RUnlock()
	e, ok := n.routes[router]
	return e.via, ok
}

// Unacked returns how many owner ads the node adopted that their previous
// routers have not acknowledged.
func (n *Node) Unacked() int { return len(n.unacked) }

// EnvelopeSlot is one ingest slot a test serves sealed envelopes to a
// node from, reused for every envelope as the read loop's ring reuses its
// slots.
type EnvelopeSlot struct {
	from, to *Node
	l        *link
	m        batchio.Message
}

// NewEnvelopeSlot returns a slot serving envelopes that from seals on its
// established link to to.
func NewEnvelopeSlot(from, to *Node) *EnvelopeSlot {
	return &EnvelopeSlot{
		from: from,
		to:   to,
		l:    from.link(to.id),
		m:    batchio.Message{Buf: make([]byte, backboneFrameSize), Addr: from.Addr()},
	}
}

// Serve seals plaintext as kind on the link into the slot, has the node
// dispatch it at now, and then overwrites the slot as the next read into
// it would.
func (s *EnvelopeSlot) Serve(kind transport.Kind, plaintext []byte, now time.Time) {
	frame, err := transport.AppendFrameHeader(s.m.Buf[:0], kind, linkEnvelopeLen(s.from.id, len(plaintext)))
	if err != nil {
		panic(err)
	}
	frame = s.l.sealAppend(frame, kind, s.from.id, plaintext)
	s.m.N = len(frame)
	s.to.dispatch(&s.m, now)
	for i := range frame {
		frame[i] = 0xa5
	}
}

// AdsRelay is the plaintext of a relay from origin to target listing one
// owner ad per adopted session in next: origin adopted it away from
// target, and owns it until expires.
func AdsRelay(target, origin string, expires time.Time, next ...core.SessionID) []byte {
	ads := make([]ownerAd, len(next))
	for i := range ads {
		ads[i] = ownerAd{Next: next[i], Owner: origin, PrevRouter: target, Expires: expires}
	}
	return appendRelay(nil, target, origin, relayAds, appendOwnerAds(nil, ads))
}

// AcksRelay is the plaintext of a relay from origin to target
// acknowledging the owner ads of the sessions in next.
func AcksRelay(target, origin string, next ...core.SessionID) []byte {
	ads := make([]ownerAd, len(next))
	for i := range ads {
		ads[i].Next = next[i]
	}
	return appendRelay(nil, target, origin, relayAcks, appendAcks(nil, ads))
}

// DataRelay is the plaintext of a relay from origin to target carrying a
// marshaled data frame.
func DataRelay(target, origin string, frame []byte) []byte {
	return appendRelay(nil, target, origin, relayData, frame)
}

// GossipPlaintext is a gossip round's plaintext that advertises router at
// hops.
func GossipPlaintext(router string, hops uint32) []byte {
	return (&gossipBody{Routes: []routeAd{{Router: router, Hops: hops}}}).Marshal()
}
