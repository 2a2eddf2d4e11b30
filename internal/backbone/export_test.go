package backbone

import (
	"net"
	"time"

	"github.com/peace-mesh/peace/internal/transport"
)

// FrameSize is the egress buffer class no sealed gossip or announce
// frame may exceed.
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

// Unacked returns how many owner ads the node holds numbered and not yet
// acknowledged, over all its links.
func (n *Node) Unacked() int {
	total := 0
	for _, l := range n.links {
		total += len(l.unacked)
	}
	return total
}
