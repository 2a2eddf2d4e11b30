package backbone

import "time"

// FrameSize is the egress buffer class no sealed gossip or announce
// frame may exceed.
const FrameSize = backboneFrameSize

// Tick runs one maintenance pass at now, as the gossip ticker would.
func (n *Node) Tick(now time.Time) { n.tick(now) }

// Unacked returns how many owner ads the node holds numbered and not yet
// acknowledged, over all its links.
func (n *Node) Unacked() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, l := range n.links {
		l.mu.Lock()
		total += len(l.unacked)
		l.mu.Unlock()
	}
	return total
}
