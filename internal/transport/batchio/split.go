package batchio

// splitCoalesced says how a received slot of n bytes divides when the
// kernel coalesced it from segments of gso bytes each (UDP GRO; every
// segment but the last is gso bytes long) and the caller has free slots
// left. segs is how many datagrams the slot holds, fit how many of the
// leading ones go into the free slots, and cut the byte length of those
// fit; bytes [cut, n) are the segments that carry over. gso ≤ 0 or ≥ n
// means the slot holds one datagram, so a zero-length datagram is one
// segment too.
func splitCoalesced(n, gso, free int) (segs, fit, cut int) {
	if gso <= 0 || gso >= n {
		segs, gso = 1, n
	} else {
		segs = (n + gso - 1) / gso
	}
	fit = min(segs, max(free, 0))
	cut = min(fit*gso, n)
	return segs, fit, cut
}
