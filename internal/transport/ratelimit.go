package transport

import (
	"net"
	"sort"
	"sync"
	"time"
)

// rateLimiter is a per-source token bucket applied to the attach/resume
// ingress before any decode or crypto work: the two handshake kinds are
// the only ones that can cost a pairing, so they are the ones a flooding
// source must not be able to buy with bare datagrams. It is the first
// step of the handshake gate (DESIGN.md §4, Architecture).
//
// Buckets are keyed by source IP (not port, so one host cannot widen its
// budget by rotating ephemeral ports) and refill continuously at rate
// tokens/sec up to burst, on the router's clock (the caller's now).
type rateLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket
	// maxSources bounds the bucket table so the limiter itself cannot be
	// used to exhaust memory with spoofed sources. On overflow the
	// least-recently-active eighth of the buckets is evicted — never the
	// whole table, so a spoofed-source churn attack cannot zero every
	// active source's debt at once. An evicted source that returns is
	// re-admitted at full burst (a deliberate fail-open: the limiter sheds
	// load, it is not an auth boundary).
	maxSources int
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// defaultMaxSources bounds the per-source table at roughly 4 MB.
const defaultMaxSources = 1 << 16

// newRateLimiter builds a limiter allowing rate requests/sec with the
// given burst per source; burst < 1 is raised to 1 so a conforming
// source is never starved outright.
func newRateLimiter(rate float64, burst int) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		rate:       rate,
		burst:      float64(burst),
		buckets:    make(map[string]*tokenBucket),
		maxSources: defaultMaxSources,
	}
}

// sourceKey extracts the bucket key from a peer address: the IP alone
// for UDP peers, the full string for exotic PacketConn impls (tests,
// chaos wrappers) whose addresses may not parse as host:port.
func sourceKey(addr net.Addr) string {
	if ua, ok := addr.(*net.UDPAddr); ok {
		return string(ua.IP)
	}
	if host, _, err := net.SplitHostPort(addr.String()); err == nil {
		return host
	}
	return addr.String()
}

// allow spends one token from addr's bucket at time t, reporting false
// when the source is over budget and the datagram should be dropped.
func (rl *rateLimiter) allow(t time.Time, addr net.Addr) bool {
	key := sourceKey(addr)
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b := rl.buckets[key]
	if b == nil {
		if len(rl.buckets) >= rl.maxSources {
			rl.evictOldestLocked()
		}
		b = &tokenBucket{tokens: rl.burst, last: t}
		rl.buckets[key] = b
	} else {
		dt := t.Sub(b.last).Seconds()
		if dt > 0 {
			b.tokens += dt * rl.rate
			if b.tokens > rl.burst {
				b.tokens = rl.burst
			}
			b.last = t
		}
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictOldestLocked drops the least-recently-active eighth of the bucket
// table (at least one entry) to make room for a new source. Sorting the
// full table is acceptable here: eviction fires only when maxSources
// distinct IPs are live inside one refill horizon, i.e. already under a
// spoofed-source flood, and amortizes over the next maxSources/8 inserts.
func (rl *rateLimiter) evictOldestLocked() {
	type aged struct {
		key  string
		last time.Time
	}
	entries := make([]aged, 0, len(rl.buckets))
	for k, b := range rl.buckets {
		entries = append(entries, aged{k, b.last})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].last.Before(entries[j].last) })
	n := len(entries) / 8
	if n < 1 {
		n = 1
	}
	for _, e := range entries[:n] {
		delete(rl.buckets, e.key)
	}
}
