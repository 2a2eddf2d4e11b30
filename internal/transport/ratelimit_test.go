package transport

import (
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
)

// fakeClock is a manually advanced clock for deterministic limiter tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time            { return c.t }
func (c *fakeClock) advance(d time.Duration)   { c.t = c.t.Add(d) }
func udpAddr(ip string, port int) *net.UDPAddr { return &net.UDPAddr{IP: net.ParseIP(ip), Port: port} }

// TestRateLimiterBucket drives one limiter with a fake clock through
// burst exhaustion, continuous refill, the burst cap, and per-source
// isolation keyed by IP rather than by socket.
func TestRateLimiterBucket(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	rl := newRateLimiter(1, 3, clk.now)
	a := udpAddr("203.0.113.7", 1000)

	for i := 0; i < 3; i++ {
		if !rl.allow(a) {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if rl.allow(a) {
		t.Fatal("request beyond burst allowed")
	}

	// Ports do not open fresh budgets: the bucket key is the IP.
	if rl.allow(udpAddr("203.0.113.7", 2000)) {
		t.Fatal("same IP on a new port got a fresh bucket")
	}
	// A different source is unaffected by the exhausted one.
	if !rl.allow(udpAddr("203.0.113.8", 1000)) {
		t.Fatal("independent source denied")
	}

	// 1 token/sec: after 2s exactly two more requests fit.
	clk.advance(2 * time.Second)
	if !rl.allow(a) || !rl.allow(a) {
		t.Fatal("refilled tokens denied")
	}
	if rl.allow(a) {
		t.Fatal("request beyond refill allowed")
	}

	// Idle time accrues at most burst tokens.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		if !rl.allow(a) {
			t.Fatalf("post-idle request %d denied", i)
		}
	}
	if rl.allow(a) {
		t.Fatal("idle accrual exceeded burst")
	}
}

// TestRateLimiterEvictsOldestAtCapacity checks the capacity policy: a new
// source arriving at a full table evicts the least-recently-active bucket,
// not the whole table, so sources with recent activity keep their debt.
func TestRateLimiterEvictsOldestAtCapacity(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	rl := newRateLimiter(0.001, 1, clk.now)
	rl.maxSources = 8

	// Fill the table with sources at strictly increasing activity times so
	// the LRU order is unambiguous. Source 1 burns its whole budget.
	addrs := make([]*net.UDPAddr, 8)
	for i := range addrs {
		addrs[i] = &net.UDPAddr{IP: net.IPv4(10, 0, byte(i), 1), Port: 9}
		rl.allow(addrs[i])
		if i == 1 {
			if rl.allow(addrs[i]) {
				t.Fatal("source 1 not exhausted as expected")
			}
		}
		clk.advance(time.Second)
	}

	// A ninth source overflows the table: the oldest bucket (source 0) is
	// evicted, everything else survives.
	fresh := udpAddr("198.51.100.50", 9)
	if !rl.allow(fresh) {
		t.Fatal("new source denied at capacity (must fail open)")
	}
	if len(rl.buckets) > 8 {
		t.Fatalf("bucket table grew to %d entries past the bound", len(rl.buckets))
	}
	if _, ok := rl.buckets[sourceKey(addrs[0])]; ok {
		t.Fatal("oldest bucket survived eviction")
	}
	if _, ok := rl.buckets[sourceKey(addrs[7])]; !ok {
		t.Fatal("recently active bucket was evicted")
	}
	// The exhausted source kept its bucket and its debt: eviction must not
	// hand every active flooder a fresh budget the way a table reset did.
	if rl.allow(addrs[1]) {
		t.Fatal("eviction zeroed an active source's debt")
	}
}

// TestRateLimiterChurnBoundedGrowth cycles far more distinct spoofed
// source IPs through the limiter than the table can hold: the table must
// stay within its bound throughout while new sources keep being admitted
// at burst (the fail-open regression — the limiter sheds load, it must
// never turn into a denial gate for never-seen sources).
func TestRateLimiterChurnBoundedGrowth(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	rl := newRateLimiter(0.001, 2, clk.now)
	rl.maxSources = 64

	for i := 0; i < 1000; i++ {
		addr := &net.UDPAddr{IP: net.IPv4(10, byte(i>>8), byte(i), 1), Port: 9}
		if !rl.allow(addr) {
			t.Fatalf("never-seen source %d denied at capacity", i)
		}
		if len(rl.buckets) > 64 {
			t.Fatalf("bucket table grew to %d entries past the bound after %d sources", len(rl.buckets), i+1)
		}
		clk.advance(time.Millisecond)
	}
	// Churn must actually have cycled the table, not just stopped filling.
	if len(rl.buckets) == 0 || len(rl.buckets) > 64 {
		t.Fatalf("unexpected final table size %d", len(rl.buckets))
	}
}

// TestServerRateLimitBurst is the deterministic ingress test: a server
// configured with burst 1 and a negligible refill rate receives ten
// resume datagrams from one socket. Exactly one reaches the decoder; the
// other nine die at the limiter and land in ratelimit_dropped.
func TestServerRateLimitBurst(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-rl", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mustListen(t), ln.Routers[0], ServerConfig{
		BootEpoch:       1,
		RateLimitPerSec: 0.0001,
		RateLimitBurst:  1,
	})
	defer srv.Close()

	conn := mustListen(t)
	defer conn.Close()
	frame, err := EncodeFrame(KindResumeRequest, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := conn.WriteTo(frame, srv.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && srv.Stats().RatelimitDropped() < 9 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Stats().RatelimitDropped(); got != 9 {
		t.Fatalf("ratelimit_dropped = %d, want 9", got)
	}
	// The one admitted datagram was garbage and must have hit the decoder.
	if got := srv.Stats().DecodeErrors(); got != 1 {
		t.Fatalf("decode errors = %d, want 1 (exactly one datagram admitted)", got)
	}
}
