package chaos

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/transport"
)

// LoopbackReport is the outcome of one loopback run; a user whose
// handshake failed is a violation.
type LoopbackReport struct {
	Verdict

	Users       int           `json:"users"`
	Loss        float64       `json:"loss"`
	Established int           `json:"established"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	// HandshakesPerSec is established handshakes over wall-clock time.
	HandshakesPerSec float64 `json:"handshakes_per_sec"`
	// P50/P99 are attach-latency percentiles over successful handshakes.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// ClientRetransmits / ClientTimeouts aggregate over all clients.
	ClientRetransmits int64 `json:"client_retransmits"`
	ClientTimeouts    int64 `json:"client_timeouts"`
	// Clients is the fleet-wide client instrument snapshot: every client
	// registers into one shared registry, so these counters (and the
	// attach_latency histogram) aggregate across the whole fleet.
	Clients metrics.Snapshot `json:"clients"`
	// DatagramsDropped counts datagrams the lossy links discarded.
	DatagramsDropped int64 `json:"datagrams_dropped"`
	// Server holds the router-side transport counters.
	Server metrics.Snapshot `json:"server"`
	// Router holds the protocol-level router counters.
	Router core.RouterStats `json:"router"`
}

// Loopback provisions a single-router network, serves it on a real UDP
// loopback socket, and drives cfg.Users (default 16) concurrent clients
// through the full AKA, each handshake bounded by SettleTimeout (default
// 30s). Faults{Drop: p} on the client links — p in each direction — is
// the lossy radio link. Every session must be established for the run to
// be clean, but individual failures are reported, not fatal.
func Loopback(cfg TestbedConfig) (*LoopbackReport, error) {
	cfg.Routers = 1
	if cfg.Users < 1 {
		cfg.Users = 16
	}
	if cfg.SettleTimeout <= 0 {
		cfg.SettleTimeout = 30 * time.Second
	}
	// One registry for the whole fleet: registration is idempotent, so N
	// clients share the same counter handles and the report's client
	// numbers are a single snapshot instead of a hand-rolled sum.
	if cfg.Client.Metrics == nil {
		cfg.Client.Metrics = metrics.NewRegistry()
	}
	tb, err := NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	rep := &LoopbackReport{Users: cfg.Users, Loss: cfg.Faults.Drop}

	latencies := make([]time.Duration, cfg.Users)
	start := time.Now()
	tb.attachAll(&rep.Verdict, "", func(i int, _ *transport.Client, d time.Duration) { latencies[i] = d })
	rep.Elapsed = time.Since(start)

	rep.Server = tb.Servers[0].Stats().Snapshot()
	rep.Router = tb.Net.Routers[0].Stats()
	rep.DatagramsDropped = tb.Injected().Dropped
	rep.Clients = cfg.Client.Metrics.Snapshot()
	rep.ClientRetransmits = rep.Clients.Value("retransmits")
	rep.ClientTimeouts = rep.Clients.Value("timeouts")
	ok := latencies[:0]
	for _, d := range latencies {
		if d > 0 {
			ok = append(ok, d)
		}
	}
	rep.Established = len(ok)
	if rep.Elapsed > 0 {
		rep.HandshakesPerSec = float64(rep.Established) / rep.Elapsed.Seconds()
	}
	if len(ok) > 0 {
		sort.Slice(ok, func(a, b int) bool { return ok[a] < ok[b] })
		rep.P50 = ok[len(ok)*50/100]
		rep.P99 = ok[min(len(ok)*99/100, len(ok)-1)]
	}
	return rep, nil
}

// attachAll dials every user afresh and runs their full handshakes
// concurrently, each bounded by SettleTimeout. A failure is recorded in
// v (prefixed by what); a success is reported to done with its latency.
func (tb *Testbed) attachAll(v *Verdict, what string, done func(user int, cl *transport.Client, latency time.Duration)) {
	var wg sync.WaitGroup
	for i := range tb.Clients {
		cl, err := tb.Dial(i)
		if err != nil {
			v.violate("%suser %d: %v", what, i, err)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(tb.ctx, tb.cfg.SettleTimeout)
			defer cancel()
			t0 := time.Now()
			if _, err := cl.Attach(ctx); err != nil {
				v.violate("%suser %d: %v", what, i, err)
				return
			}
			done(i, cl, time.Since(t0))
		}(i)
	}
	wg.Wait()
}

// DrillConfig describes a multi-epoch revocation-distribution drill: the
// same user population re-attaches across Rounds epochs while the
// operator revokes RevokePerRound spare credentials between rounds, so
// the URL grows and clients must converge onto each new epoch in-band.
type DrillConfig struct {
	// TestbedConfig sizes the persistent client population (default 8)
	// and bounds each handshake by SettleTimeout (default 30s).
	TestbedConfig
	// Rounds is how many attach waves run. Default 4.
	Rounds int
	// RevokePerRound is how many spare group slots are revoked between
	// consecutive rounds. (Rounds-1)*RevokePerRound must fit the spare
	// headroom NewLocalNetwork provisions. Default 2.
	RevokePerRound int
}

func (c DrillConfig) withDefaults() DrillConfig {
	c.Routers = 1
	if c.Users < 1 {
		c.Users = 8
	}
	if c.Rounds < 1 {
		c.Rounds = 4
	}
	if c.RevokePerRound < 1 {
		c.RevokePerRound = 2
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 30 * time.Second
	}
	return c
}

// DrillReport is the outcome of one revocation-distribution drill. A
// healthy run shows every client bootstrapping with at most one full
// snapshot per list (SnapshotsPerClientMax ≤ 2) and converging onto all
// later epochs via deltas alone; a failed attach is a violation.
type DrillReport struct {
	Verdict

	Users          int `json:"users"`
	Rounds         int `json:"rounds"`
	RevokePerRound int `json:"revoke_per_round"`
	// Established counts successful attaches over all rounds
	// (Users*Rounds on full success).
	Established int `json:"established"`
	// DeltaFetches / SnapshotFetches aggregate client-side applies.
	DeltaFetches    int64 `json:"delta_fetches"`
	SnapshotFetches int64 `json:"snapshot_fetches"`
	// SnapshotsPerClientMax is the worst per-client full-snapshot count;
	// >2 means some client fell off the delta path.
	SnapshotsPerClientMax int64 `json:"snapshots_per_client_max"`
	// FinalURLEpoch is the router's URL epoch after the last revocation.
	FinalURLEpoch uint64 `json:"final_url_epoch"`
	// URLSize is the final number of revoked tokens on the list.
	URLSize int `json:"url_size"`
	// Server holds the router-side transport counters.
	Server metrics.Snapshot `json:"server"`
}

// RevocationDrill provisions a network, then alternates attach waves
// with spare-credential revocations. Users keep their installed
// revocation state across rounds, so every round after the first should
// be served by signed deltas, never by re-shipping the full URL.
func RevocationDrill(cfg DrillConfig) (*DrillReport, error) {
	cfg = cfg.withDefaults()
	tb, err := NewTestbed(cfg.TestbedConfig)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	rep := &DrillReport{Users: cfg.Users, Rounds: cfg.Rounds, RevokePerRound: cfg.RevokePerRound}

	var mu sync.Mutex
	snapPerUser := make([]int64, cfg.Users)
	for round := 0; round < cfg.Rounds; round++ {
		if round > 0 {
			if err := tb.BumpRevocation(cfg.RevokePerRound); err != nil {
				return nil, err
			}
		}
		tb.attachAll(&rep.Verdict, fmt.Sprintf("round %d ", round), func(i int, cl *transport.Client, _ time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			rep.Established++
			snapPerUser[i] += cl.Stats().RevSnapshotFetches()
			rep.DeltaFetches += cl.Stats().RevDeltaFetches()
			rep.SnapshotFetches += cl.Stats().RevSnapshotFetches()
		})
	}

	for _, n := range snapPerUser {
		rep.SnapshotsPerClientMax = max(rep.SnapshotsPerClientMax, n)
	}
	router := tb.Net.Routers[0]
	rep.FinalURLEpoch = router.RevocationEpoch(revocation.ListURL)
	if snap, ok := router.RevocationSnapshot(revocation.ListURL); ok {
		rep.URLSize = len(snap.Entries)
	}
	rep.Server = tb.Servers[0].Stats().Snapshot()
	return rep, nil
}
