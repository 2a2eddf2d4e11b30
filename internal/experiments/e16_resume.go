package experiments

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/peace-mesh/peace/internal/chaos"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/transport"
)

// E16ShardRow is one row of the shard sweep: sustained ticket-resume
// throughput with the server ingest split across Shards read loops.
type E16ShardRow struct {
	Shards        int
	Resumes       int
	Elapsed       time.Duration
	ResumesPerSec float64
}

// E16ResumeReport is the session-resumption evaluation: the latency of a
// full M.1–M.3 attach vs a ticket resume (the pairing leaves the re-attach
// hot path), resume throughput vs shard count, resident memory of the
// router's session table, and the restart-soak economics.
type E16ResumeReport struct {
	// FullP50/ResumeP50 are median single-client re-attach latencies over
	// real UDP loopback; SpeedupX is their ratio.
	FullP50   time.Duration
	ResumeP50 time.Duration
	SpeedupX  float64

	ShardRows []E16ShardRow

	// SessionsMeasured sessions were bulk-adopted into a fresh router's
	// sharded table, each with its escrowed M.2 in the network log as a
	// resume leaves it; BytesPerSession is the heap delta per session and
	// MemPer100kSessions the extrapolated resident cost of 100k.
	SessionsMeasured   int
	BytesPerSession    int64
	MemPer100kSessions int64

	// Restart-soak summary (see chaos.RestartSoak): FullHandshakes must
	// stay at one per client across SoakRestarts restarts.
	SoakUsers          int
	SoakRestarts       int
	SoakFullHandshakes int64
	SoakResumes        int64

	// NumCPU qualifies the shard rows: on a single-core runner the sweep
	// cannot show parallel speedup, only that sharding does not regress.
	NumCPU int
}

// RunE16Resume measures the resumption subsystem end to end over real UDP
// loopback sockets.
func RunE16Resume(shardCounts []int, iters int) (*E16ResumeReport, error) {
	if iters < 1 {
		iters = 1
	}
	rep := &E16ResumeReport{NumCPU: runtime.NumCPU()}

	// --- Latency: full attach vs ticket resume, one client, serial. ---
	ln, err := transport.NewLocalNetwork(core.Config{}, "grp-e16", 1, 1)
	if err != nil {
		return nil, err
	}
	serverConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := transport.NewServer(serverConn, ln.Routers[0], transport.ServerConfig{BootEpoch: 1})
	defer srv.Close()

	clientConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer clientConn.Close()
	cl := transport.NewClient(clientConn, srv.Addr(), ln.Users[0], transport.ClientConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	nLat := 5 * iters
	fulls := make([]time.Duration, 0, nLat)
	for i := 0; i < nLat; i++ {
		start := time.Now()
		if _, err := cl.Attach(ctx); err != nil {
			return nil, fmt.Errorf("e16 full attach %d: %w", i, err)
		}
		fulls = append(fulls, time.Since(start))
	}
	resumes := make([]time.Duration, 0, 4*nLat)
	for i := 0; i < 4*nLat; i++ {
		start := time.Now()
		if _, err := cl.Resume(ctx); err != nil {
			return nil, fmt.Errorf("e16 resume %d: %w", i, err)
		}
		resumes = append(resumes, time.Since(start))
	}
	rep.FullP50 = median(fulls)
	rep.ResumeP50 = median(resumes)
	if rep.ResumeP50 > 0 {
		rep.SpeedupX = float64(rep.FullP50) / float64(rep.ResumeP50)
	}

	// --- Throughput: sustained resumes/s vs shard count. ---
	for _, shards := range shardCounts {
		row, err := e16ShardThroughput(shards, iters)
		if err != nil {
			return nil, err
		}
		rep.ShardRows = append(rep.ShardRows, *row)
	}

	// --- Memory: resident cost of the sharded session table. ---
	rep.SessionsMeasured = 100_000
	m2, ok := ln.Routers[0].LoggedAccessRequest(cl.Session().ID)
	if !ok {
		return nil, fmt.Errorf("e16: the resumed session has no escrow in the network log")
	}
	rep.BytesPerSession = e16SessionTableBytes(ln, rep.SessionsMeasured, m2.Marshal())
	rep.MemPer100kSessions = rep.BytesPerSession * 100_000

	// --- Restart soak: the fleet re-attaches via tickets only. ---
	soak, err := chaos.RestartSoak(chaos.RestartSoakConfig{TestbedConfig: chaos.TestbedConfig{Users: 8, Seed: 16}, Restarts: 2})
	if err != nil {
		return nil, err
	}
	if soak.Failed() {
		return nil, fmt.Errorf("e16 restart soak violated invariants: %v", soak.Violations)
	}
	rep.SoakUsers = soak.Users
	rep.SoakRestarts = soak.Restarts
	rep.SoakFullHandshakes = soak.FullHandshakes
	rep.SoakResumes = soak.Resumes
	return rep, nil
}

// e16ShardThroughput hammers a sharded server with concurrent ticket
// resumes for a fixed window and reports the sustained rate.
func e16ShardThroughput(shards, iters int) (*E16ShardRow, error) {
	const fleet = 8
	ln, err := transport.NewLocalNetwork(core.Config{}, "grp-e16s", 1, fleet)
	if err != nil {
		return nil, err
	}
	conns, err := transport.ListenShards("127.0.0.1:0", shards)
	if err != nil {
		return nil, err
	}
	srv := transport.NewShardedServer(conns, ln.Routers[0], transport.ServerConfig{BootEpoch: 1, Shards: shards})
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// The whole fleet registers into one client registry; the row's resume
	// count is the registry's resume_successes counter, not a sidecar
	// accumulator.
	reg := metrics.NewRegistry()
	clients := make([]*transport.Client, fleet)
	for i := 0; i < fleet; i++ {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		clients[i] = transport.NewClient(conn, srv.Addr(), ln.Users[i], transport.ClientConfig{Seed: int64(i) + 1, Metrics: reg})
		if _, err := clients[i].Attach(ctx); err != nil {
			return nil, fmt.Errorf("e16 shard=%d attach %d: %w", shards, i, err)
		}
	}

	window := time.Duration(iters) * 500 * time.Millisecond
	var firstErr atomic.Value
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for i := 0; i < fleet; i++ {
		wg.Add(1)
		go func(cl *transport.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if _, err := cl.Resume(ctx); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(clients[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, fmt.Errorf("e16 shard=%d resume: %w", shards, err)
	}
	row := &E16ShardRow{Shards: srv.Shards(), Resumes: int(reg.Snapshot().Value("resume_successes")), Elapsed: elapsed}
	if elapsed > 0 {
		row.ResumesPerSec = float64(row.Resumes) / elapsed.Seconds()
	}
	return row, nil
}

// e16SessionTableBytes bulk-adopts n resumed sessions into a fresh
// router's sharded table, each logging its own copy of escrow, and
// returns the heap bytes each one costs.
func e16SessionTableBytes(ln *transport.LocalNetwork, n int, escrow []byte) int64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	secret := make([]byte, core.ResumeSecretSize)
	cn := make([]byte, 16)
	sn := make([]byte, 16)
	now := time.Unix(1751600000, 0)
	sessions := make([]*core.Session, 0, n)
	var prev core.SessionID
	for i := 0; i < n; i++ {
		cn[0], cn[1], cn[2] = byte(i), byte(i>>8), byte(i>>16)
		sess := core.ResumeSession(prev, secret, cn, sn, "user", now)
		ln.Routers[0].AdoptResumedSession(sess, append(escrow[:0:0], escrow...))
		sessions = append(sessions, sess)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSession := int64(after.HeapAlloc-before.HeapAlloc) / int64(n)
	runtime.KeepAlive(sessions)
	return perSession
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
