// Command meshd is the PEACE router daemon, and the client that attaches
// to it, over real UDP sockets.
//
// meshd serve provisions a network, writes the users' credentials to a
// provision file and answers M.1–M.3 handshakes on a listen socket,
// printing router and transport counters as periodic JSON; on SIGTERM or
// SIGINT it drains gracefully (new attaches refused with a transient
// reject, in-flight replies delivered) before exiting. meshd client
// imports that provision file and drives N concurrent users through the
// full AKA against a remote meshd.
//
// The acceptance drills that used to be further modes (loopback, drill,
// chaos, metro, attack) live in cmd/meshsoak.
//
// Usage:
//
//	meshd serve -listen 127.0.0.1:7464 -provision /tmp/peace.prov -users 100
//	meshd client -addr 127.0.0.1:7464 -provision /tmp/peace.prov -users 100
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/transport"
)

// metricsHub backs the /metrics endpoint on the debug HTTP server: serve
// adds the transport and router registries once they exist, so the
// handler can be installed before the server boots.
var metricsHub = metrics.NewHub()

const usage = `usage: meshd serve|client [flags]   (meshd serve -h, meshd client -h)`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet("meshd "+cmd, flag.ExitOnError) // bad flags exit 2 with the command's usage
	users := fs.Int("users", 100, "users to provision (serve) or drive (client)")
	provision := fs.String("provision", "peace.prov", "serve: credentials file to write; client: to read")

	var run func() error
	switch cmd {
	case "serve":
		listen := fs.String("listen", "127.0.0.1:7464", "UDP listen address")
		statsEvery := fs.Duration("stats", 5*time.Second, "stats emission period")
		shards := fs.Int("shards", 1, "ingest read loops (SO_REUSEPORT multi-sockets where available)")
		duration := fs.Duration("duration", 0, "exit after this long (0 = until signal)")
		pprofAddr := fs.String("pprof", "", "expose net/http/pprof and Prometheus /metrics on this address (e.g. 127.0.0.1:6060); empty disables")
		ratelimit := fs.Float64("ratelimit", 0, "per-source attach/resume datagrams per second admitted (0 disables)")
		rateburst := fs.Int("rateburst", 0, "per-source burst above -ratelimit (0 = 2x the rate)")
		run = func() error {
			if *pprofAddr != "" {
				serveDebug(*pprofAddr)
			}
			return runServe(*listen, *provision, *users, *shards, *statsEvery, *duration, *ratelimit, *rateburst)
		}
	case "client":
		addr := fs.String("addr", "127.0.0.1:7464", "meshd address to attach to")
		group := fs.String("group", "grp-0", "group to authenticate under")
		timeout := fs.Duration("timeout", 30*time.Second, "per-handshake timeout")
		run = func() error {
			return runClient(*addr, *provision, *users, core.GroupID(*group), *timeout)
		}
	default:
		fmt.Fprintf(os.Stderr, "meshd: unknown command %q\n%s\n", cmd, usage)
		os.Exit(2)
	}
	_ = fs.Parse(os.Args[2:]) // ExitOnError
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// serveDebug starts the debug HTTP listener: the default mux carries the
// pprof handlers via the blank import, /metrics serves every registry
// serve adds to the hub.
func serveDebug(addr string) {
	http.Handle("/metrics", metricsHub)
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("meshd: debug http listener: %v", err)
		}
	}()
	log.Printf("meshd: pprof on http://%s/debug/pprof/, metrics on http://%s/metrics", addr, addr)
}

// statsLine is one periodic JSON record emitted by serve. The
// data-plane rates are derived between successive emissions: DataPPS is
// delivered data frames per second over the last period, DataBytes the
// cumulative plaintext bytes delivered, and BatchFillAvg the average
// datagrams moved per ingest syscall (1.0 means batching buys nothing,
// IOBatch means every recvmmsg comes back full).
type statsLine struct {
	At           string           `json:"at"`
	DataPPS      float64          `json:"data_pps"`
	DataBytes    int64            `json:"data_bytes"`
	BatchFillAvg float64          `json:"batch_fill_avg"`
	Transport    metrics.Snapshot `json:"transport"`
	Router       metrics.Snapshot `json:"router"`
}

func runServe(listen, provisionPath string, users, shards int, statsEvery, duration time.Duration, ratelimit float64, rateburst int) error {
	ln, err := transport.NewLocalNetwork(core.Config{}, "grp-0", 1, users)
	if err != nil {
		return fmt.Errorf("provision: %w", err)
	}
	blob, err := ln.ExportCredentials()
	if err != nil {
		return err
	}
	if err := os.WriteFile(provisionPath, blob, 0o600); err != nil {
		return err
	}
	log.Printf("meshd: %d users provisioned, credentials in %s", users, provisionPath)

	conns, err := transport.ListenShards(listen, shards)
	if err != nil {
		return err
	}
	srv := transport.NewShardedServer(conns, ln.Routers[0], transport.ServerConfig{
		Shards:          shards,
		RateLimitPerSec: ratelimit,
		RateLimitBurst:  rateburst,
		Logf:            log.Printf,
	})
	defer srv.Close()
	log.Printf("meshd: serving on %s (boot epoch %d, %d shard loops on %d sockets)",
		srv.Addr(), srv.BootEpoch(), srv.Shards(), len(conns))

	// One instrument: the JSON reporter below, the /metrics endpoint and
	// the peacebench experiments all read these two registries. The
	// OnScrape hook refreshes the stored gauges (reply-cache size) that
	// mirror live structures.
	metricsHub.Add(srv.Stats().Registry(), ln.Routers[0].Metrics())
	metricsHub.OnScrape(func() { srv.Stats() })

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, duration)
		defer cancel()
	}

	enc := json.NewEncoder(os.Stdout)
	var lastDelivered int64
	lastAt := time.Now()
	emit := func() {
		now := time.Now()
		st := srv.Stats()
		line := statsLine{
			At:        now.UTC().Format(time.RFC3339),
			DataBytes: st.DataBytes(),
			Transport: st.Snapshot(),
			Router:    ln.Routers[0].Metrics().Snapshot(),
		}
		delivered := st.DataDelivered()
		if dt := now.Sub(lastAt).Seconds(); dt > 0 {
			line.DataPPS = float64(delivered-lastDelivered) / dt
		}
		if rb := st.ReadBatches(); rb > 0 {
			line.BatchFillAvg = float64(st.ReadDatagrams()) / float64(rb)
		}
		lastDelivered, lastAt = delivered, now
		_ = enc.Encode(line)
	}
	tick := time.NewTicker(statsEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			emit()
		case <-ctx.Done():
			// Graceful drain: refuse new attaches with a transient reject
			// (clients back off and retry elsewhere) while every in-flight
			// reply is still delivered, then emit the final counters.
			log.Printf("meshd: draining")
			dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := srv.Drain(dctx); err != nil {
				log.Printf("meshd: drain: %v", err)
			}
			dcancel()
			emit()
			return nil
		}
	}
}

// clientReport is the JSON summary client prints on exit.
type clientReport struct {
	Users             int      `json:"users"`
	Established       int64    `json:"established"`
	Failed            int64    `json:"failed"`
	ElapsedNs         int64    `json:"elapsed_ns"`
	HandshakesPerSec  float64  `json:"handshakes_per_sec"`
	ClientRetransmits int64    `json:"client_retransmits"`
	ClientTimeouts    int64    `json:"client_timeouts"`
	Errors            []string `json:"errors,omitempty"`
}

func runClient(addr, provisionPath string, users int, group core.GroupID, timeout time.Duration) error {
	blob, err := os.ReadFile(provisionPath)
	if err != nil {
		return err
	}
	provisioned, err := transport.ImportUsers(core.Config{}, blob)
	if err != nil {
		return err
	}
	if len(provisioned) < users {
		return fmt.Errorf("provision file has %d users, -users %d requested", len(provisioned), users)
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}

	rep := clientReport{Users: users}
	var mu sync.Mutex
	var established, failed atomic.Int64
	var retransmits, timeouts atomic.Int64
	cfg := transport.ClientConfig{Group: group}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.ListenPacket("udp", ":0")
			if err != nil {
				failed.Add(1)
				return
			}
			defer conn.Close()
			cl := transport.NewClient(conn, raddr, provisioned[i], cfg)
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			_, err = cl.Attach(ctx)
			retransmits.Add(cl.Stats().Retransmits())
			timeouts.Add(cl.Stats().Timeouts())
			if err != nil {
				failed.Add(1)
				mu.Lock()
				rep.Errors = append(rep.Errors, fmt.Sprintf("user %d: %v", i, err))
				mu.Unlock()
				return
			}
			established.Add(1)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep.Established = established.Load()
	rep.Failed = failed.Load()
	rep.ElapsedNs = elapsed.Nanoseconds()
	rep.ClientRetransmits = retransmits.Load()
	rep.ClientTimeouts = timeouts.Load()
	if elapsed > 0 {
		rep.HandshakesPerSec = float64(rep.Established) / elapsed.Seconds()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d/%d handshakes failed", rep.Failed, users)
	}
	return nil
}
