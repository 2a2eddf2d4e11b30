package chaos

import (
	"context"
	"fmt"
	mrand "math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// AttackLatencyConfig scripts one point of the attach-latency-vs-attack-
// intensity sweep (experiment E19): a fixed number of sequential
// legitimate attaches measured while Intensity spoofed sources flood the
// ingress at full rate.
type AttackLatencyConfig struct {
	// TestbedConfig sets the seed and the per-attach SettleTimeout
	// (default 30s); the samples cycle through a fixed fleet of 4 users
	// against the same defense as AttackConfig.
	TestbedConfig
	// Intensity is how many spoofed sources flood the attach ingress for
	// the whole measurement (0 = calm baseline).
	Intensity int
	// Samples is how many legitimate attaches are timed. Default 12.
	Samples int
}

// attackWarmup is how long the flood runs before the first timed attach,
// so suspicion has tripped and the measured clients pay the real puzzle
// price (skipped when Intensity is 0).
const attackWarmup = 500 * time.Millisecond

func (c AttackLatencyConfig) withDefaults() AttackLatencyConfig {
	c.Users = 4
	if c.Samples < 1 {
		c.Samples = 12
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 30 * time.Second
	}
	c.TestbedConfig = c.withAttackDefaults()
	return c
}

// AttackLatencyReport is one row of the E19 sweep.
type AttackLatencyReport struct {
	Intensity int
	Samples   int
	Attached  int
	P50       time.Duration
	P99       time.Duration
	// PeakDifficulty is the highest difficulty the controller demanded
	// while the samples ran.
	PeakDifficulty uint8
	// FloodDatagrams is how many datagrams the flood delivered.
	FloodDatagrams int64
	// PuzzlesVerified counts the solutions the server's gate accepted —
	// under attack the legit attaches land here.
	PuzzlesVerified int64
}

// AttackLatency measures legitimate-client attach latency at one attack
// intensity: Intensity spoofed sources spray garbage and skeleton M.2s
// at the ingress while Samples sequential attaches are timed over real
// UDP loopback.
func AttackLatency(cfg AttackLatencyConfig) (*AttackLatencyReport, error) {
	cfg = cfg.withDefaults()
	rep := &AttackLatencyReport{Intensity: cfg.Intensity, Samples: cfg.Samples}

	tb, err := NewTestbed(cfg.TestbedConfig)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	router := tb.Net.Routers[0]
	router.SetDoSPolicy(attackPolicy)
	addr := tb.Servers[0].Addr()

	ctx, cancel := context.WithCancel(context.Background())
	var flood sync.WaitGroup
	defer func() {
		cancel()
		flood.Wait()
	}()
	var floodDatagrams atomic.Int64
	for i := 0; i < cfg.Intensity; i++ {
		conn, err := listenSpoofed(i/200, i%200)
		if err != nil {
			return nil, err
		}
		flood.Add(1)
		go func(i int, conn net.PacketConn) {
			defer flood.Done()
			defer conn.Close()
			prng := mrand.New(mrand.NewSource(cfg.Seed*3_000_017 + int64(i)))
			garbage := garbageAccessFrame()
			// Paced at ~2000 datagrams/s per source, so intensity is a
			// controlled multiple of the legitimate handshake rate (each
			// source still exceeds its own rate-limit bucket ~40×). An
			// unpaced writer would saturate the kernel receive buffer and
			// measure socket-lottery starvation instead of the defense.
			for n := 0; ctx.Err() == nil; n++ {
				frame := garbage
				if n%2 == 1 {
					frame = skeletonAccessFrame(prng)
				}
				if _, err := conn.WriteTo(frame, addr); err == nil {
					floodDatagrams.Add(1)
				}
				if n%2 == 1 {
					time.Sleep(time.Millisecond)
				}
			}
		}(i, conn)
	}
	if cfg.Intensity > 0 {
		time.Sleep(attackWarmup)
	}

	latencies := make([]time.Duration, 0, cfg.Samples)
	var lastErr error
	for i := 0; i < cfg.Samples; i++ {
		cl, err := tb.Dial(i % cfg.Users)
		if err != nil {
			return nil, err
		}
		// The sample is time-to-session, attempts included: under a heavy
		// flood single attach attempts can exhaust their retransmit budget
		// to kernel-level receive drops, and a real client simply tries
		// again — the latency the row reports is what that client
		// experiences.
		sctx, scancel := context.WithTimeout(ctx, cfg.SettleTimeout)
		start := time.Now()
		for {
			if _, err = cl.Attach(sctx); err == nil || sctx.Err() != nil {
				break
			}
		}
		scancel()
		if err == nil {
			latencies = append(latencies, time.Since(start))
			rep.Attached++
		} else {
			lastErr = err
		}
		if d := router.RequiredDifficulty(); d > rep.PeakDifficulty {
			rep.PeakDifficulty = d
		}
	}
	if rep.Attached == 0 {
		return nil, fmt.Errorf("chaos: no attach succeeded at intensity %d: %v", cfg.Intensity, lastErr)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50 = latencies[len(latencies)/2]
	rep.P99 = latencies[(len(latencies)*99)/100]
	rep.FloodDatagrams = floodDatagrams.Load()
	rep.PuzzlesVerified = tb.Servers[0].Stats().DoSPuzzlesVerified()
	return rep, nil
}
