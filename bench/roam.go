package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
)

// roamClients is how many users roam at once, each in its own closed
// loop. One client alone ping-pongs with the router through two thread
// wake-ups per resume, and on a two-core host that loop is bistable: the
// same code runs at a 50 µs or a 100 µs median from one run to the next,
// depending on whether the scheduler's threads get to park in between.
// Two clients keep the router's read loops supplied, which takes the run
// to run spread of the median from about 60 % to under 10 %.
const roamClients = 2

// roamer is one roaming user: its client, and the router it is at.
type roamer struct {
	cl   *transport.Client
	conn net.PacketConn
	at   int
	sess *core.Session
}

type roamEnv struct {
	d       *deployment
	m       *metro
	roamers []*roamer
}

func (e *roamEnv) close() {
	for _, ro := range e.roamers {
		ro.conn.Close()
	}
	e.m.close()
}

// newRoamEnv starts a fresh two-router metro and cold-attaches every
// roamer, roamer i at router i mod 2: the one pairing it will ever cost.
func newRoamEnv(seed int64) (*roamEnv, error) {
	d, err := newDeployment(2, roamClients)
	if err != nil {
		return nil, err
	}
	m, err := d.startMetro()
	if err != nil {
		return nil, err
	}
	e := &roamEnv{d: d, m: m}
	for i := range d.users {
		ro := &roamer{at: i % len(m.servers)}
		if ro.cl, ro.conn, err = d.client(i, m.servers[ro.at], seed+int64(i)); err != nil {
			e.close()
			return nil, err
		}
		e.roamers = append(e.roamers, ro)
		if _, err = attach(ro.cl); err != nil {
			e.close()
			return nil, fmt.Errorf("cold attach: %w", err)
		}
	}
	return e, nil
}

// resume re-attaches the roamer by ticket, after a Retarget to the other
// router when handoff is set, and returns how long Client.Resume took.
func (ro *roamer) resume(env *roamEnv, handoff bool) (time.Duration, error) {
	if handoff {
		ro.at ^= 1
		ro.cl.Retarget(env.m.servers[ro.at].Addr())
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	start := time.Now()
	sess, err := ro.cl.Resume(ctx)
	if err != nil {
		return 0, err
	}
	ro.sess = sess
	return time.Since(start), nil
}

// runRoam is roamClients users re-attaching by ticket in a fresh
// two-router metro per epoch, each in a closed loop: at the router it is
// attached to (roam_resume) or, with handoff, at the other router after a
// Retarget each time (roam_handoff). Every epoch costs one pairing per
// user; its set-up is one setup_s sample. The routers' heaps grow through
// a run, so it is not stationary: each metric is the median over the
// epochs of that epoch's own median latency, 95th percentile and resumes
// per second.
func runRoam(r *run, handoff bool) (*result, error) {
	res := newResult()
	var p50s, p95s, rates, setups []float64
	var samples int
	var last *roamEnv
	for epoch := 0; epoch < r.roamEpochs; epoch++ {
		if last != nil {
			last.close()
		}
		start := time.Now()
		env, err := newRoamEnv(r.seed + int64(epoch)*roamClients)
		if err != nil {
			return nil, err
		}
		last = env
		setups = append(setups, time.Since(start).Seconds())

		var lat latencies
		var mu sync.Mutex
		var wg sync.WaitGroup
		start = time.Now()
		for _, ro := range env.roamers {
			wg.Add(1)
			go func(ro *roamer, rng *rand.Rand) {
				defer wg.Done()
				var mine latencies
				var failed int64
				var violations []string
				probe := make([]byte, 48)
				for op := 0; op < r.roamOps/roamClients; op++ {
					d, err := ro.resume(env, handoff)
					if err != nil {
						failed++
						continue
					}
					mine = append(mine, d)
					rng.Read(probe)
					if err := probeSession(ro.sess, env.d.routers[ro.at], probe); err != nil {
						violations = append(violations, fmt.Sprintf("epoch %d op %d: %v", epoch, op, err))
					}
				}
				mu.Lock()
				lat = append(lat, mine...)
				res.Failed += failed
				res.Violations = append(res.Violations, violations...)
				mu.Unlock()
			}(ro, rand.New(rand.NewSource(r.rng.Int63())))
		}
		wg.Wait()
		elapsed := time.Since(start)
		if us := lat.micros(); len(us) > 0 {
			p50s = append(p50s, quantile(us, 0.5))
			p95s = append(p95s, quantile(us, 0.95))
			rates = append(rates, float64(len(us))/elapsed.Seconds())
			samples += len(us)
		}
		ops := int64(r.roamOps / roamClients * roamClients)
		res.Attempted += ops
		// Only the last epoch's sessions are still held when the run ends.
		res.ops = ops
		checkRoamEpoch(res, env, epoch, ops, handoff)
		var clients []*transport.Client
		for _, ro := range env.roamers {
			clients = append(clients, ro.cl)
		}
		collect(res, env.m.servers, clients)
	}
	res.EndToEnd.set("latency_p50_us", median(p50s), "us", samples)
	res.EndToEnd.set("latency_p95_us", median(p95s), "us", samples)
	res.EndToEnd.set("throughput_per_s", median(rates), "1/s", len(rates))
	res.EndToEnd.set("setup_s", median(setups), "s", len(setups))
	last.close()
	res.keep = last
	return res, nil
}

// probeSession checks that the router holds the resumed session under the
// same keys: a frame the client seals must open there to the same bytes.
func probeSession(client *core.Session, router *core.MeshRouter, payload []byte) error {
	server, ok := router.SessionByID(client.ID)
	if !ok {
		return fmt.Errorf("router %s does not hold resumed session %s", router.ID(), client.ID)
	}
	sealed, err := client.AppendSealedData(nil, payload)
	if err != nil {
		return err
	}
	var f core.DataFrame
	if err := core.UnmarshalDataFrameInto(sealed, &f); err != nil {
		return err
	}
	pt, err := server.OpenDataInto(&f, nil)
	if err != nil {
		return fmt.Errorf("probe does not open at %s: %w", router.ID(), err)
	}
	if !bytes.Equal(pt, payload) {
		return fmt.Errorf("probe opened to different bytes at %s", router.ID())
	}
	return nil
}

// checkRoamEpoch holds one finished epoch to the accountability and
// predicted-null checks: every roamer's last session still audits to
// exactly the users' group at the router that adopted it, the epoch cost
// one pairing per roamer, no resume fell back to a full attach, and every
// handoff was adopted.
func checkRoamEpoch(res *result, env *roamEnv, epoch int, ops int64, handoff bool) {
	for i, ro := range env.roamers {
		if ro.sess == nil {
			res.violate("epoch %d: no resume of roamer %d succeeded", epoch, i)
			continue
		}
		audit, err := env.d.no.AuditSession(env.d.routers[ro.at], ro.sess.ID)
		if err != nil {
			res.violate("epoch %d: audit of roamer %d's last session: %v", epoch, i, err)
		} else if audit.Group != benchGroup {
			res.violate("epoch %d: audit names group %q, want %q", epoch, audit.Group, benchGroup)
		}
		if n := ro.cl.Stats().ResumeFallbacks(); n != 0 {
			res.violate("epoch %d: %d resume fallbacks", epoch, n)
		}
	}
	var pairings, handoffs int64
	for i, srv := range env.m.servers {
		pairings += int64(env.d.routers[i].Stats().ExpensiveVerifications)
		handoffs += srv.Stats().HandoffsIn()
	}
	if pairings != roamClients {
		res.violate("epoch %d: %d pairing-based verifications, want exactly %d", epoch, pairings, roamClients)
	}
	want := int64(0)
	if handoff {
		want = ops
	}
	if handoffs != want {
		res.violate("epoch %d: handoffs_in = %d, want %d", epoch, handoffs, want)
	}
}
