package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
)

// closedLoopRate is operations per second of client time: one caller
// waiting for each reply, so the rate is the inverse of the mean latency.
func closedLoopRate(lat latencies) float64 {
	if len(lat) == 0 {
		return 0
	}
	return float64(len(lat)) / lat.total().Seconds()
}

// ---- attach_cold -----------------------------------------------------

type coldEnv struct {
	site
	cl   *transport.Client
	conn net.PacketConn
}

func (e *coldEnv) close() {
	e.conn.Close()
	e.site.close()
}

// runAttachCold is one client in a closed loop of full Client.Attach runs
// against one single-shard server. The warm-up attach inside set-up pays
// for the router's lazily built verifier tables.
func runAttachCold(r *run) (*result, error) {
	env, setups, err := buildTimed(r.setupSeconds, func() (*coldEnv, time.Duration, error) {
		d, err := newDeployment(1, 1)
		if err != nil {
			return nil, 0, err
		}
		srv, err := d.serve(0, transport.ServerConfig{BootEpoch: 1})
		if err != nil {
			return nil, 0, err
		}
		e := &coldEnv{site: site{d, srv}}
		if e.cl, e.conn, err = d.client(0, srv, r.seed); err != nil {
			srv.Close()
			return nil, 0, err
		}
		if _, err := attach(e.cl); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("warm-up attach: %w", err)
		}
		return e, 0, nil
	})
	if err != nil {
		return nil, err
	}
	defer env.close()

	res := newResult()
	var lat latencies
	for deadline := r.deadline(); time.Now().Before(deadline); {
		start := time.Now()
		_, err := attach(env.cl)
		d := time.Since(start)
		res.Attempted++
		if err != nil {
			res.Failed++
			continue
		}
		lat = append(lat, d)
	}
	res.ops = res.Attempted
	res.report(lat, closedLoopRate(lat), len(lat), setups)
	// One pairing-based verification per attach, warm-up included: a
	// retransmitted M.2 must be served from the reply cache.
	if got, want := int64(env.d.routers[0].Stats().ExpensiveVerifications), res.Attempted+1; got != want {
		res.violate("router_expensive_verifications = %d, want %d (attaches attempted + warm-up)", got, want)
	}
	collect(res, []*transport.Server{env.srv}, []*transport.Client{env.cl})
	res.keep = env
	return res, nil
}

// ---- attach_burst ----------------------------------------------------

// burstWindow is how many M.2s the generator keeps outstanding.
const burstWindow = 32

type burstEnv struct {
	site
	conn net.PacketConn
}

func (e *burstEnv) close() {
	e.conn.Close()
	e.site.close()
}

// presigned is one M.2 ready to send.
type presigned struct {
	id    core.SessionID
	frame []byte
	user  *core.User
	sent  time.Time
}

// warmupChunk is the number of M.2s sent while setting up, enough to make
// the router build its lazily built verifier tables and fill its pools.
const warmupChunk = 16

// runAttachBurst measures router capacity in a re-attach storm: chunks of
// distinct M.2s are signed before the clock starts (two signer
// goroutines, two enrolled users) against a freshly solicited beacon and
// then sent from one socket with burstWindow outstanding. The rate is the
// median of the chunks' rates; a small chunk warms the router up during
// set-up, its signing not counted.
func runAttachBurst(r *run) (*result, error) {
	res := newResult()
	var verified int64
	env, setups, err := buildTimed(r.setupSeconds, func() (*burstEnv, time.Duration, error) {
		d, err := newDeployment(1, 2)
		if err != nil {
			return nil, 0, err
		}
		srv, err := d.serve(0, transport.ServerConfig{BootEpoch: 1})
		if err != nil {
			return nil, 0, err
		}
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, 0, err
		}
		e := &burstEnv{site{d, srv}, conn}
		reqs, signing, err := presignChunk(e, warmupChunk, r.rng)
		if err == nil {
			_, _, err = sendChunk(e, reqs, res)
		}
		if err != nil {
			e.close()
			return nil, 0, fmt.Errorf("warm-up chunk: %w", err)
		}
		verified = warmupChunk
		return e, signing, nil
	})
	if err != nil {
		return nil, err
	}
	defer env.close()

	var lat latencies
	var rates []float64
	var presign time.Duration
	for deadline := r.deadline(); len(rates) == 0 || time.Now().Before(deadline); {
		reqs, signing, err := presignChunk(env, r.chunk, r.rng)
		if err != nil {
			return nil, err
		}
		chunkLat, rate, err := sendChunk(env, reqs, res)
		if err != nil {
			return nil, err
		}
		verified += int64(len(reqs))
		presign += signing
		res.Attempted += int64(len(reqs))
		res.Failed += int64(len(reqs) - len(chunkLat))
		lat = append(lat, chunkLat...)
		rates = append(rates, rate)
	}
	res.ops = verified
	res.report(lat, median(rates), len(rates), setups)
	res.Layer.set("bench.presign_s", presign.Seconds(), "s", 0)
	// One pairing-based verification per M.2 sent to the router still serving.
	if got := int64(env.d.routers[0].Stats().ExpensiveVerifications); got != verified {
		res.violate("router_expensive_verifications = %d, want %d (M.2s sent)", got, verified)
	}
	collect(res, []*transport.Server{env.srv}, nil)
	res.keep = env
	return res, nil
}

// presignChunk solicits the current beacon and signs n distinct M.2s
// against it, split over two signer goroutines with one user each, and
// returns them with the time the signing took. The seeded rng shuffles
// the send order.
func presignChunk(env *burstEnv, n int, rng *rand.Rand) ([]*presigned, time.Duration, error) {
	start := time.Now()
	beacon, err := solicitBeacon(env.conn, env.srv.Addr())
	if err != nil {
		return nil, 0, err
	}
	reqs := make([]*presigned, n)
	errs := make([]error, len(env.d.users))
	var wg sync.WaitGroup
	for w, u := range env.d.users {
		wg.Add(1)
		go func(w int, u *core.User) {
			defer wg.Done()
			for i := w; i < n; i += len(env.d.users) {
				m2, err := u.HandleBeacon(beacon, benchGroup)
				if err != nil {
					errs[w] = err
					return
				}
				frame, err := transport.EncodeMessage(m2)
				if err != nil {
					errs[w] = err
					return
				}
				reqs[i] = &presigned{id: core.NewSessionID(m2.GR, m2.GJ), frame: frame, user: u}
			}
		}(w, u)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("presign: %w", err)
		}
	}
	rng.Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, time.Since(start), nil
}

// solicitBeacon asks the server for M.1 the way Client.Attach does.
func solicitBeacon(conn net.PacketConn, raddr net.Addr) (*core.Beacon, error) {
	solicit, err := transport.EncodeMessage(&transport.BeaconRequest{})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 65536)
	for try := 0; try < 5; try++ {
		if _, err := conn.WriteTo(solicit, raddr); err != nil {
			return nil, err
		}
		if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return nil, err
		}
		for {
			n, _, err := conn.ReadFrom(buf)
			if err != nil {
				break // deadline: solicit again
			}
			if kind, payload, err := transport.DecodeFrame(buf[:n]); err == nil && kind == transport.KindBeacon {
				return core.UnmarshalBeacon(payload)
			}
		}
	}
	return nil, fmt.Errorf("no beacon from %v", raddr)
}

// sendChunk sends the pre-signed requests from one socket, burstWindow
// outstanding, and returns the send→confirm latency of every completed
// attach and the chunk's rate. Replies are only stamped and copied while
// the clock runs; they are decoded and passed through
// User.HandleAccessConfirm afterwards.
func sendChunk(env *burstEnv, reqs []*presigned, res *result) (latencies, float64, error) {
	type reply struct {
		at   time.Time
		data []byte
	}
	raddr := env.srv.Addr()
	bySession := make(map[core.SessionID]*presigned, len(reqs))
	replies := make([]reply, 0, len(reqs))
	buf := make([]byte, 65536)
	next, outstanding := 0, 0
	begin := time.Now()
	for len(replies) < len(reqs) {
		for outstanding < burstWindow && next < len(reqs) {
			reqs[next].sent = time.Now()
			if _, err := env.conn.WriteTo(reqs[next].frame, raddr); err != nil {
				return nil, 0, err
			}
			next++
			outstanding++
		}
		if err := env.conn.SetReadDeadline(time.Now().Add(opTimeout)); err != nil {
			return nil, 0, err
		}
		n, _, err := env.conn.ReadFrom(buf)
		if err != nil {
			break // silence for opTimeout: the rest of the chunk failed
		}
		replies = append(replies, reply{time.Now(), append([]byte(nil), buf[:n]...)})
		outstanding--
	}
	end := time.Now()

	for _, p := range reqs {
		bySession[p.id] = p
	}
	var lat latencies
	for _, rp := range replies {
		kind, payload, err := transport.DecodeFrame(rp.data)
		if err != nil || kind != transport.KindAccessConfirm {
			continue // a reject or a stray frame: counted as failed by the caller
		}
		m3, err := core.UnmarshalAccessConfirm(payload)
		if err != nil {
			res.violate("undecodable M.3: %v", err)
			continue
		}
		p := bySession[core.NewSessionID(m3.GR, m3.GJ)]
		if p == nil {
			res.violate("M.3 for a session nobody asked for")
			continue
		}
		if _, err := p.user.HandleAccessConfirm(m3); err != nil {
			res.violate("M.3 refused by User.HandleAccessConfirm: %v", err)
			continue
		}
		lat = append(lat, rp.at.Sub(p.sent))
	}
	return lat, float64(len(lat)) / end.Sub(begin).Seconds(), nil
}
