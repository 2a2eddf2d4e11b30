package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/peace-mesh/peace/internal/revocation"
)

// MetroSoakConfig scripts the metro roaming drill: a multi-router
// backbone, a roaming wave of ticket handoffs, one router's backbone
// partitioned mid-wave, and a final anti-rollback probe against every
// router. With clean links and no partition it is the plain roaming wave.
type MetroSoakConfig struct {
	// TestbedConfig sizes the metro (defaults 8 routers, at least 3 so the
	// partition leaves a connected remainder; 200 users) and sets the
	// backbone schedule during the wave; MetroFaults is the CI soak's.
	TestbedConfig
	// Moves is how many cross-router handoffs each user makes. Default 3.
	Moves int
	// PartitionLen is how long router 0's backbone stays blackholed,
	// starting metroPartitionDelay into the wave. Zero skips the partition.
	PartitionLen time.Duration
}

// MetroFaults is the metro soak's backbone schedule.
var MetroFaults = FaultPlan{Drop: 0.05, Corrupt: 0.03, Duplicate: 0.03, Reorder: 0.02}

const (
	// metroPartitionDelay is how long into the wave the partition trips.
	metroPartitionDelay = 300 * time.Millisecond
	// waveConcurrency bounds how many users roam at once.
	waveConcurrency = 16
)

func (c MetroSoakConfig) withDefaults() MetroSoakConfig {
	if c.Routers < 3 {
		c.Routers = 8
	}
	if c.Users < 1 {
		c.Users = 200
	}
	if c.Moves < 1 {
		c.Moves = 3
	}
	c.TestbedConfig = c.withFleetClient().withDefaults()
	return c
}

// MetroReport is the outcome of one roaming wave and, after MetroSoak,
// of the faults, partition and rollback probe around it.
type MetroReport struct {
	Verdict

	Routers int `json:"routers"`
	Users   int `json:"users"`
	Moves   int `json:"moves"`

	// Pairings counts full M.2/M.3 handshakes across all users — session
	// continuity means exactly one per user, every move riding a ticket.
	Pairings int64 `json:"pairings"`
	// Resumed counts successful ticket resumptions (the handoffs).
	Resumed   int64 `json:"resumed"`
	Fallbacks int64 `json:"fallbacks"`

	HandoffsIn    int64 `json:"handoffs_in"`
	HandoffsOut   int64 `json:"handoffs_out"`
	FramesRelayed int64 `json:"frames_relayed"`
	Delivered     int64 `json:"data_delivered"`
	// OversizeDrops counts backbone envelopes some router could not fit
	// into a datagram; it must be zero.
	OversizeDrops int64 `json:"backbone_oversize_drops"`

	// Injected sums the fault counters over every backbone socket.
	Injected Counters `json:"injected"`
	// PartitionedRouter is the router whose backbone was blackholed.
	PartitionedRouter string `json:"partitioned_router,omitempty"`
	// RollbacksRefused counts routers that refused the stale revocation
	// bundle re-offer; it must equal Routers.
	RollbacksRefused int `json:"rollbacks_refused"`
}

// RoamingWave attaches every user at its home router, then roams each
// through moves cross-router handoffs: retarget to the next router,
// resume with the held ticket, send one in-flight frame through the
// previous router (exercising the relay grace window) and one directly.
// SettleTimeout bounds how long a roaming user waits for its ownership
// announcement to reach the previous router, so it must exceed any
// induced partition. The report asserts exactly one pairing per user and
// full delivery.
func (tb *Testbed) RoamingWave(ctx context.Context, moves int) *MetroReport {
	routers, users := len(tb.Servers), len(tb.Clients)
	ownerWait := tb.cfg.SettleTimeout
	rep := &MetroReport{Routers: routers, Users: users, Moves: moves}
	if !tb.WaitConverged() {
		rep.violate("backbone never converged")
		return rep
	}

	var (
		wg        sync.WaitGroup
		sem       = make(chan struct{}, waveConcurrency)
		wantRelay atomic.Int64
	)
	for ui := 0; ui < users; ui++ {
		cl, err := tb.Dial(ui)
		if err != nil {
			rep.violate("user %d: listen: %v", ui, err)
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(ui int) {
			defer wg.Done()
			defer func() { <-sem }()
			fail := func(format string, args ...any) {
				rep.violate("user %d: %s", ui, fmt.Sprintf(format, args...))
			}

			at := ui % routers
			if _, err := cl.Attach(ctx); err != nil {
				fail("attach at %s: %v", tb.Nodes[at].ID(), err)
				return
			}
			for mv := 0; mv < moves; mv++ {
				prev := at
				at = (at + 1) % routers
				oldAddr := tb.Servers[prev].Addr()
				cl.Retarget(tb.Servers[at].Addr())
				sess, err := cl.Resume(ctx)
				if err != nil {
					fail("move %d resume at %s: %v", mv, tb.Nodes[at].ID(), err)
					return
				}

				// The in-flight frame goes first: the receiving session
				// enforces strictly increasing sequence numbers, so a
				// late-relayed lower sequence would be dropped as a replay.
				// Wait for the ownership announcement to reach the previous
				// router (it is relayed there at once; a partition delays it
				// until the route heals and the adopter re-sends), then send
				// through it.
				sid := sess.ID
				ownerDeadline := time.Now().Add(ownerWait)
				for {
					if owner, ok := tb.Nodes[prev].OwnerOf(sid); ok && owner == tb.Nodes[at].ID() {
						break
					}
					if time.Now().After(ownerDeadline) {
						fail("move %d: ownership of session never reached %s", mv, tb.Nodes[prev].ID())
						return
					}
					time.Sleep(10 * time.Millisecond)
				}
				payload := []byte(fmt.Sprintf("metro user %d move %d", ui, mv))
				if err := cl.SendDataVia(oldAddr, payload); err != nil {
					fail("move %d in-flight send: %v", mv, err)
					return
				}
				wantRelay.Add(1)
				// The relayed frame must land before a higher-sequence
				// direct frame, or the session's strictly increasing
				// receive rule drops the straggler as a replay. Data
				// frames are fire-and-forget, so under an induced lossy
				// backbone the frame is retransmitted (each resend seals
				// a fresh, higher sequence — late originals then drop as
				// replays at the receiver, which is correct).
				relayDeadline := time.Now().Add(ownerWait)
				resend := time.Now().Add(150 * time.Millisecond)
				for {
					if srvSess, ok := tb.Net.Routers[at].SessionByID(sid); ok {
						if _, any := srvSess.RecvSeq(); any {
							break
						}
					}
					if time.Now().After(relayDeadline) {
						fail("move %d: in-flight frame never delivered via backbone", mv)
						return
					}
					if time.Now().After(resend) {
						resend = time.Now().Add(150 * time.Millisecond)
						if err := cl.SendDataVia(oldAddr, payload); err != nil {
							fail("move %d in-flight resend: %v", mv, err)
							return
						}
					}
					time.Sleep(5 * time.Millisecond)
				}
				if err := cl.SendData(payload); err != nil {
					fail("move %d direct send: %v", mv, err)
					return
				}
			}
		}(ui)
	}
	wg.Wait()

	for ui, cl := range tb.Clients {
		if cl == nil {
			continue
		}
		st := cl.Stats()
		rep.Pairings += st.AttachSuccesses()
		rep.Resumed += st.ResumeSuccesses()
		rep.Fallbacks += st.ResumeFallbacks()
		// Per client, not just in aggregate: every move rode the ticket.
		if got := st.AttachSuccesses(); got != 1 {
			rep.violate("user %d paired %d times, want exactly 1", ui, got)
		}
	}

	// Delivery is asynchronous (relayed frames cross the backbone); wait
	// for the counters to converge before judging.
	wantDelivered := wantRelay.Load() * 2
	deadline := time.Now().Add(15 * time.Second)
	for {
		rep.HandoffsIn, rep.HandoffsOut, rep.FramesRelayed, rep.Delivered = 0, 0, 0, 0
		for _, s := range tb.Servers {
			st := s.Stats()
			rep.HandoffsIn += st.HandoffsIn()
			rep.HandoffsOut += st.HandoffsOut()
			rep.FramesRelayed += st.FramesRelayed()
			rep.Delivered += st.DataDelivered()
		}
		if rep.Delivered >= wantDelivered || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	if rep.Pairings != int64(users) {
		rep.violate("pairings = %d, want exactly %d (one per user)", rep.Pairings, users)
	}
	if rep.Fallbacks != 0 {
		rep.violate("%d resume fallbacks to full pairing", rep.Fallbacks)
	}
	if want := int64(users * moves); rep.Resumed < want {
		rep.violate("resumed = %d, want ≥ %d", rep.Resumed, want)
	}
	if rep.HandoffsIn < int64(users*moves) {
		rep.violate("handoffs_in = %d, want ≥ %d", rep.HandoffsIn, users*moves)
	}
	if rep.Delivered < wantDelivered {
		rep.violate("delivered = %d, want ≥ %d", rep.Delivered, wantDelivered)
	}
	// Rounds and ad relays are cut to the egress buffer class, far below a
	// datagram; a refusal means some backbone message grew past both.
	for _, s := range tb.Servers {
		rep.OversizeDrops += s.Stats().Snapshot().Value("backbone_oversize_drops")
	}
	if rep.OversizeDrops != 0 {
		rep.violate("backbone_oversize_drops = %d: a backbone envelope outgrew a datagram", rep.OversizeDrops)
	}
	return rep
}

// MetroSoak executes the metro roaming acceptance drill:
//
//  1. provision an N-router metro with a shared STEK ring, every
//     backbone socket wrapped in seeded fault injection;
//  2. roam every user through Moves cross-router ticket handoffs while
//     the backbone drops, corrupts, duplicates and reorders datagrams;
//  3. a moment into the wave, blackhole router 0's backbone for
//     PartitionLen — handoffs away from it must still succeed, with the
//     grace-window forwarding converging only after the heal;
//  4. after the wave, advance the revocation epoch everywhere and
//     re-offer the original bundles: every router must refuse the
//     rollback.
//
// 100% session continuity is required: exactly one pairing per user,
// every move riding a ticket, zero resume fallbacks.
func MetroSoak(cfg MetroSoakConfig) (*MetroReport, error) {
	cfg = cfg.withDefaults()
	logf := cfg.Logf

	tb, err := NewTestbed(cfg.TestbedConfig)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	logf("chaos: metro up: %d routers, %d users, faults %+v", cfg.Routers, cfg.Users, cfg.Faults)

	// Trip the partition mid-wave: router 0 falls off the backbone, its
	// user-facing plane stays up.
	if cfg.PartitionLen > 0 {
		partition := time.AfterFunc(metroPartitionDelay, func() {
			logf("chaos: partitioning %s's backbone for %v", tb.Nodes[0].ID(), cfg.PartitionLen)
			tb.Backbone[0].PartitionFor(cfg.PartitionLen)
		})
		defer partition.Stop()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	rep := tb.RoamingWave(ctx, cfg.Moves)
	logf("chaos: wave done: %d pairings, %d resumed, %d handoffs in, %d frames relayed",
		rep.Pairings, rep.Resumed, rep.HandoffsIn, rep.FramesRelayed)

	rep.Injected = tb.Injected()
	if cfg.Faults != (FaultPlan{}) && rep.Injected.Dropped+rep.Injected.Corrupted+rep.Injected.Duplicated == 0 {
		rep.violate("no faults were injected — the soak exercised nothing")
	}
	if cfg.PartitionLen > 0 {
		rep.PartitionedRouter = tb.Nodes[0].ID()
		if rep.Injected.PartitionDrops == 0 {
			rep.violate("the backbone partition never dropped a datagram")
		}
	}

	// The forwarding plane must have converged across the partition: every
	// adopted handoff was eventually announced to (and counted by) the
	// previous router.
	if rep.HandoffsOut != rep.HandoffsIn {
		rep.violate("handoffs_out = %d never converged to handoffs_in = %d after heal",
			rep.HandoffsOut, rep.HandoffsIn)
	}

	// Anti-rollback on every router: advance the epoch fleet-wide, then
	// re-offer the bundles the metro booted with. (The bump happens after
	// the wave — advancing mid-wave would legitimately stale the ticket
	// pins and break the zero-extra-pairings invariant being measured.)
	if err := tb.BumpRevocation(1); err != nil {
		return nil, err
	}
	for i, r := range tb.Net.Routers {
		err := r.UpdateRevocations(tb.Net.InitialCRL, tb.Net.InitialURL)
		switch {
		case err == nil:
			rep.violate("router %d accepted a revocation rollback", i)
		case !errors.Is(err, revocation.ErrRollback):
			rep.violate("router %d refused rollback with the wrong error: %v", i, err)
		default:
			rep.RollbacksRefused++
		}
	}
	logf("chaos: %d/%d routers refused the revocation rollback", rep.RollbacksRefused, cfg.Routers)
	return rep, nil
}
