package chaos

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/cert"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/puzzle"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/sgs"
	"github.com/peace-mesh/peace/internal/transport"
	"github.com/peace-mesh/peace/internal/wire"
)

// ErrSpoofedBindUnsupported reports that the host cannot bind secondary
// loopback addresses (127.0.x.y), which the attacker fleet needs for
// per-source rate-limit buckets. Linux supports it out of the box.
var ErrSpoofedBindUnsupported = errors.New("chaos: cannot bind spoofed loopback sources")

// AttackConfig scripts one adaptive-DoS attack soak: a seeded attacker
// fleet flooding the attach ingress from spoofed sources while a
// legitimate fleet attaches and keeps sessions alive through the storm.
type AttackConfig struct {
	// TestbedConfig sizes the legitimate fleet (default 8 users, at least
	// 2): half attach before the storm, half must attach through it.
	// Server.RateLimitPerSec arms the per-source ingress limiter, whose
	// drop stream is the controller's main load signal; default
	// attackRateLimit.
	TestbedConfig
	// Flooders is how many attacker goroutines spray garbage and
	// solution-less access requests. Default 3.
	Flooders int
	// SpoofedSources is how many distinct source IPs each flooder rotates
	// through. Default 8.
	SpoofedSources int
	// StormLen is how long the flood lasts. Default 2s.
	StormLen time.Duration
}

// attackPolicy is the adaptive defense the attack drills install on the
// router: a fast test policy whose whole suspicion → ratchet → decay
// cycle fits a two-second storm.
var attackPolicy = core.DoSPolicy{
	Enabled:            true,
	Window:             1500 * time.Millisecond,
	SuspicionThreshold: 8,
	QuietPeriod:        time.Second,
	BaseDifficulty:     3,
	MaxDifficulty:      8,
	StepInterval:       150 * time.Millisecond,
	DecayInterval:      200 * time.Millisecond,
}

const (
	// attackRateLimit is low enough that each spoofed source's flood rate
	// exceeds it by an order of magnitude (the drop stream drives the
	// ratchet), high enough that the legit fleet — which shares one
	// loopback source — never exhausts its bucket with handshake traffic.
	attackRateLimit = 50
	// attackReplayers is how many distinct spoofed sources replay one
	// solved puzzle (the solution-replay attack).
	attackReplayers = 6
	// attackDecayBound caps how long after the storm the demanded
	// difficulty may take to return to zero.
	attackDecayBound = 5500 * time.Millisecond
)

// withAttackDefaults arms the server side of both attack drills.
func (c TestbedConfig) withAttackDefaults() TestbedConfig {
	c.Routers = 1
	if c.Server.RateLimitPerSec <= 0 {
		c.Server.RateLimitPerSec = attackRateLimit
	}
	return c.withFleetClient().withDefaults()
}

func (c AttackConfig) withDefaults() AttackConfig {
	if c.Users < 2 {
		c.Users = 8
	}
	if c.Flooders < 1 {
		c.Flooders = 3
	}
	if c.SpoofedSources < 1 {
		c.SpoofedSources = 8
	}
	if c.StormLen <= 0 {
		c.StormLen = 2 * time.Second
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 60 * time.Second
	}
	c.TestbedConfig = c.withAttackDefaults()
	return c
}

// AttackReport is the outcome of an attack soak.
type AttackReport struct {
	Verdict

	LegitUsers int

	// Attack volume and what it bought.
	AttackerDatagrams int64
	AttackerSolved    int64

	// Controller trajectory.
	BaseDifficulty  uint8
	PeakDifficulty  uint8
	FinalDifficulty uint8
	DecayedIn       time.Duration

	// Legit fleet outcome.
	LegitAlive      int
	KeepalivesAcked int64

	// Server-side evidence.
	PuzzlesIssued    int64
	PuzzlesVerified  int64
	PuzzlesRejected  int64
	SolutionReplays  int64
	RatelimitDropped int64

	// Pairing economics: every expensive verification must be accounted
	// for by an established session (plus a small legit-retry slack) —
	// the flood itself buys none.
	SessionsEstablished    int
	ExpensiveVerifications int

	// Measured attacker cost (mean solve attempts over seeded trials) at
	// the base and peak demanded difficulties.
	SolveCostBase uint64
	SolveCostPeak uint64

	// Anti-rollback evidence: the URL epoch is bumped mid-storm and every
	// surviving client must converge onto it.
	InitialURLEpoch uint64
	FinalURLEpoch   uint64
}

// garbageAccessFrame is an undecodable access-request datagram — the
// cheapest possible forgery.
func garbageAccessFrame() []byte {
	frame, err := transport.EncodeFrame(transport.KindAccessRequest, []byte("peace attack soak garbage m2"))
	if err != nil {
		panic(err)
	}
	return frame
}

// skeletonAccessFrame is a solution-less datagram shaped like an M.2 at
// the wire-skeleton level (the puzzle gate's peek parses it) but carrying
// junk where the curve points and signature belong. Before suspicion
// trips it dies in the decoder; after, it exercises the RejectPuzzle
// reply path at flood rate.
func skeletonAccessFrame(prng *mrand.Rand) []byte {
	junk := func(n int) []byte {
		b := make([]byte, n)
		prng.Read(b)
		return b
	}
	w := wire.NewWriter(256)
	w.BytesField(junk(64)) // where g^{r_j} would be
	w.BytesField(junk(64)) // where g^{r_R} would be
	w.Time(time.Now())
	w.BytesField(junk(96)) // where the group signature would be
	w.Byte(0)              // no solution
	frame, err := transport.EncodeFrame(transport.KindAccessRequest, w.Bytes())
	if err != nil {
		panic(err)
	}
	return frame
}

// Recorder keeps a copy of every datagram a tap shows it: the passive
// eavesdropper of Section V.A on the links it is installed on
// (conn.Tap(rec.Record)). It is safe for concurrent use.
type Recorder struct {
	mu        sync.Mutex
	datagrams [][]byte
}

// Record is the TapFunc.
func (r *Recorder) Record(_ Direction, _ net.Addr, data []byte) {
	cp := append([]byte(nil), data...)
	r.mu.Lock()
	r.datagrams = append(r.datagrams, cp)
	r.mu.Unlock()
}

// Datagrams returns what was recorded so far, in order.
func (r *Recorder) Datagrams() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.datagrams...)
}

// Frames returns the recorded datagrams that decode as frames of kind k.
func (r *Recorder) Frames(k transport.Kind) [][]byte {
	var out [][]byte
	for _, d := range r.Datagrams() {
		if kind, _, err := transport.DecodeFrame(d); err == nil && kind == k {
			out = append(out, d)
		}
	}
	return out
}

// SolicitBeacon asks the router at addr for its current beacon (M.1) over
// conn, as any station in range can, and returns it unverified.
func SolicitBeacon(conn net.PacketConn, addr net.Addr) (*core.Beacon, error) {
	solicit, err := transport.EncodeMessage(&transport.BeaconRequest{})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, transport.HeaderSize+transport.MaxPayload)
	for try := 0; try < 10; try++ {
		if _, err := conn.WriteTo(solicit, addr); err != nil {
			return nil, err
		}
		if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return nil, err
		}
		for {
			n, _, err := conn.ReadFrom(buf)
			if err != nil {
				break // solicit again
			}
			if kind, payload, err := transport.DecodeFrame(buf[:n]); err == nil && kind == transport.KindBeacon {
				return core.UnmarshalBeacon(payload)
			}
		}
	}
	return nil, fmt.Errorf("chaos: no beacon from %v", addr)
}

// ForgedAccessFrame is the outsider injector's M.2 (Section V.A): it
// decodes, echoes the g^{r_R} of a beacon the attacker solicited itself and
// carries a fresh timestamp, so it passes every cheap check and reaches
// group-signature verification — with a signature of random components, the
// best a non-member can make, and no puzzle solution.
func ForgedAccessFrame(gr *bn256.G1) ([]byte, error) {
	// The exponents of g^{r_j}, T1 and T2, then r, c, s_α, s_x and s_δ.
	var k [8]*big.Int
	for i := range k {
		var err error
		if k[i], err = bn256.RandomScalar(rand.Reader); err != nil {
			return nil, err
		}
	}
	return transport.EncodeMessage(&core.AccessRequest{
		GJ:        new(bn256.G1).ScalarBaseMult(k[0]),
		GR:        gr,
		Timestamp: time.Now(),
		Sig: &sgs.Signature{
			T1: new(bn256.G1).ScalarBaseMult(k[1]),
			T2: new(bn256.G1).ScalarBaseMult(k[2]),
			R:  k[3], C: k[4], SAlpha: k[5], SX: k[6], SDelta: k[7],
		},
	})
}

// injectWindow is how many injected access requests may await their answer.
const injectWindow = 16

// Inject writes frames of access requests to the router at addr, never
// more than injectWindow of them unanswered, and returns how many the
// router answered. The router answers every access request it decodes, with
// an M.3 or a Reject, so the window paces a flood to what the router's
// socket buffer holds and every frame is accounted for.
func Inject(conn net.PacketConn, addr net.Addr, frames [][]byte) (int, error) {
	buf := make([]byte, transport.HeaderSize+transport.MaxPayload)
	sent, answered := 0, 0
	for answered < len(frames) {
		for ; sent < len(frames) && sent-answered < injectWindow; sent++ {
			if _, err := conn.WriteTo(frames[sent], addr); err != nil {
				return answered, err
			}
		}
		if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
			return answered, err
		}
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			return answered, fmt.Errorf("chaos: %d of %d injected frames unanswered: %w", len(frames)-answered, len(frames), err)
		}
		if kind, _, err := transport.DecodeFrame(buf[:n]); err == nil && (kind == transport.KindReject || kind == transport.KindAccessConfirm) {
			answered++
		}
	}
	return answered, nil
}

// Replay re-sends captured frames, byte for byte, to addr over conn — the
// replay attacker, who holds nothing but what a tap recorded.
func Replay(conn net.PacketConn, addr net.Addr, frames [][]byte) error {
	for _, f := range frames {
		if _, err := conn.WriteTo(f, addr); err != nil {
			return err
		}
	}
	return nil
}

// NewRogueRouter serves the phishing router of Section V.A on loopback: a
// real core.MeshRouter named id behind transport.NewServer, holding a
// certificate it issued itself (it has no NSK) and ln's genuine revocation
// bundles, which are public. Victims must refuse its beacon in Step 2.1,
// before any M.2: its router's RequestsSeen counts the M.2s it lured. The
// caller closes the server.
func NewRogueRouter(ln *transport.LocalNetwork, id string) (*transport.Server, error) {
	r, err := core.NewMeshRouter(ln.Cfg, id, ln.NO.Authority(), ln.NO.GroupPublicKey())
	if err != nil {
		return nil, err
	}
	self, err := cert.GenerateKeyPair(rand.Reader)
	if err != nil {
		return nil, err
	}
	c, err := cert.IssueCertificate(rand.Reader, self, id, r.Public(), time.Now().Add(time.Hour))
	if err != nil {
		return nil, err
	}
	r.SetCertificate(c)
	crl, url, err := ln.NO.RevocationBundles()
	if err != nil {
		return nil, err
	}
	if err := r.UpdateRevocations(crl, url); err != nil {
		return nil, err
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return transport.NewServer(conn, r, transport.ServerConfig{}), nil
}

// replayResumeFrame grafts a solved puzzle triple onto a garbage resume
// request: it passes the puzzle gate's verification (the solution is
// genuine) and then dies cheaply at the ticket opener — unless the
// replay table has seen the triple from another source first.
func replayResumeFrame(prng *mrand.Rand, p *puzzle.Puzzle, solution uint64) []byte {
	req := &transport.ResumeRequest{
		Ticket:           []byte("peace attack soak bogus ticket"),
		Timestamp:        time.Now(),
		HasSolution:      true,
		Solution:         solution,
		PuzzleIssuedAt:   p.IssuedAt,
		PuzzleDifficulty: p.Difficulty,
	}
	prng.Read(req.Nonce[:])
	frame, err := transport.EncodeMessage(req)
	if err != nil {
		panic(err)
	}
	return frame
}

// listenSpoofed binds a socket on a secondary loopback address so each
// attacker source lands in its own rate-limit bucket, the way a
// spoofed-source flood does on a real ingress.
func listenSpoofed(flooder, src int) (net.PacketConn, error) {
	addr := fmt.Sprintf("127.0.%d.%d:0", 1+flooder, 1+src)
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpoofedBindUnsupported, err)
	}
	return conn, nil
}

// measureSolveCost returns the mean number of digest evaluations a
// seeded solver spends on fresh puzzles of the given difficulty.
func measureSolveCost(seed int64, difficulty uint8, trials int) uint64 {
	prng := mrand.New(mrand.NewSource(seed))
	var total uint64
	for i := 0; i < trials; i++ {
		p, err := puzzle.New(prng, difficulty, "cost-probe", time.Now())
		if err != nil {
			panic(err)
		}
		_, attempts, _ := p.SolveFrom(prng.Uint64(), 0)
		total += attempts
	}
	return total / uint64(trials)
}

// AttackSoak executes the adaptive-DoS attack scenario:
//
//  1. provision a network with the adaptive puzzle policy, start the
//     server with its ingress rate limiter armed, and attach half the
//     legitimate fleet;
//  2. storm: seeded flooders spray garbage and solution-less M.2s from
//     distinct spoofed loopback sources; the other half of the fleet
//     starts attaching mid-flood; the revocation epoch is bumped
//     mid-storm; once the router demands puzzles, a replay attacker
//     solves one challenge and sprays the same solution from many
//     sources;
//  3. the storm stops; the demanded difficulty must decay to zero within
//     attackDecayBound;
//  4. invariants: the whole legit fleet (above the 95% floor) holds
//     working, key-agreeing sessions; the difficulty ratcheted at least
//     two steps above base during the storm; measured attacker cost
//     scales with 2^difficulty; cross-source solution replays were
//     refused; the flood bought (almost) no pairings; every client
//     converged onto the bumped revocation epoch.
func AttackSoak(cfg AttackConfig) (*AttackReport, error) {
	cfg = cfg.withDefaults()
	logf := cfg.Logf
	rep := &AttackReport{LegitUsers: cfg.Users, BaseDifficulty: attackPolicy.BaseDifficulty}

	tb, err := NewTestbed(cfg.TestbedConfig)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	router := tb.Net.Routers[0]
	router.SetDoSPolicy(attackPolicy)
	addr := tb.Servers[0].Addr()
	rep.InitialURLEpoch = router.RevocationEpoch(revocation.ListURL)

	// Phase 1: half the fleet attaches on a calm network.
	preStorm := cfg.Users / 2
	if err := tb.Launch(0, preStorm); err != nil {
		return nil, err
	}
	logf("attack: attaching %d/%d clients pre-storm", preStorm, cfg.Users)
	if !tb.Settle(&rep.Verdict, "pre-storm fleet attach", func() bool { return tb.Established() == preStorm }) {
		return rep, nil
	}
	if got := router.RequiredDifficulty(); got != 0 {
		rep.violate("calm network already demands difficulty %d", got)
	}

	// Phase 2: the storm. Flooders spray from spoofed sources; the rest
	// of the fleet attaches through it; a replay attacker waits for the
	// first challenge.
	stormCtx, stopStorm := context.WithCancel(context.Background())
	var attackers sync.WaitGroup
	defer func() {
		stopStorm()
		attackers.Wait()
	}()
	var attackerDatagrams atomic.Int64
	var attackerSolved atomic.Int64

	for f := 0; f < cfg.Flooders; f++ {
		conns := make([]net.PacketConn, 0, cfg.SpoofedSources)
		for s := 0; s < cfg.SpoofedSources; s++ {
			conn, err := listenSpoofed(f, s)
			if err != nil {
				return nil, err
			}
			conns = append(conns, conn)
		}
		attackers.Add(1)
		go func(f int, conns []net.PacketConn) {
			defer attackers.Done()
			defer func() {
				for _, c := range conns {
					_ = c.Close()
				}
			}()
			prng := mrand.New(mrand.NewSource(cfg.Seed*5_000_011 + int64(f)))
			garbage := garbageAccessFrame()
			for i := 0; stormCtx.Err() == nil; i++ {
				frame := garbage
				if i%2 == 1 {
					frame = skeletonAccessFrame(prng)
				}
				for _, c := range conns {
					if _, err := c.WriteTo(frame, addr); err == nil {
						attackerDatagrams.Add(1)
					}
				}
				if i%16 == 15 {
					time.Sleep(time.Millisecond)
				}
			}
		}(f, conns)
	}

	// The replay attacker: solve one genuine challenge, spray the same
	// solution from many sources. Only the first source may be admitted.
	attackers.Add(1)
	go func() {
		defer attackers.Done()
		prng := mrand.New(mrand.NewSource(cfg.Seed * 7_000_003))
		conns := make([]net.PacketConn, 0, attackReplayers)
		defer func() {
			for _, c := range conns {
				_ = c.Close()
			}
		}()
		for s := 0; s < attackReplayers; s++ {
			conn, err := listenSpoofed(cfg.Flooders, s)
			if err != nil {
				return
			}
			conns = append(conns, conn)
		}
		// The challenge rides every beacon and RejectPuzzle reply, so an
		// attacker sniffing the broadcast medium has it the moment defense
		// trips; reading it off the router models that without racing the
		// flood's kernel-level receive drops. The attacker re-solves the
		// *current* challenge every round: the controller ratchets while
		// the storm runs, and a solution pinned to an already-superseded
		// difficulty would be refused as insufficient before the replay
		// table ever saw it. Re-solving keeps each round's spray
		// verifiable, so the refusals the run must witness are the
		// cross-source ones.
		for stormCtx.Err() == nil {
			p := router.CurrentPuzzle()
			if p == nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			sol, _, ok := p.SolveFrom(prng.Uint64(), 0)
			if !ok {
				continue
			}
			attackerSolved.Add(1)
			frame := replayResumeFrame(prng, p, sol)
			for _, c := range conns {
				if _, err := c.WriteTo(frame, addr); err == nil {
					attackerDatagrams.Add(1)
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()

	// Peak-difficulty tracker.
	var peak atomic.Uint32
	attackers.Add(1)
	go func() {
		defer attackers.Done()
		for stormCtx.Err() == nil {
			if d := uint32(router.RequiredDifficulty()); d > peak.Load() {
				peak.Store(d)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	logf("attack: storm started (%d flooders × %d sources, %v)", cfg.Flooders, cfg.SpoofedSources, cfg.StormLen)
	// Mid-storm: the revocation epoch moves, then the rest of the fleet
	// attaches through the flood — every joiner signs against the bumped
	// list, so a joiner left on the old epoch would be rollback evidence.
	time.Sleep(cfg.StormLen / 4)
	if err := tb.BumpRevocation(1); err != nil {
		return nil, err
	}
	rep.FinalURLEpoch = router.RevocationEpoch(revocation.ListURL)
	if err := tb.Launch(preStorm, cfg.Users); err != nil {
		return nil, err
	}
	time.Sleep(3 * cfg.StormLen / 4)

	stopStorm()
	attackers.Wait()
	stormEnd := time.Now()
	rep.AttackerDatagrams = attackerDatagrams.Load()
	rep.AttackerSolved = attackerSolved.Load()
	rep.PeakDifficulty = uint8(peak.Load())
	logf("attack: storm over (%d attacker datagrams, peak difficulty %d), decaying",
		rep.AttackerDatagrams, rep.PeakDifficulty)

	// Phase 3: the whole fleet must be (or get) established, and the
	// demanded difficulty must return to zero within the bound.
	tb.Settle(&rep.Verdict, "full fleet attach", func() bool { return tb.Established() == cfg.Users })
	decayDeadline := stormEnd.Add(attackDecayBound)
	for time.Now().Before(decayDeadline) {
		if router.RequiredDifficulty() == 0 && !router.DoSDefenseActive() {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	rep.DecayedIn = time.Since(stormEnd)
	rep.FinalDifficulty = router.RequiredDifficulty()

	// Harvest.
	for i, cl := range tb.Clients {
		rep.KeepalivesAcked += cl.Stats().KeepalivesAcked()
		// Anti-rollback: nobody regresses below the epoch they started
		// with, and every mid-storm joiner — whose whole attach happened
		// after the bump — must have converged onto the bumped epoch.
		// (Pre-storm clients that never re-attached legitimately stay on
		// the epoch they were verified against.)
		got := tb.Net.Users[i].RevocationEpoch(revocation.ListURL)
		if got < rep.InitialURLEpoch || got > rep.FinalURLEpoch {
			rep.violate("client %d URL epoch %d outside [%d, %d] (rollback)", i, got, rep.InitialURLEpoch, rep.FinalURLEpoch)
		}
		if i >= preStorm && got != rep.FinalURLEpoch {
			rep.violate("mid-storm joiner %d attached against URL epoch %d, want %d (rollback or missed sync)",
				i, got, rep.FinalURLEpoch)
		}
	}
	rep.LegitAlive = tb.ProbeKeys(&rep.Verdict)
	st := tb.Servers[0].Stats()
	rep.PuzzlesIssued = st.DoSPuzzlesIssued()
	rep.PuzzlesVerified = st.DoSPuzzlesVerified()
	rep.PuzzlesRejected = st.DoSPuzzlesRejected()
	rep.SolutionReplays = st.DoSSolutionReplays()
	rep.RatelimitDropped = st.RatelimitDropped()
	rstats := router.Stats()
	rep.SessionsEstablished = rstats.SessionsEstablished
	rep.ExpensiveVerifications = rstats.ExpensiveVerifications

	// Judge.
	if rep.PeakDifficulty == 0 {
		rep.violate("suspicion never tripped under a %d-datagram flood", rep.AttackerDatagrams)
	}
	if rep.PeakDifficulty < rep.BaseDifficulty+2 {
		rep.violate("difficulty peaked at %d, want >= base %d + 2 ratchet steps",
			rep.PeakDifficulty, rep.BaseDifficulty)
	}
	if rep.FinalDifficulty != 0 || router.DoSDefenseActive() {
		rep.violate("difficulty still %d (defense active) %v after the storm (bound %v)",
			rep.FinalDifficulty, rep.DecayedIn, attackDecayBound)
	}
	if floor := (cfg.Users*95 + 99) / 100; rep.LegitAlive < floor {
		rep.violate("only %d/%d legit clients hold working sessions (floor %d)",
			rep.LegitAlive, cfg.Users, floor)
	}
	if rep.KeepalivesAcked == 0 {
		rep.violate("no keepalive was acknowledged through the storm")
	}
	if rep.RatelimitDropped == 0 {
		rep.violate("the flood never hit the rate limiter")
	}
	if rep.PuzzlesIssued == 0 || rep.PuzzlesVerified == 0 {
		rep.violate("puzzle loop inert: issued %d verified %d", rep.PuzzlesIssued, rep.PuzzlesVerified)
	}
	if rep.AttackerSolved == 0 {
		rep.violate("the replay attacker never obtained and solved a challenge")
	} else if rep.SolutionReplays == 0 {
		rep.violate("cross-source solution replays were never refused")
	}
	// Pairing economics: the flood must not buy verifications. Allow a
	// small slack for legitimate attaches that raced the revocation bump.
	if slack := cfg.Users; rep.ExpensiveVerifications > rep.SessionsEstablished+slack {
		rep.violate("%d expensive verifications for %d sessions: the flood bought pairings",
			rep.ExpensiveVerifications, rep.SessionsEstablished)
	}
	// Attacker cost scaling: mean solve work grows as 2^difficulty.
	if rep.PeakDifficulty > rep.BaseDifficulty {
		const trials = 32
		rep.SolveCostBase = measureSolveCost(cfg.Seed*11_000_027, rep.BaseDifficulty, trials)
		rep.SolveCostPeak = measureSolveCost(cfg.Seed*13_000_021, rep.PeakDifficulty, trials)
		want := rep.SolveCostBase * (1 << (rep.PeakDifficulty - rep.BaseDifficulty)) / 4
		if rep.SolveCostPeak < want || rep.SolveCostPeak <= rep.SolveCostBase {
			rep.violate("solve cost did not scale: %d attempts at difficulty %d vs %d at %d (want >= %d)",
				rep.SolveCostPeak, rep.PeakDifficulty, rep.SolveCostBase, rep.BaseDifficulty, want)
		}
	}
	if rep.FinalURLEpoch <= rep.InitialURLEpoch {
		rep.violate("revocation bump did not advance the URL epoch (%d -> %d)",
			rep.InitialURLEpoch, rep.FinalURLEpoch)
	}
	return rep, nil
}
