package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/puzzle"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/transport/batchio"
)

// ErrHandshakeTimeout is returned when a handshake phase exhausted its
// retransmissions without an answer.
var ErrHandshakeTimeout = errors.New("transport: handshake timed out after max retries")

// errTransientReject is the in-client signal that the router asked us to
// back off (queue full, draining): the exchange loop keeps retransmitting
// and may extend its retry budget instead of failing the attach.
var errTransientReject = errors.New("transport: transient reject")

// puzzleChallengeError aborts an exchange with the challenge a
// RejectPuzzle reply carried: the caller solves it off the retransmit loop
// and re-runs the phase with the solution attached.
type puzzleChallengeError struct{ p *puzzle.Puzzle }

func (e *puzzleChallengeError) Error() string {
	return fmt.Sprintf("transport: router demands a puzzle solution (difficulty %d)", e.p.Difficulty)
}

func (e *puzzleChallengeError) Unwrap() error { return core.ErrPuzzleRequired }

// maxPuzzleRetries bounds how many times one attach or resume re-runs its
// exchange with a freshly solved puzzle before giving up (the demanded
// difficulty can ratchet between tries).
const maxPuzzleRetries = 2

// The client's retransmit and puzzle constants; no deployment tunes
// them.
const (
	// backoffFactor multiplies the timeout after every retransmission.
	backoffFactor = 2
	// jitter spreads every retransmit wait uniformly over
	// [1-jitter, 1+jitter] of its nominal value, so a fleet of clients
	// recovering from the same outage does not thundering-herd the router
	// in lockstep.
	jitter = 0.2
	// puzzleSolveBudget caps the hash evaluations one puzzle solve may
	// spend before the attach fails with core.ErrPuzzleRequired — the
	// client-side guard against a hostile or runaway difficulty. 2^24
	// covers difficulty ≤ ~22 with headroom.
	puzzleSolveBudget = 1 << 24
)

// clientSeq de-correlates the jitter streams of clients that did not pick
// an explicit seed.
var clientSeq atomic.Int64

// ClientConfig tunes the user-side handshake state machine.
type ClientConfig struct {
	// Group selects which credential signs M.2 (empty = any).
	Group core.GroupID
	// RetransmitTimeout is the initial wait before a frame is sent again.
	// Default 150ms.
	RetransmitTimeout time.Duration
	// MaxTimeout caps the backed-off retransmit timeout. Default 2s.
	MaxTimeout time.Duration
	// MaxRetries bounds retransmissions per phase (so a phase sends at
	// most 1+MaxRetries frames). The default of 10 gives a total wait of
	// ≈16 s per phase — sized so a request sitting in a busy router's
	// verification queue behind ~100 concurrent users is not abandoned
	// while the server is still working on it.
	MaxRetries int
	// Seed makes the jitter stream reproducible. Zero draws a process-wide
	// unique seed.
	Seed int64
	// QueueFullResets is how many times a phase's whole retry budget is
	// re-armed after the router signalled transient backpressure
	// (queue-full or draining): those rejections mean "come back soon",
	// not "give up". Default 3; negative disables re-arming.
	QueueFullResets int
	// Metrics is the registry the client's instruments resolve in. Nil
	// creates a private registry. A fleet of clients may share one
	// registry; registration is idempotent and their counts aggregate.
	Metrics *metrics.Registry
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.RetransmitTimeout <= 0 {
		c.RetransmitTimeout = 150 * time.Millisecond
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Second
	}
	if c.MaxRetries < 1 {
		c.MaxRetries = 10
	}
	if c.QueueFullResets == 0 {
		c.QueueFullResets = 3
	}
	if c.QueueFullResets < 0 {
		c.QueueFullResets = 0
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano() ^ (clientSeq.Add(1) << 32)
	}
	return c
}

// Client drives one user through the M.1–M.3 AKA against a router
// address. The state machine is send-and-wait with exponential backoff:
//
//	solicit ──M.1──▶ request ──M.3──▶ established
//	   │ timeout: resend beacon-request │ timeout: resend M.2
//
// Duplicate beacons and stray frames are suppressed; a Reject for the
// session aborts (except queue-full, which keeps retrying — that is
// backpressure, not failure).
type Client struct {
	cfg   ClientConfig
	conn  net.PacketConn
	user  *core.User
	stats *Stats
	buf   []byte
	rng   *rand.Rand

	// mu guards the self-healing state that Maintain mutates while other
	// goroutines (a scenario runner, a stats reporter) observe it.
	mu sync.Mutex
	// raddr is the router currently talked to; Retarget repoints it when
	// the user roams to a different AP.
	raddr net.Addr
	// sess is the currently established session, nil while detached.
	sess *core.Session
	// bootEpoch is the authenticated server boot epoch recorded when sess
	// was established.
	bootEpoch uint64
	// ticket is the held resumption state (sealed blob + locally derived
	// secret), nil until an attach or resume minted one.
	ticket *resumeTicket
	// lastRouterID is the authenticated ID of the router that established
	// the current session; a resume answered by a different ID is a
	// roaming handoff for the latency accounting.
	lastRouterID string

	// sendMu guards sendBuf, the reused data-frame encode scratch of
	// SendDataVia — header plus sealed frame built in place, so the
	// steady-state send path allocates nothing.
	sendMu  sync.Mutex
	sendBuf []byte
}

// NewClient wraps conn (the user's own socket) talking to the router at
// raddr on behalf of user.
func NewClient(conn net.PacketConn, raddr net.Addr, user *core.User, cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:   cfg,
		conn:  conn,
		raddr: raddr,
		user:  user,
		stats: NewStats(cfg.Metrics),
		buf:   make([]byte, 65536),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	// Budgeted, randomized-start puzzle solving: the random start point
	// makes a fleet answering one broadcast puzzle find distinct solutions
	// (so per-source replay suppression never punishes honest clients), and
	// the budget keeps a hostile difficulty from wedging the attach loop.
	user.SetPuzzleSolver(c.solvePuzzle)
	return c
}

// solvePuzzle answers one challenge within the configured hash budget,
// recording the solve latency.
func (c *Client) solvePuzzle(p *puzzle.Puzzle) (uint64, bool) {
	start := time.Now()
	sol, _, ok := p.SolveFrom(c.rng.Uint64(), puzzleSolveBudget)
	if ok {
		c.stats.dosSolveLatency.Observe(time.Since(start))
	}
	return sol, ok
}

// Stats returns the client's transport counters.
func (c *Client) Stats() *Stats { return c.stats }

// RouterAddr returns the router address currently talked to.
func (c *Client) RouterAddr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.raddr
}

// Retarget repoints the client at a different router (the user moved to a
// new AP). Session and ticket state are deliberately kept: the next
// Resume against the new address is exactly the metro roaming handoff —
// the adopting router opens the ticket, re-logs the escrow and announces
// ownership on the backbone.
func (c *Client) Retarget(raddr net.Addr) {
	c.mu.Lock()
	c.raddr = raddr
	c.mu.Unlock()
}

// Session returns the currently established session, or nil while the
// client is detached (never attached, or lost to a restart and not yet
// re-attached).
func (c *Client) Session() *core.Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess
}

// BootEpoch returns the authenticated server boot epoch recorded at the
// last successful attach.
func (c *Client) BootEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bootEpoch
}

// setLastRouterID records which router authenticated the session, and
// lastRouter reads it back; both sides of the handoff-latency judgment.
func (c *Client) setLastRouterID(id string) {
	c.mu.Lock()
	c.lastRouterID = id
	c.mu.Unlock()
}

func (c *Client) lastRouter() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastRouterID
}

// setSession records (or clears, with nil) the established session.
func (c *Client) setSession(s *core.Session, bootEpoch uint64) {
	c.mu.Lock()
	c.sess = s
	c.bootEpoch = bootEpoch
	c.mu.Unlock()
	c.stats.bootEpoch.Store(bootEpoch)
}

// Attach runs the full three-message AKA and returns the established
// session. It retransmits through datagram loss and fails with
// ErrHandshakeTimeout when the router stays silent.
func (c *Client) Attach(ctx context.Context) (*core.Session, error) {
	c.stats.attachAttempts.Add(1)
	attachStart := time.Now()

	// Phase 1: solicit the beacon (M.1).
	beacon, err := c.solicitBeacon(ctx)
	if err != nil {
		return nil, fmt.Errorf("solicit beacon: %w", err)
	}

	// Phase 1.5: converge revocation state onto what the beacon
	// advertises — a delta per list when the router still has one from our
	// epoch, a full snapshot otherwise — before any signing happens.
	if err := c.syncRevocations(ctx, beacon); err != nil {
		return nil, fmt.Errorf("revocation sync: %w", err)
	}

	// Phase 2: validate M.1, send M.2, await M.3.
	m2, err := c.user.HandleBeacon(beacon, c.cfg.Group)
	if err != nil {
		return nil, err
	}
	sid := core.NewSessionID(m2.GR, m2.GJ)
	var confirm *core.AccessConfirm
	handler := func(kind Kind, payload []byte) (bool, error) {
		switch kind {
		case KindAccessConfirm:
			m, err := core.UnmarshalAccessConfirm(payload)
			if err != nil {
				c.stats.decodeErrors.Add(1)
				return false, nil
			}
			if core.NewSessionID(m.GR, m.GJ) != sid {
				c.stats.unhandled.Add(1)
				return false, nil
			}
			confirm = m
			return true, nil
		case KindReject:
			rej, err := UnmarshalReject(payload)
			if err != nil {
				c.stats.decodeErrors.Add(1)
				return false, nil
			}
			if rej.Session != sid {
				c.stats.unhandled.Add(1)
				return false, nil
			}
			c.stats.rejects.Add(1)
			if rej.Code.Transient() {
				// Backpressure or graceful drain: stay in the retransmit
				// loop and let exchange re-arm its retry budget.
				return false, errTransientReject
			}
			if rej.Code == RejectPuzzle && rej.Puzzle != nil {
				// Defense engaged (or ratcheted) after our M.2 was built:
				// abort the exchange with the carried challenge; the attach
				// loop solves it and re-sends the same signed M.2.
				return false, &puzzleChallengeError{p: rej.Puzzle}
			}
			return false, fmt.Errorf("transport: router rejected request (%s): %w", rej.Reason, rej.Code.Err())
		case KindBeacon:
			// A retransmitted solicitation from phase 1 can still produce
			// late beacons; they are duplicates here.
			c.stats.duplicates.Add(1)
			return false, nil
		default:
			c.stats.unhandled.Add(1)
			return false, nil
		}
	}
	for tries := 0; ; tries++ {
		request, err := EncodeMessage(m2)
		if err != nil {
			return nil, err
		}
		err = c.exchange(ctx, request, handler)
		if err == nil {
			break
		}
		var pc *puzzleChallengeError
		if errors.As(err, &pc) && tries < maxPuzzleRetries {
			// The solution fields sit outside the group-signed transcript,
			// so the already-signed M.2 gains the fresh answer without
			// another signing pass; the session id is unchanged.
			sol, ok := c.solvePuzzle(pc.p)
			if !ok {
				return nil, fmt.Errorf("access request: %w: solve budget exhausted at difficulty %d",
					core.ErrPuzzleRequired, pc.p.Difficulty)
			}
			m2.HasSolution = true
			m2.Solution = sol
			m2.PuzzleIssuedAt = pc.p.IssuedAt
			m2.PuzzleDifficulty = pc.p.Difficulty
			continue
		}
		return nil, fmt.Errorf("access request: %w", err)
	}
	sess, err := c.user.HandleAccessConfirm(confirm)
	if err != nil {
		return nil, err
	}
	c.stats.attachSuccesses.Add(1)
	c.stats.attachLatency.Observe(time.Since(attachStart))
	// beacon.BootEpoch is authenticated: HandleBeacon verified the router
	// signature over it before M.2 was sent.
	c.setSession(sess, beacon.BootEpoch)
	c.setLastRouterID(beacon.RouterID)
	// Keep the confirm's ticket (with the locally derived resumption
	// secret) for the next re-attach. It arrives sealed under the new
	// session (Server.answerAccess); the STEK blob inside is opaque, and
	// useless to a forger: resuming requires the secret, which only the two
	// endpoints can derive.
	c.storeTicket(openFirstTicket(confirm.Ticket, sess), sess)
	return sess, nil
}

// openFirstTicket opens the ticket an M.3 carries, sealed under sess as
// its first data sequence number. It returns nil when there is none or it
// does not open; the client then holds no ticket and re-attaches in full.
func openFirstTicket(sealed []byte, sess *core.Session) []byte {
	if len(sealed) == 0 {
		return nil
	}
	blob, err := sess.OpenDataInto(&core.DataFrame{Session: sess.ID, Seq: 0, Encrypted: true, Payload: sealed}, nil)
	if err != nil {
		return nil
	}
	return blob
}

// solicitBeacon runs phase 1: broadcast-solicit M.1 and return the first
// well-formed beacon. The beacon is NOT yet authenticated — the caller
// must pass it through core.User.HandleBeacon or ObserveBeacon before
// trusting any field.
func (c *Client) solicitBeacon(ctx context.Context) (*core.Beacon, error) {
	solicit, err := EncodeMessage(&BeaconRequest{})
	if err != nil {
		return nil, err
	}
	var beacon *core.Beacon
	err = c.exchange(ctx, solicit, func(kind Kind, payload []byte) (bool, error) {
		if kind != KindBeacon {
			c.stats.unhandled.Add(1)
			return false, nil
		}
		b, err := core.UnmarshalBeacon(payload)
		if err != nil {
			c.stats.decodeErrors.Add(1)
			return false, nil
		}
		beacon = b
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return beacon, nil
}

// syncRevocations closes every gap between the user's installed
// revocation state and the beacon's advertised refs. Each round fetches
// at most one payload per gapped list; a delta whose chain no longer
// reaches our state downgrades to a full-snapshot fetch. Bounded rounds
// keep an equivocating router from wedging the handshake.
func (c *Client) syncRevocations(ctx context.Context, beacon *core.Beacon) error {
	const maxRounds = 4
	for round := 0; round < maxRounds; round++ {
		gaps := c.user.RevocationGaps(beacon)
		if len(gaps) == 0 {
			return nil
		}
		for _, g := range gaps {
			if err := c.fetchRevocation(ctx, FetchFor(g)); err != nil {
				return err
			}
		}
	}
	if gaps := c.user.RevocationGaps(beacon); len(gaps) > 0 {
		return fmt.Errorf("transport: revocation state still behind after %d rounds", maxRounds)
	}
	return nil
}

// fetchRevocation performs one fetch round-trip and applies the answer.
func (c *Client) fetchRevocation(ctx context.Context, f *RevocationFetch) error {
	req, err := EncodeMessage(f)
	if err != nil {
		return err
	}
	var applyErr error
	err = c.exchange(ctx, req, func(kind Kind, payload []byte) (bool, error) {
		switch kind {
		case KindURLUpdate, KindCRLUpdate:
			msg, err := DecodeMessage(kind, payload)
			if err != nil {
				c.stats.decodeErrors.Add(1)
				return false, nil
			}
			snap := msg.(*revocation.Snapshot)
			if snap.List != f.List {
				c.stats.unhandled.Add(1)
				return false, nil
			}
			c.stats.revSnapshotFetches.Add(1)
			applyErr = c.user.InstallRevocationSnapshot(snap)
			return true, nil
		case KindURLDelta:
			d, err := revocation.UnmarshalDelta(payload)
			if err != nil {
				c.stats.decodeErrors.Add(1)
				return false, nil
			}
			if d.List != f.List {
				c.stats.unhandled.Add(1)
				return false, nil
			}
			c.stats.revDeltaFetches.Add(1)
			applyErr = c.user.ApplyRevocationDelta(d)
			return true, nil
		case KindBeacon:
			// Late beacons from phase 1 retransmissions.
			c.stats.duplicates.Add(1)
			return false, nil
		default:
			c.stats.unhandled.Add(1)
			return false, nil
		}
	})
	if err != nil {
		return err
	}
	switch {
	case applyErr == nil:
	case errors.Is(applyErr, revocation.ErrEpochGap),
		errors.Is(applyErr, revocation.ErrDigestMismatch),
		errors.Is(applyErr, revocation.ErrNoSnapshot):
		// The delta chain does not reach our state: fall back to the full
		// snapshot (unless this already was a full fetch).
		if f.Have {
			return c.fetchRevocation(ctx, &RevocationFetch{List: f.List})
		}
		return applyErr
	case errors.Is(applyErr, revocation.ErrRollback):
		// Stale duplicate answer (e.g. a retransmitted older frame); our
		// state is already at or past it. Not an error.
	default:
		return applyErr
	}
	c.stats.setEpochs(c.user.RevocationEpoch(revocation.ListURL), c.user.RevocationEpoch(revocation.ListCRL))
	return nil
}

// exchange sends frame and reads datagrams until handle reports
// completion, retransmitting with jittered exponential backoff. handle
// returns (done, err): done finishes the phase, err aborts the handshake,
// (false, nil) keeps listening within the current timeout, and
// (false, errTransientReject) marks the round as backpressured — when the
// retry budget runs out with backpressure seen, the budget is re-armed up
// to QueueFullResets times instead of failing the attach.
func (c *Client) exchange(ctx context.Context, frame []byte, handle func(Kind, []byte) (bool, error)) error {
	timeout := c.cfg.RetransmitTimeout
	resets := c.cfg.QueueFullResets
	sawTransient := false
	raddr := c.RouterAddr()
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.stats.retransmits.Add(1)
		}
		if err := c.send(frame); err != nil {
			return err
		}
		deadline := time.Now().Add(c.jittered(timeout))
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := c.conn.SetReadDeadline(deadline); err != nil {
				return err
			}
			n, from, err := c.conn.ReadFrom(c.buf)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					if cerr := ctx.Err(); cerr != nil {
						return cerr
					}
					break // retransmit
				}
				return err
			}
			c.stats.bytesIn.Add(int64(n))
			if !batchio.SameAddr(from, raddr) {
				c.stats.unhandled.Add(1)
				continue
			}
			kind, payload, derr := DecodeFrame(c.buf[:n])
			if derr != nil {
				c.stats.decodeErrors.Add(1)
				continue
			}
			c.stats.framesIn.Add(1)
			done, herr := handle(kind, payload)
			if errors.Is(herr, errTransientReject) {
				sawTransient = true
				continue
			}
			if herr != nil {
				return herr
			}
			if done {
				return nil
			}
		}
		timeout *= backoffFactor
		if timeout > c.cfg.MaxTimeout {
			timeout = c.cfg.MaxTimeout
		}
		if attempt == c.cfg.MaxRetries && sawTransient && resets > 0 {
			// The router is alive but shedding load; giving up now would
			// turn backpressure into failure. Re-arm the budget (bounded).
			resets--
			sawTransient = false
			attempt = -1
		}
	}
	c.stats.timeouts.Add(1)
	return ErrHandshakeTimeout
}

// jittered spreads d uniformly over [1-jitter, 1+jitter] of its value so
// synchronized clients de-correlate their retransmissions.
func (c *Client) jittered(d time.Duration) time.Duration {
	f := 1 - jitter + 2*jitter*c.rng.Float64()
	return time.Duration(float64(d) * f)
}

func (c *Client) send(frame []byte) error {
	n, err := c.conn.WriteTo(frame, c.RouterAddr())
	if err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	c.stats.framesOut.Add(1)
	c.stats.bytesOut.Add(int64(n))
	return nil
}

// SendData seals payload under the established session and sends it to
// the current router as a fire-and-forget data frame.
func (c *Client) SendData(payload []byte) error {
	return c.SendDataVia(c.RouterAddr(), payload)
}

// SendDataVia seals payload under the established session and sends the
// frame to raddr — which need not be the current router. The metro
// harness uses this to model in-flight frames still arriving at the old
// AP right after a roaming handoff: the old router forwards them across
// the backbone during the grace window.
func (c *Client) SendDataVia(raddr net.Addr, payload []byte) error {
	sess := c.Session()
	if sess == nil {
		return core.ErrNoSession
	}
	// Seal in place behind the frame header: the sealed size is
	// deterministic, so the whole datagram is built in one reused buffer
	// (same wire format as EncodeMessage(&SessionData{...})).
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	buf, err := AppendFrameHeader(c.sendBuf[:0], KindSessionData, core.SealedDataLen(len(payload)))
	if err != nil {
		return err
	}
	if buf, err = sess.AppendSealedData(buf, payload); err != nil {
		return fmt.Errorf("transport: seal data: %w", err)
	}
	c.sendBuf = buf[:0]
	n, err := c.conn.WriteTo(buf, raddr)
	if err != nil {
		return fmt.Errorf("transport: send data: %w", err)
	}
	c.stats.framesOut.Add(1)
	c.stats.bytesOut.Add(int64(n))
	return nil
}
