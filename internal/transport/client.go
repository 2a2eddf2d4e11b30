package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
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
	// queueFullResets is how many times an exchange's whole retry budget
	// is re-armed after the router signalled transient backpressure
	// (queue-full or draining): those rejections mean "come back soon",
	// not "give up".
	queueFullResets = 3
	// maxPuzzleRetries bounds how many times one exchange re-sends its
	// request with a freshly solved puzzle before giving up (the demanded
	// difficulty can ratchet between tries).
	maxPuzzleRetries = 2
	// puzzleSolveBudget caps the hash evaluations one puzzle solve may
	// spend before the attach fails with core.ErrPuzzleRequired — the
	// client-side guard against a hostile or runaway difficulty. 2^24
	// covers difficulty ≤ ~22 with headroom.
	puzzleSolveBudget = 1 << 24
)

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
	// Seed makes the jitter stream reproducible. Zero draws a random
	// seed.
	Seed int64
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
	if c.Seed == 0 {
		c.Seed = rand.Int63()
	}
	return c
}

// Client drives one user through the M.1–M.3 AKA, ticket resumes and
// keepalives against a router address. Each is a phase of steps that
// read no clock and touch no socket; drive runs them over the socket.
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

	// resume is the one ticket resume run, reset by each Resume: like
	// buf, it belongs to the goroutine that drives the client.
	resume resumeRun
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
// recording the solve latency on the user's clock.
func (c *Client) solvePuzzle(p *puzzle.Puzzle) (uint64, bool) {
	start := c.user.Now()
	sol, _, ok := p.SolveFrom(c.rng.Uint64(), puzzleSolveBudget)
	if ok {
		c.stats.dosSolveLatency.Observe(c.user.Now().Sub(start))
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
// ownership on the backbone. It is safe while Maintain runs: the driver
// reads the address afresh for every datagram it sends or takes.
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

// setSession records (or clears, with nil) the established session and,
// unless routerID is empty, the router that authenticated it. It returns
// the router recorded before: both sides of the handoff-latency judgment.
func (c *Client) setSession(s *core.Session, bootEpoch uint64, routerID string) (prev string) {
	c.mu.Lock()
	c.sess, c.bootEpoch, prev = s, bootEpoch, c.lastRouterID
	if routerID != "" {
		c.lastRouterID = routerID
	}
	c.mu.Unlock()
	c.stats.bootEpoch.Store(bootEpoch)
	return prev
}

// step is what one step of a phase asks of its driver: a frame to send
// now (or nil), when to expire if nothing comes first, and whether the
// phase is over, with err or not.
type step struct {
	send     []byte
	deadline time.Time
	done     bool
	err      error
}

// fail ends a phase with err.
func fail(err error) step { return step{done: true, err: err} }

// end ends a chain as its last phase ended.
func end(_ time.Time, err error) step { return fail(err) }

// phase is a piece of the client as a state machine: start begins it,
// recv takes a frame from the router, expire runs once the last step's
// deadline has come (early calls are harmless). None reads a clock or
// touches a socket, so a test steps a phase against the router's
// dispatch with neither.
type phase interface {
	start(now time.Time) step
	recv(now time.Time, kind Kind, payload []byte) step
	expire(now time.Time) step
}

// drop counts a frame an exchange does not take.
func drop(m *metrics.Counter) bool {
	m.Add(1)
	return false
}

// exchange is one request–reply phase: the frame in flight, its
// matcher and the retransmit state. It retransmits with jittered
// exponential backoff MaxRetries times, a transient reject re-arming
// that budget (queueFullResets times); a puzzle demand is solved and the
// request re-framed (maxPuzzleRetries times); any other reject for it
// ends it.
type exchange struct {
	c     *Client
	frame []byte
	// sid is the id the router's rejects of the request carry (an M.2's
	// or a ping's session, a resume's dedup id); zero sends rejects to
	// accept, which takes every other frame and counts what it refuses.
	sid    core.SessionID
	accept func(now time.Time, kind Kind, payload []byte) bool
	// solved re-frames the request (frame, sid) with a demanded puzzle's
	// solution; nil makes the demand final.
	solved func(now time.Time, p *puzzle.Puzzle, sol uint64) error
	// once, when set, sends the frame once and waits this long.
	once time.Duration

	timeout      time.Duration // the retransmit timeout before jitter
	attempt      int           // retransmissions in the current budget
	resets       int           // budget re-arms left
	puzzles      int           // puzzles solved
	sawTransient bool          // a transient reject came in this budget
	deadline     time.Time
}

func (x *exchange) start(now time.Time) step {
	x.timeout, x.attempt, x.resets, x.sawTransient = x.c.cfg.RetransmitTimeout, 0, queueFullResets, false
	return x.arm(now)
}

// arm sends the frame and waits one timeout for the answer.
func (x *exchange) arm(now time.Time) step {
	x.deadline = now.Add(x.once)
	if x.once == 0 {
		x.deadline = now.Add(x.c.jittered(x.timeout))
	}
	return step{send: x.frame, deadline: x.deadline}
}

func (x *exchange) wait() step { return step{deadline: x.deadline} }

func (x *exchange) recv(now time.Time, kind Kind, payload []byte) step {
	return x.answer(now, kind, payload, x.accept, x.solved)
}

// answer is recv with the two hooks passed in: a phase that embeds its
// exchange (resumeRun) hands over its own methods here rather than storing
// them in the hooks, which would put two method values on the heap per
// run.
func (x *exchange) answer(now time.Time, kind Kind, payload []byte,
	accept func(now time.Time, kind Kind, payload []byte) bool,
	solved func(now time.Time, p *puzzle.Puzzle, sol uint64) error) step {
	if kind != KindReject || x.sid == (core.SessionID{}) {
		if accept(now, kind, payload) {
			return step{done: true}
		}
		return x.wait()
	}
	rej, err := UnmarshalReject(payload)
	switch {
	case err != nil:
		drop(x.c.stats.decodeErrors)
		return x.wait()
	case rej.Session != x.sid:
		drop(x.c.stats.unhandled)
		return x.wait()
	}
	x.c.stats.rejects.Add(1)
	switch p := rej.Puzzle; {
	case rej.Code.Transient():
		// Backpressure or graceful drain: expire may re-arm the budget.
		x.sawTransient = true
		return x.wait()
	case rej.Code == RejectPuzzle && p != nil && solved != nil && x.puzzles < maxPuzzleRetries:
		// Defense engaged after the request was built: solve, re-frame and
		// start over, the fresh budget counted from the end of the solve.
		x.puzzles++
		sol, ok := x.c.solvePuzzle(p)
		if !ok {
			return fail(fmt.Errorf("%w: solve budget exhausted at difficulty %d", core.ErrPuzzleRequired, p.Difficulty))
		}
		now = x.c.user.Now()
		if err := solved(now, p, sol); err != nil {
			return fail(err)
		}
		return x.start(now)
	}
	return fail(fmt.Errorf("transport: router rejected the request (%s): %w", rej.Reason, rej.Code.Err()))
}

func (x *exchange) expire(now time.Time) step {
	if now.Before(x.deadline) {
		return x.wait()
	}
	if x.once > 0 {
		return fail(ErrHandshakeTimeout)
	}
	x.timeout = min(x.timeout*backoffFactor, x.c.cfg.MaxTimeout)
	switch {
	case x.attempt < x.c.cfg.MaxRetries:
		x.attempt++
		x.c.stats.retransmits.Add(1)
	case x.sawTransient && x.resets > 0:
		// The router is alive but shedding load; giving up now would turn
		// backpressure into failure. Re-arm the budget (bounded).
		x.resets--
		x.sawTransient, x.attempt = false, 0
	default:
		x.c.stats.timeouts.Add(1)
		return fail(ErrHandshakeTimeout)
	}
	return x.arm(now)
}

// jittered spreads d uniformly over [1-jitter, 1+jitter] of its value so
// synchronized clients de-correlate their retransmissions.
func (c *Client) jittered(d time.Duration) time.Duration {
	f := 1 - jitter + 2*jitter*c.rng.Float64()
	return time.Duration(float64(d) * f)
}

// chain runs phases one after another from first: x is the one in
// flight, then what follows it — the next phase's start, or the end —
// and by, when set, the instant x is cut off at with
// context.DeadlineExceeded.
type chain struct {
	first func(now time.Time) step
	x     phase
	then  func(now time.Time, err error) step
	by    time.Time
}

func (ch *chain) start(now time.Time) step { return ch.first(now) }

func (ch *chain) recv(now time.Time, kind Kind, payload []byte) step {
	return ch.follow(now, ch.x.recv(now, kind, payload))
}

func (ch *chain) expire(now time.Time) step {
	if !ch.by.IsZero() && !now.Before(ch.by) {
		return ch.then(now, context.DeadlineExceeded)
	}
	return ch.follow(now, ch.x.expire(now))
}

// run starts x with then to follow it; runBy also cuts x off at by.
func (ch *chain) run(now time.Time, x phase, then func(now time.Time, err error) step) step {
	return ch.runBy(now, time.Time{}, x, then)
}

func (ch *chain) runBy(now, by time.Time, x phase, then func(now time.Time, err error) step) step {
	ch.x, ch.then, ch.by = x, then, by
	return ch.follow(now, x.start(now))
}

// follow passes x's step on or, once x is over, runs what follows it.
func (ch *chain) follow(now time.Time, st step) step {
	if st.done {
		return ch.then(now, st.err)
	}
	if !ch.by.IsZero() && st.deadline.After(ch.by) {
		st.deadline = ch.by
	}
	return st
}

// drive runs p to its end. It is the one place the client reads the wall
// clock, sets read deadlines, reads and writes its socket and looks up
// the router's address. Protocol time is the user's clock; a step's
// deadline becomes a socket deadline by the time left to it, or ctx's
// deadline when that comes first. A run ends with ctx's error once ctx
// is done; a cancel without a deadline is seen at the next read
// deadline unless something wakes the read (Maintain does).
func (c *Client) drive(ctx context.Context, p phase) error {
	st := p.start(c.user.Now())
	for {
		if st.send != nil {
			if err := c.send(st.send); err != nil {
				return err
			}
			st.send = nil
		}
		if st.done {
			return st.err
		}
		wall := time.Now().Add(st.deadline.Sub(c.user.Now()))
		if d, ok := ctx.Deadline(); ok && d.Before(wall) {
			wall = d
		}
		if err := c.conn.SetReadDeadline(wall); err != nil {
			return err
		}
		// Checked after the deadline is set, so a wake-up that lands
		// later (Maintain's) is not overwritten.
		if err := ctx.Err(); err != nil {
			return err
		}
		n, from, err := c.conn.ReadFrom(c.buf)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				return err
			}
			st = p.expire(c.user.Now())
			continue
		}
		if kind, payload, ok := c.frameFrom(from, c.buf[:n]); ok {
			st = p.recv(c.user.Now(), kind, payload)
		}
	}
}

// frameFrom admits one datagram to the running phase: only a well-formed
// frame from the current router gets through; a stray source or an
// undecodable frame is counted and changes nothing.
func (c *Client) frameFrom(from net.Addr, datagram []byte) (Kind, []byte, bool) {
	c.stats.bytesIn.Add(int64(len(datagram)))
	if !batchio.SameAddr(from, c.RouterAddr()) {
		return 0, nil, drop(c.stats.unhandled)
	}
	kind, payload, err := DecodeFrame(datagram)
	if err != nil {
		return 0, nil, drop(c.stats.decodeErrors)
	}
	c.stats.framesIn.Add(1)
	return kind, payload, true
}

func (c *Client) send(frame []byte) error { return c.sendTo(frame, c.RouterAddr()) }

func (c *Client) sendTo(frame []byte, raddr net.Addr) error {
	n, err := c.conn.WriteTo(frame, raddr)
	if err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	c.stats.framesOut.Add(1)
	c.stats.bytesOut.Add(int64(n))
	return nil
}

// Attach runs the full three-message AKA and returns the established
// session. It retransmits through datagram loss and fails with
// ErrHandshakeTimeout when the router stays silent.
func (c *Client) Attach(ctx context.Context) (*core.Session, error) {
	a := &attachRun{c: c}
	if err := c.drive(ctx, a); err != nil {
		return nil, err
	}
	return a.sess, nil
}

// attachRun is the full AKA as a chain of exchanges: solicit the beacon
// (M.1), converge the revocation state it advertises, M.2→M.3.
type attachRun struct {
	chain
	c      *Client
	began  time.Time
	beacon *core.Beacon
	// fetches are the revocation fetches left in the current sync round;
	// rounds counts the rounds begun.
	fetches []*RevocationFetch
	rounds  int
	sess    *core.Session
}

// maxSyncRounds bounds the revocation sync, so an equivocating router
// cannot wedge the handshake.
const maxSyncRounds = 4

// start runs phase 1: broadcast-solicit M.1.
func (a *attachRun) start(now time.Time) step {
	a.began = now
	a.c.stats.attachAttempts.Add(1)
	return a.run(now, a.c.solicit(&a.beacon), func(now time.Time, err error) step {
		if err != nil {
			return fail(fmt.Errorf("solicit beacon: %w", err))
		}
		return a.sync(now)
	})
}

var beaconSolicit, _ = EncodeFrame(KindBeaconRequest, nil)

// solicit is the exchange that solicits M.1 and leaves the first
// well-formed beacon in *out. The beacon is NOT yet authenticated — the
// caller must pass it through core.User.HandleBeacon or ObserveBeacon
// before trusting any field.
func (c *Client) solicit(out **core.Beacon) *exchange {
	return &exchange{c: c, frame: beaconSolicit, accept: func(_ time.Time, kind Kind, payload []byte) bool {
		if kind != KindBeacon {
			return drop(c.stats.unhandled)
		}
		b, err := core.UnmarshalBeacon(payload)
		if err != nil {
			return drop(c.stats.decodeErrors)
		}
		*out = b
		return true
	}}
}

// sync runs phase 1.5: close every gap between the user's installed
// revocation state and the beacon's advertised refs before any signing
// happens. Each round fetches at most one payload per gapped list; a
// delta whose chain no longer reaches our state downgrades to a
// full-snapshot fetch.
func (a *attachRun) sync(now time.Time) step {
	c := a.c
	if len(a.fetches) == 0 {
		gaps := c.user.RevocationGaps(a.beacon)
		switch {
		case len(gaps) == 0:
			return a.request(now)
		case a.rounds == maxSyncRounds:
			return fail(fmt.Errorf("revocation sync: transport: revocation state still behind after %d rounds", maxSyncRounds))
		}
		a.rounds++
		for _, g := range gaps {
			a.fetches = append(a.fetches, FetchFor(g))
		}
	}
	f := a.fetches[0]
	a.fetches = a.fetches[1:]
	frame, err := EncodeMessage(f)
	if err != nil {
		return fail(err)
	}
	var applied error
	x := &exchange{c: c, frame: frame, accept: func(_ time.Time, kind Kind, payload []byte) bool {
		switch kind {
		case KindURLUpdate, KindCRLUpdate, KindURLDelta:
		case KindBeacon:
			// Late beacons from phase 1 retransmissions.
			return drop(c.stats.duplicates)
		default:
			return drop(c.stats.unhandled)
		}
		msg, err := DecodeMessage(kind, payload)
		if err != nil {
			return drop(c.stats.decodeErrors)
		}
		switch m := msg.(type) {
		case *revocation.Snapshot:
			if m.List != f.List {
				return drop(c.stats.unhandled)
			}
			c.stats.revSnapshotFetches.Add(1)
			applied = c.user.InstallRevocationSnapshot(m)
		case *revocation.Delta:
			if m.List != f.List {
				return drop(c.stats.unhandled)
			}
			c.stats.revDeltaFetches.Add(1)
			applied = c.user.ApplyRevocationDelta(m)
		}
		return true
	}}
	return a.run(now, x, func(now time.Time, err error) step {
		if err == nil {
			err = a.applied(f, applied)
		}
		if err != nil {
			return fail(fmt.Errorf("revocation sync: %w", err))
		}
		return a.sync(now)
	})
}

// applied judges what installing fetch f's answer returned.
func (a *attachRun) applied(f *RevocationFetch, err error) error {
	switch {
	case err == nil:
	case errors.Is(err, revocation.ErrEpochGap),
		errors.Is(err, revocation.ErrDigestMismatch),
		errors.Is(err, revocation.ErrNoSnapshot):
		// The delta chain does not reach our state: fall back to the full
		// snapshot (unless this already was a full fetch).
		if !f.Have {
			return err
		}
		a.fetches = append([]*RevocationFetch{{List: f.List}}, a.fetches...)
		return nil
	case errors.Is(err, revocation.ErrRollback):
		// Stale duplicate answer (e.g. a retransmitted older frame); our
		// state is already at or past it. Not an error.
	default:
		return err
	}
	a.c.stats.setEpochs(a.c.user.RevocationEpoch(revocation.ListURL), a.c.user.RevocationEpoch(revocation.ListCRL))
	return nil
}

// request runs phase 2: validate M.1, send M.2, await M.3.
func (a *attachRun) request(now time.Time) step {
	c := a.c
	m2, err := c.user.HandleBeacon(a.beacon, c.cfg.Group)
	if err != nil {
		return fail(err)
	}
	frame, err := EncodeMessage(m2)
	if err != nil {
		return fail(err)
	}
	var confirm *core.AccessConfirm
	x := &exchange{c: c, frame: frame, sid: core.NewSessionID(m2.GR, m2.GJ)}
	x.accept = func(_ time.Time, kind Kind, payload []byte) bool {
		switch kind {
		case KindAccessConfirm:
			m, err := core.UnmarshalAccessConfirm(payload)
			if err != nil {
				return drop(c.stats.decodeErrors)
			}
			if core.NewSessionID(m.GR, m.GJ) != x.sid {
				return drop(c.stats.unhandled)
			}
			confirm = m
			return true
		case KindBeacon:
			// A retransmitted solicitation from phase 1 can still produce
			// late beacons; they are duplicates here.
			return drop(c.stats.duplicates)
		}
		return drop(c.stats.unhandled)
	}
	x.solved = func(_ time.Time, p *puzzle.Puzzle, sol uint64) (err error) {
		// The solution fields sit outside the group-signed transcript, so
		// the already-signed M.2 gains the answer without another signing
		// pass; the session id is unchanged.
		m2.HasSolution, m2.Solution = true, sol
		m2.PuzzleIssuedAt, m2.PuzzleDifficulty = p.IssuedAt, p.Difficulty
		x.frame, err = EncodeMessage(m2)
		return err
	}
	return a.run(now, x, func(now time.Time, err error) step {
		if err != nil {
			return fail(fmt.Errorf("access request: %w", err))
		}
		return a.established(now, confirm)
	})
}

// established completes the AKA on M.3.
func (a *attachRun) established(now time.Time, confirm *core.AccessConfirm) step {
	c := a.c
	sess, err := c.user.HandleAccessConfirm(confirm)
	if err != nil {
		return fail(err)
	}
	c.stats.attachSuccesses.Add(1)
	c.stats.attachLatency.Observe(now.Sub(a.began))
	// beacon.BootEpoch is authenticated: HandleBeacon verified the router
	// signature over it before M.2 was sent.
	c.setSession(sess, a.beacon.BootEpoch, a.beacon.RouterID)
	// Keep the confirm's ticket (with the locally derived resumption
	// secret) for the next re-attach. It arrives sealed under the new
	// session (Server.answerAccess); the STEK blob inside is opaque, and
	// useless to a forger: resuming requires the secret, which only the two
	// endpoints can derive.
	c.storeTicket(openFirstTicket(confirm.Ticket, sess), sess)
	a.sess = sess
	return step{done: true}
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
	// deterministic, so the whole datagram is built in one reused buffer.
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
	return c.sendTo(buf, raddr)
}
