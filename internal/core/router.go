package core

import (
	"fmt"
	"io"
	"math/big"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/cert"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/sgs"
	"github.com/peace-mesh/peace/internal/wire"
)

// RouterStats counts what a router has processed; the DoS experiments
// (E6) read these to show how puzzles shed bogus load cheaply.
type RouterStats struct {
	BeaconsSent            int
	RequestsSeen           int
	RejectedPuzzle         int // shed before any pairing work
	RejectedAuth           int // failed group-signature verification
	RejectedRevoked        int
	RejectedStale          int
	SessionsEstablished    int
	SessionsResumed        int // established via ticket resumption, no pairing
	ExpensiveVerifications int // group-signature verifications performed
}

// routerCounters is the live, lock-free form of RouterStats: registry
// counter handles, resolved once at construction, so the sharded ingest
// loops never serialize on a stats mutex and the meshd /metrics endpoint
// reads the same numbers the experiments judge. The registry belongs to
// the router (not the serving transport) so counts survive transport
// restarts — the restart soaks account pairings across incarnations.
type routerCounters struct {
	beaconsSent            *metrics.Counter
	requestsSeen           *metrics.Counter
	rejectedPuzzle         *metrics.Counter
	rejectedAuth           *metrics.Counter
	rejectedRevoked        *metrics.Counter
	rejectedStale          *metrics.Counter
	sessionsEstablished    *metrics.Counter
	sessionsResumed        *metrics.Counter
	expensiveVerifications *metrics.Counter
	dosFailures            *metrics.Counter
}

func newRouterCounters(reg *metrics.Registry) routerCounters {
	return routerCounters{
		beaconsSent:            reg.Counter("router_beacons_sent", "signed beacons produced"),
		requestsSeen:           reg.Counter("router_requests_seen", "access requests entering precheck"),
		rejectedPuzzle:         reg.Counter("router_rejected_puzzle", "requests shed by the client puzzle before any pairing work"),
		rejectedAuth:           reg.Counter("router_rejected_auth", "requests that failed group-signature verification"),
		rejectedRevoked:        reg.Counter("router_rejected_revoked", "requests whose signer token is on the URL"),
		rejectedStale:          reg.Counter("router_rejected_stale", "requests against expired or unknown beacons"),
		sessionsEstablished:    reg.Counter("router_sessions_established", "sessions established via the full AKA"),
		sessionsResumed:        reg.Counter("router_sessions_resumed", "sessions established via ticket resumption, no pairing"),
		expensiveVerifications: reg.Counter("router_expensive_verifications", "group-signature verifications performed"),
		dosFailures:            reg.Counter("router_dos_failures", "failed or malformed handshakes recorded as DoS evidence"),
	}
}

func (c *routerCounters) snapshot() RouterStats {
	return RouterStats{
		BeaconsSent:            int(c.beaconsSent.Load()),
		RequestsSeen:           int(c.requestsSeen.Load()),
		RejectedPuzzle:         int(c.rejectedPuzzle.Load()),
		RejectedAuth:           int(c.rejectedAuth.Load()),
		RejectedRevoked:        int(c.rejectedRevoked.Load()),
		RejectedStale:          int(c.rejectedStale.Load()),
		SessionsEstablished:    int(c.sessionsEstablished.Load()),
		SessionsResumed:        int(c.sessionsResumed.Load()),
		ExpensiveVerifications: int(c.expensiveVerifications.Load()),
	}
}

// routerStages times the stages an M.2 passes on its way to M.3, one
// histogram per stage, so the share of each in an attach is readable from
// the running router (the attach ledger in bench/ sees them only from
// outside). They are aggregates: no session, user or source labels them.
type routerStages struct {
	ingestWait *metrics.Histogram
	verify     *metrics.Histogram
	groupSize  *metrics.Histogram
	sweepSetup *metrics.Histogram
	sweep      *metrics.Histogram
	establish  *metrics.Histogram
}

func newRouterStages(reg *metrics.Registry) routerStages {
	return routerStages{
		ingestWait: reg.Histogram("router_ingest_wait_seconds", "time an access request waited in the ingest queue before a drainer took it"),
		verify:     reg.Histogram("router_verify_seconds", "group-signature verification (Eq.2) of one group of access requests"),
		groupSize:  reg.Histogram("router_verify_group_size", "signatures verified side by side in one group, one unit per signature (1: the scalar path; 2 to 8: one lane pass)"),
		sweepSetup: reg.Histogram("router_sweep_setup_seconds", "revocation scan set-up (each signature's û, v̂ and Miller product) of one group's verified access requests"),
		sweep:      reg.Histogram("router_sweep_seconds", "URL revocation scan (Eq.3) token passes of one verified access request"),
		establish:  reg.Histogram("router_establish_seconds", "session key computation and M.3 sealing of one admitted access request"),
	}
}

// stopwatch times consecutive stages on the router's clock.
type stopwatch struct {
	clock Clock
	last  time.Time
}

// lap records in h the time since the previous lap (or since start).
func (s *stopwatch) lap(h *metrics.Histogram) {
	now := s.clock.Now()
	h.Observe(now.Sub(s.last))
	s.last = now
}

// MeshRouter is a PEACE mesh router MR_k: it broadcasts signed beacons
// (M.1), answers access requests (M.2 → M.3), and maintains the sessions
// of attached users. Routers receive epoch-numbered CRL/URL snapshot and
// delta updates from the operator over the pre-established secure channel
// (modeled as direct calls) and serve them to attaching users.
type MeshRouter struct {
	cfg     Config
	id      string
	keyPair *cert.KeyPair
	cert    *cert.Certificate
	noPub   cert.PublicKey

	// urlStore / crlStore hold the installed revocation snapshots plus the
	// bounded per-epoch delta cache served to attaching users. They keep
	// their own locks; never hold r.mu across their methods.
	urlStore *revocation.Store
	crlStore *revocation.Store

	mu sync.Mutex
	// bootEpoch is the random nonce advertised in every beacon so attached
	// users can detect a restart (it changes whenever the volatile session
	// state is lost). Zero until the serving transport installs one.
	bootEpoch uint64
	// sweep is the epoch-keyed revocation sweep cache (shared verifier,
	// the epoch's tokens packed for the scan). Guarded by mu because group-key
	// rotation replaces it wholesale; the state itself is concurrency-safe.
	sweep       *sgs.SweepState
	outstanding map[string]*beaconState // keyed by marshaled g^{r_R}
	dosDefense  bool
	// dosMonitor, when installed, toggles dosDefense automatically from
	// the observed failure rate (Section V.A's "suspected attack").
	dosMonitor *dosMonitor
	// puzzleKey derives the seeds of stateless client puzzles for this
	// incarnation; echoed solutions are re-derived and verified with one
	// HMAC plus one hash, no per-puzzle state. Redrawn on Reboot, so a
	// restart orphans outstanding puzzles along with the sessions.
	puzzleKey [32]byte

	// sessions and sessionLog are stripe-locked: the sharded transport
	// loops hit them concurrently for every keepalive and resume, so they
	// must not funnel through r.mu. sessionLog is the paper's "network log
	// file": the authentication transcript (M.2) behind every established
	// session, kept as its wire bytes so the operator can audit a disputed
	// session later. Only the audit decodes an entry (LoggedAccessRequest).
	sessions   *shardedMap[*Session]
	sessionLog *shardedMap[[]byte]

	// metrics is the router-owned registry behind stats, the stage
	// histograms and the session / ingest-queue gauges; it outlives any
	// serving transport.
	metrics *metrics.Registry
	stats   routerCounters
	stages  routerStages

	// onSweepSetup, when a test sets it, is told what each group's
	// revocation set-up ran, and onDHPass what each group's key pass was
	// given (the requests' g^{r_j}) and the keys it returned.
	onSweepSetup func(sgs.OpCounts)
	onDHPass     func(gjs, keys []*bn256.G1)
}

// beaconState remembers the secrets behind one broadcast beacon. Puzzles
// are deliberately not part of it: they are stateless (see dospuzzle.go),
// so a solution can answer any sufficiently fresh challenge — the one in
// the beacon the client holds, or the one a RejectPuzzle reply carried.
type beaconState struct {
	g       *bn256.G1
	gr      *bn256.G1
	rR      *big.Int
	sentAt  time.Time
	expired bool
}

// NewMeshRouter creates a router with a fresh key pair. The certificate
// must be obtained from the operator via EnrollRouter and installed with
// SetCertificate, after which beacons can be produced.
func NewMeshRouter(cfg Config, id string, noPub cert.PublicKey, gpk *sgs.PublicKey) (*MeshRouter, error) {
	cfg = cfg.withDefaults()
	kp, err := cert.GenerateKeyPair(cfg.Rand)
	if err != nil {
		return nil, fmt.Errorf("router %q: %w", id, err)
	}
	urlStore, err := revocation.NewStore(revocation.ListURL, noPub)
	if err != nil {
		return nil, fmt.Errorf("router %q: %w", id, err)
	}
	crlStore, err := revocation.NewStore(revocation.ListCRL, noPub)
	if err != nil {
		return nil, fmt.Errorf("router %q: %w", id, err)
	}
	reg := metrics.NewRegistry()
	r := &MeshRouter{
		cfg:         cfg,
		id:          id,
		keyPair:     kp,
		noPub:       noPub,
		urlStore:    urlStore,
		crlStore:    crlStore,
		sweep:       sgs.NewSweepState(gpk),
		outstanding: make(map[string]*beaconState),
		sessions:    newShardedMap[*Session](),
		sessionLog:  newShardedMap[[]byte](),
		metrics:     reg,
		stats:       newRouterCounters(reg),
		stages:      newRouterStages(reg),
	}
	if _, err := io.ReadFull(cfg.Rand, r.puzzleKey[:]); err != nil {
		return nil, fmt.Errorf("router %q: puzzle key: %w", id, err)
	}
	reg.GaugeFunc("router_sessions", "sessions currently held", func() int64 {
		return int64(r.sessions.len())
	})
	reg.GaugeFunc("router_session_log", "audit transcripts currently held", func() int64 {
		return int64(r.sessionLog.len())
	})
	return r, nil
}

// Metrics returns the router-owned registry, so the serving daemon can
// expose the core counters next to the transport's.
func (r *MeshRouter) Metrics() *metrics.Registry { return r.metrics }

// ID returns the router identifier MR_k.
func (r *MeshRouter) ID() string { return r.id }

// Now reads the router's clock, the protocol time of everything serving
// it: ticket issue and expiry, resume freshness, beacon refresh and the
// ingress rate limit.
func (r *MeshRouter) Now() time.Time { return r.cfg.Clock.Now() }

// FreshnessWindow is the bound on |now − ts| the router accepts on
// timestamped requests, resumes included.
func (r *MeshRouter) FreshnessWindow() time.Duration { return r.cfg.FreshnessWindow }

// Public returns RPK_k for certificate enrollment.
func (r *MeshRouter) Public() cert.PublicKey { return r.keyPair.Public() }

// SetCertificate installs the operator-issued certificate.
func (r *MeshRouter) SetCertificate(c *cert.Certificate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cert = c
}

// UpdateRevocations installs fresh CRL/URL bundles (the periodic secure
// channel from the operator). Installation is epoch-monotonic: a bundle
// carrying an older epoch — or a same-epoch snapshot re-issued with an
// earlier IssuedAt — is refused with revocation.ErrRollback and leaves
// the installed state untouched. Either bundle may be nil to update just
// one list. On a URL change the revocation sweep cache is re-keyed to the
// new epoch.
func (r *MeshRouter) UpdateRevocations(crl, url *revocation.Bundle) error {
	now := r.cfg.Clock.Now()
	if crl != nil {
		if err := r.crlStore.InstallBundle(crl, now); err != nil {
			return fmt.Errorf("router %q: crl update: %w", r.id, err)
		}
	}
	if url != nil {
		if err := r.urlStore.InstallBundle(url, now); err != nil {
			return fmt.Errorf("router %q: url update: %w", r.id, err)
		}
		if err := r.refreshSweep(); err != nil {
			return fmt.Errorf("router %q: url update: %w", r.id, err)
		}
	}
	return nil
}

// refreshSweep re-keys the sweep cache from the currently installed URL
// snapshot.
func (r *MeshRouter) refreshSweep() error {
	snap, ok := r.urlStore.Current()
	if !ok {
		return nil
	}
	tokens, err := parseURLTokens(snap)
	if err != nil {
		return err
	}
	r.sweepState().Update(snap.Epoch, tokens)
	return nil
}

// sweepState returns the current sweep cache (rotation swaps it).
func (r *MeshRouter) sweepState() *sgs.SweepState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sweep
}

// RevocationSnapshot returns the installed snapshot for one list, for
// serving full-state fetches to attaching users.
func (r *MeshRouter) RevocationSnapshot(l revocation.List) (*revocation.Snapshot, bool) {
	return r.store(l).Current()
}

// RevocationDelta returns the cached delta from fromEpoch to the current
// epoch of one list, if the operator's bounded history still covers it.
func (r *MeshRouter) RevocationDelta(l revocation.List, fromEpoch uint64) (*revocation.Delta, bool) {
	return r.store(l).DeltaFrom(fromEpoch)
}

// RevocationEpoch returns the installed epoch of one list (0 when nothing
// is installed yet).
func (r *MeshRouter) RevocationEpoch(l revocation.List) uint64 {
	return r.store(l).Epoch()
}

func (r *MeshRouter) store(l revocation.List) *revocation.Store {
	if l == revocation.ListCRL {
		return r.crlStore
	}
	return r.urlStore
}

// SetBootEpoch installs the boot-epoch nonce advertised in beacons. The
// serving transport draws a fresh random nonce per process start.
func (r *MeshRouter) SetBootEpoch(epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bootEpoch = epoch
}

// BootEpoch returns the advertised boot-epoch nonce.
func (r *MeshRouter) BootEpoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bootEpoch
}

// Reboot models a router process restart: all volatile state — live
// sessions, the audit log behind them, and outstanding beacon DH secrets —
// is lost, while durable state (key pair, certificate, installed
// revocation snapshots, group public key) survives as it would on disk.
// Attached users are silently orphaned until they detect the new boot
// epoch and re-attach; counters survive so a soak can account across the
// restart.
func (r *MeshRouter) Reboot() {
	r.mu.Lock()
	r.outstanding = make(map[string]*beaconState)
	r.bootEpoch = 0
	// Redraw the puzzle key: outstanding puzzle challenges are volatile
	// state and die with the incarnation that issued them.
	_, _ = io.ReadFull(r.cfg.Rand, r.puzzleKey[:])
	r.mu.Unlock()
	r.sessions.clear()
	r.sessionLog.clear()
}

// SetDoSDefense toggles the client-puzzle mode of Section V.A.
func (r *MeshRouter) SetDoSDefense(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dosDefense = on
}

// Stats returns a snapshot of the router's counters.
func (r *MeshRouter) Stats() RouterStats {
	return r.stats.snapshot()
}

// Sessions returns the number of live sessions.
func (r *MeshRouter) Sessions() int {
	return r.sessions.len()
}

// SessionByID returns an established session.
func (r *MeshRouter) SessionByID(id SessionID) (*Session, bool) {
	return r.sessions.get(id)
}

// ReleaseSession drops a live session after its ownership transferred to
// another router (roaming handoff, once the grace window closed). The
// audit log entry is deliberately kept: the paper's network log file
// records every authentication this router performed, and a transferred
// session must stay as auditable here as a torn-down one.
func (r *MeshRouter) ReleaseSession(id SessionID) bool {
	return r.sessions.delete(id)
}

// Certificate returns the operator-issued certificate (nil before
// enrollment). The backbone link handshake sends it so a peer router can
// verify the link against the NO's authority key.
func (r *MeshRouter) Certificate() *cert.Certificate {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cert
}

// SignAs signs msg under the router's long-term key pair — the same key
// the certificate binds. The backbone uses it to authenticate link
// handshakes; the beacon path keeps its own internal signing.
func (r *MeshRouter) SignAs(msg []byte) ([]byte, error) {
	return r.keyPair.Sign(r.cfg.Rand, msg)
}

// RouterRevoked reports whether subjectID is on the installed CRL — the
// predicate backbone nodes pass to cert.CheckCertificate when verifying
// a peer router's link credentials.
func (r *MeshRouter) RouterRevoked(subjectID string) bool {
	return r.crlStore.Contains([]byte(subjectID))
}

// Authority returns the network operator's public key (NPK), the trust
// anchor for peer router certificates on the backbone.
func (r *MeshRouter) Authority() cert.PublicKey { return r.noPub }

// Beacon produces message M.1: fresh (g, g^{r_R}), timestamp, signature,
// certificate and the compact (epoch, digest, next-update) refs of the
// current CRL and URL — plus a client puzzle when DoS defense is on.
func (r *MeshRouter) Beacon() (*Beacon, error) {
	r.mu.Lock()
	r.observeTick(r.cfg.Clock.Now())
	certCopy := r.cert
	need := r.requiredDifficultyLocked()
	key := r.puzzleKey
	bootEpoch := r.bootEpoch
	r.mu.Unlock()

	if certCopy == nil {
		return nil, fmt.Errorf("router %q: no certificate installed", r.id)
	}
	urlSnap, urlOK := r.urlStore.Current()
	crlSnap, crlOK := r.crlStore.Current()
	if !urlOK || !crlOK {
		return nil, fmt.Errorf("router %q: no revocation lists installed", r.id)
	}

	// Fresh generator g = g1^ρ and share g^{r_R}.
	rho, err := bn256.RandomScalar(r.cfg.Rand)
	if err != nil {
		return nil, fmt.Errorf("router %q: %w", r.id, err)
	}
	g := new(bn256.G1).ScalarBaseMult(rho)
	rR, err := bn256.RandomScalar(r.cfg.Rand)
	if err != nil {
		return nil, fmt.Errorf("router %q: %w", r.id, err)
	}
	gr := new(bn256.G1).ScalarMult(g, rR)

	now := r.cfg.Clock.Now()
	b := &Beacon{
		RouterID:  r.id,
		BootEpoch: bootEpoch,
		G:         g,
		GR:        gr,
		Timestamp: now,
		Cert:      certCopy,
		URLRef:    urlSnap.Ref(),
		CRLRef:    crlSnap.Ref(),
	}
	if need > 0 {
		b.Puzzle = derivePuzzle(key, r.id, now, need)
	}
	sig, err := r.keyPair.Sign(r.cfg.Rand, b.signedBody())
	if err != nil {
		return nil, fmt.Errorf("router %q: %w", r.id, err)
	}
	b.Signature = sig

	r.mu.Lock()
	r.outstanding[string(gr.Marshal())] = &beaconState{
		g:      g,
		gr:     gr,
		rR:     rR,
		sentAt: now,
	}
	r.mu.Unlock()
	r.stats.beaconsSent.Add(1)
	return b, nil
}

// HandleAccessRequest processes message M.2 (paper Step 3): freshness,
// optional puzzle check (before any pairing work), group-signature
// verification (Eq.2), URL revocation scan (Eq.3), key computation and the
// M.3 confirmation. It is HandleAccessRequestBatch for a batch of one, so
// there is a single M.2 path.
func (r *MeshRouter) HandleAccessRequest(m *AccessRequest) (*AccessConfirm, *Session, error) {
	res := r.HandleAccessRequestBatch([]*AccessRequest{m})[0]
	return res.Confirm, res.Session, res.Err
}

// AccessResult is the outcome of one access request in a batch: either a
// confirmation and session, or the error that rejected the request.
// Escrow is the M.2's encoding as the network log holds it, which the
// serving transport seals into the session's resumption ticket; it is
// shared with the log and must not be modified.
type AccessResult struct {
	Confirm *AccessConfirm
	Session *Session
	Escrow  []byte
	Err     error
}

// HandleAccessRequestBatch answers a burst of M.2 messages: the slice is cut
// into groups (sgs.ForEachGroup: as many signatures to a group as one lane
// pass verifies, but no core left without a group) and every group runs the
// whole M.2 path on its own goroutine, with no barrier between the stages
// or between the groups. It is the ingest queue's code for a caller-supplied
// slice. Results are positional — out[i] belongs to ms[i] — and one bad
// request never affects its neighbors.
func (r *MeshRouter) HandleAccessRequestBatch(ms []*AccessRequest) []AccessResult {
	out := make([]AccessResult, len(ms))
	sgs.ForEachGroup(len(ms), func(lo, hi int) { r.handleGroup(ms[lo:hi], out[lo:hi]) })
	return out
}

// handleGroup is the M.2 path, for one group of requests on the calling
// goroutine: the cheap per-request checks (freshness, puzzles); the
// survivors' signatures verified side by side (sgs.Verifier.VerifyGroup —
// one lane pass for a group of two to eight, the scalar verifier for a lone
// request); then, for the signatures that verified and only for those, so a
// forged M.2 never costs more than its verification, the URL revocation
// scan's set-up for all of them at once (sgs.SweepState.Group) and, for each
// in turn, its token passes on all the scan's workers; then, for the
// requests that are neither forged nor revoked, every Diffie–Hellman key
// K = (g^{r_j})^{r_R} of the group in one G1 lane pass (dhKeys) and each
// session's establishment. out[i] receives the outcome of ms[i].
func (r *MeshRouter) handleGroup(ms []*AccessRequest, out []AccessResult) {
	type admitted struct {
		slot int
		st   *beaconState
		now  time.Time
	}
	items := make([]sgs.BatchItem, 0, len(ms))
	adm := make([]admitted, 0, len(ms))
	for i, m := range ms {
		st, now, err := r.precheckAccessRequest(m)
		if err != nil {
			out[i].Err = err
			continue
		}
		items = append(items, sgs.BatchItem{Msg: m.SignedTranscript(), Sig: m.Sig})
		adm = append(adm, admitted{i, st, now})
	}
	if len(items) == 0 {
		return
	}

	sweep := r.sweepState()
	r.stats.expensiveVerifications.Add(int64(len(items)))
	sw := stopwatch{r.cfg.Clock, r.cfg.Clock.Now()}
	errs := sweep.Verifier().VerifyGroup(items)
	sw.lap(r.stages.verify)
	// A count in a histogram of durations: one second stands for one
	// signature, so the exposition's sum over count is the mean group size.
	r.stages.groupSize.Observe(time.Duration(len(items)) * time.Second)

	verified, vadm := items[:0], adm[:0]
	for j, verr := range errs {
		if verr != nil {
			// The group verifier's error is final: re-running the reference
			// verifier here would make a forged signature cost more than a
			// good one (sgs pins the two to the same rejection classes).
			r.stats.rejectedAuth.Add(1)
			r.noteFailure()
			out[adm[j].slot].Err = fmt.Errorf("router %q: %w: %v", r.id, ErrBadAccessRequest, verr)
			continue
		}
		verified, vadm = append(verified, items[j]), append(vadm, adm[j])
	}
	if len(verified) == 0 {
		return
	}

	group := sweep.Group(verified)
	if r.onSweepSetup != nil {
		r.onSweepSetup(group.SetupCounts())
	}
	sw.lap(r.stages.sweepSetup)
	live := vadm[:0]
	for j, a := range vadm {
		revoked, _ := group.Check(j)
		sw.lap(r.stages.sweep)
		if revoked {
			r.stats.rejectedRevoked.Add(1)
			out[a.slot].Err = fmt.Errorf("router %q: %w", r.id, ErrRevokedUser)
			continue
		}
		live = append(live, a)
	}
	if len(live) == 0 {
		return
	}

	gjs := make([]*bn256.G1, len(live))
	rRs := make([]*big.Int, len(live))
	for i, a := range live {
		gjs[i], rRs[i] = ms[a.slot].GJ, a.st.rR
	}
	keys := dhKeys(gjs, rRs)
	if r.onDHPass != nil {
		r.onDHPass(gjs, keys)
	}
	// The key pass is timed with the first establishment, so the
	// histogram's sum is the stage's time and its count one per session.
	for i, a := range live {
		confirm, sess, escrow, err := r.establishSession(ms[a.slot], keys[i], a.now)
		sw.lap(r.stages.establish)
		out[a.slot] = AccessResult{Confirm: confirm, Session: sess, Escrow: escrow, Err: err}
	}
}

// dhKeys returns K_i = gjs[i]^{rRs[i]}, Step 3.4's Diffie–Hellman key, for
// each admitted request of a group: all of them in one G1 lane pass
// (bn256.MultiScalarMultLanes) where bn256.G1LanesPay says the lanes are the
// faster way, one scalar multiplication each otherwise (a lone request, a
// CPU without the kernels). Both give the same point, so the session keys
// do not depend on the company a request was served in.
func dhKeys(gjs []*bn256.G1, rRs []*big.Int) []*bn256.G1 {
	keys := make([]*bn256.G1, len(gjs))
	vals := make([]bn256.G1, len(gjs))
	for i := range keys {
		keys[i] = &vals[i]
	}
	if !bn256.G1LanesPay(len(gjs)) {
		for i, k := range keys {
			k.ScalarMult(gjs[i], rRs[i])
		}
		return keys
	}
	ps := make([][]*bn256.G1, len(gjs))
	ks := make([][]*big.Int, len(gjs))
	for i := range ps {
		ps[i], ks[i] = gjs[i:i+1], rRs[i:i+1]
	}
	bn256.MultiScalarMultLanes(keys, ps, ks)
	return keys
}

// precheckAccessRequest runs the cheap, pre-pairing checks of Step 3.1
// (and the optional puzzle gate) and returns the matched beacon state and
// the arrival time.
func (r *MeshRouter) precheckAccessRequest(m *AccessRequest) (*beaconState, time.Time, error) {
	r.stats.requestsSeen.Add(1)
	r.mu.Lock()
	st := r.outstanding[string(m.GR.Marshal())]
	need := r.requiredDifficultyLocked()
	key := r.puzzleKey
	now := r.cfg.Clock.Now()
	r.mu.Unlock()

	// DoS defense: verify the puzzle solution before anything else — even
	// the beacon lookup result must not leak work to a solution-less flood.
	if need > 0 {
		if !m.HasSolution {
			r.stats.rejectedPuzzle.Add(1)
			return nil, now, fmt.Errorf("router %q: %w", r.id, ErrPuzzleRequired)
		}
		if err := verifyPuzzleSolution(key, r.id, m.PuzzleIssuedAt, m.PuzzleDifficulty, m.Solution, need, now, r.cfg); err != nil {
			r.stats.rejectedPuzzle.Add(1)
			return nil, now, fmt.Errorf("router %q: %w", r.id, err)
		}
	}

	// Step 3.1: freshness of g^{r_R} and ts_2.
	if st == nil || st.expired {
		r.stats.rejectedStale.Add(1)
		r.noteFailure()
		return nil, now, fmt.Errorf("router %q: unknown g^rR: %w", r.id, ErrReplay)
	}
	if !fresh(r.cfg, now, m.Timestamp) {
		r.stats.rejectedStale.Add(1)
		r.noteFailure()
		return nil, now, fmt.Errorf("router %q: ts2: %w", r.id, ErrReplay)
	}
	return st, now, nil
}

// establishSession runs the rest of Step 3.4 for an authenticated request
// whose key K_{k,j} = (g^{r_j})^{r_R} the group's key pass computed (dh):
// the session keys and M.3. It logs the M.2's encoding and returns it with
// the confirm, so the attach marshals the M.2 once.
func (r *MeshRouter) establishSession(m *AccessRequest, dh *bn256.G1, now time.Time) (*AccessConfirm, *Session, []byte, error) {
	id := NewSessionID(m.GR, m.GJ)
	sess := newSession(id, "user", dh.Marshal(), sessionTranscript(m.GR, m.GJ), now)

	payload := wire.NewWriter(192)
	payload.StringField(r.id)
	payload.BytesField(m.GJ.Marshal())
	payload.BytesField(m.GR.Marshal())
	ct, err := sess.sealBlob(r.cfg.Rand, payload.Bytes(), id[:])
	if err != nil {
		return nil, nil, nil, fmt.Errorf("router %q: confirm: %w", r.id, err)
	}

	escrow := m.Marshal()
	r.sessions.put(id, sess)
	r.sessionLog.put(id, escrow)
	r.stats.sessionsEstablished.Add(1)

	return &AccessConfirm{GJ: m.GJ, GR: m.GR, Ciphertext: ct}, sess, escrow, nil
}

// LoggedAccessRequest retrieves the authentication transcript behind an
// established session from the router's log — the paper's audit Step 1:
// "find the corresponding authentication session message (M.2) from the
// network log file". The log holds wire bytes; this decodes them.
func (r *MeshRouter) LoggedAccessRequest(id SessionID) (*AccessRequest, bool) {
	raw, ok := r.sessionLog.get(id)
	if !ok {
		return nil, false
	}
	m, err := UnmarshalAccessRequest(raw)
	if err != nil {
		return nil, false
	}
	return m, true
}

// RetireBeacon marks a beacon's DH share as no longer acceptable (e.g.
// after its period elapsed). The transport server retires the oldest
// beacon once more than its beacon history (16) are outstanding.
func (r *MeshRouter) RetireBeacon(gr *bn256.G1) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.outstanding[string(gr.Marshal())]; ok {
		st.expired = true
	}
}

// noteFailure feeds one rejected access request to the adaptive DoS
// monitor (which keeps its sliding window under r.mu).
func (r *MeshRouter) noteFailure() {
	r.stats.dosFailures.Add(1)
	r.mu.Lock()
	r.observeFailure(r.cfg.Clock.Now())
	r.mu.Unlock()
}
