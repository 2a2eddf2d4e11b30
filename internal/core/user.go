package core

import (
	"fmt"
	"math/big"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/cert"
	"github.com/peace-mesh/peace/internal/puzzle"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/sgs"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/wire"
)

// Credential is one assembled group private key gsk[i,j] together with the
// slot it was issued for.
type Credential struct {
	Group GroupID
	Index int
	Key   *sgs.PrivateKey
}

// clone returns a credential with its own copy of the key material, so the
// holder's signing cache is never shared with the source.
func (c *Credential) clone() *Credential {
	return &Credential{Group: c.Group, Index: c.Index, Key: c.Key.Clone()}
}

// User is a network user: it enrolls with one or more user groups,
// authenticates to mesh routers (Section IV.B) and to peer users (Section
// IV.C), and maintains its established sessions.
type User struct {
	cfg      Config
	identity Identity
	signKey  *cert.KeyPair // receipt/non-repudiation key
	noPub    cert.PublicKey
	gpk      *sgs.PublicKey

	mu sync.Mutex
	// creds holds one credential per enrolled group.
	creds map[GroupID]*Credential
	// pendingAssignments holds (grp, x) halves awaiting the TTP half.
	pendingAssignments map[GroupID]*KeyAssignment
	// sessions are the user's established security associations.
	sessions map[SessionID]*Session
	// pendingRouter tracks in-flight user–router AKAs keyed by session id.
	pendingRouter map[SessionID]*pendingRouterAuth
	// pendingPeer tracks in-flight user–user AKAs (initiator side).
	pendingPeer map[string]*pendingPeerAuth // keyed by marshaled g^{r_j}
	// lastG caches the serving router's generator g for peer protocols.
	lastG *bn256.G1
	// urlTokens caches the parsed revocation tokens of the installed URL
	// snapshot epoch, used to screen peers in user–user authentication.
	urlTokens      []*sgs.RevocationToken
	urlTokensEpoch uint64

	// urlStore / crlStore hold the epoch-numbered revocation snapshots the
	// user converges onto via deltas fetched when a beacon advertises a
	// newer (epoch, digest). Own locks; never hold u.mu across them.
	urlStore *revocation.Store
	crlStore *revocation.Store

	// puzzleSolver, when set, replaces the unbounded in-line brute force
	// used to answer beacon puzzles — transports install a budgeted,
	// randomized-start solver so solving stays off the hot path and honest
	// fleets answering one broadcast puzzle find distinct solutions.
	puzzleSolver func(*puzzle.Puzzle) (uint64, bool)
}

type pendingRouterAuth struct {
	routerID string
	gj, gr   *bn256.G1
	dh       []byte // marshaled K_{k,j}
}

type pendingPeerAuth struct {
	gj *bn256.G1
	rj *big.Int
	g  *bn256.G1
	ts int64
}

// NewUser creates a user with the given identity.
func NewUser(cfg Config, identity Identity, noPub cert.PublicKey, gpk *sgs.PublicKey) (*User, error) {
	cfg = cfg.withDefaults()
	kp, err := cert.GenerateKeyPair(cfg.Rand)
	if err != nil {
		return nil, fmt.Errorf("user %q: %w", identity.Essential, err)
	}
	urlStore, err := revocation.NewStore(revocation.ListURL, noPub)
	if err != nil {
		return nil, fmt.Errorf("user %q: %w", identity.Essential, err)
	}
	crlStore, err := revocation.NewStore(revocation.ListCRL, noPub)
	if err != nil {
		return nil, fmt.Errorf("user %q: %w", identity.Essential, err)
	}
	return &User{
		cfg:                cfg,
		identity:           identity,
		signKey:            kp,
		noPub:              noPub,
		gpk:                gpk,
		creds:              make(map[GroupID]*Credential),
		pendingAssignments: make(map[GroupID]*KeyAssignment),
		sessions:           make(map[SessionID]*Session),
		pendingRouter:      make(map[SessionID]*pendingRouterAuth),
		pendingPeer:        make(map[string]*pendingPeerAuth),
		urlStore:           urlStore,
		crlStore:           crlStore,
	}, nil
}

// ID returns the user's essential attribute information uid_j. It is
// local state only — no protocol message ever carries it.
func (u *User) ID() UserID { return u.identity.Essential }

// Identity returns a copy of the user's identity information.
func (u *User) Identity() Identity {
	out := Identity{Essential: u.identity.Essential}
	out.Attributes = append(out.Attributes, u.identity.Attributes...)
	return out
}

// Groups lists the groups the user holds credentials for.
func (u *User) Groups() []GroupID {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]GroupID, 0, len(u.creds))
	for g := range u.creds {
		out = append(out, g)
	}
	return out
}

// AcceptCredential completes enrollment: combine the GM's assignment with
// the TTP's masked token, validate the assembled key against gpk, and
// produce the two signed receipts (to GM and TTP).
func (u *User) AcceptCredential(assign *KeyAssignment, maskedToken []byte) (gmReceipt, ttpReceipt *Receipt, err error) {
	a, err := unmaskToken(maskedToken, assign.X)
	if err != nil {
		return nil, nil, fmt.Errorf("user %q: %w", u.ID(), err)
	}
	key := &sgs.PrivateKey{A: a, Grp: assign.Grp, X: assign.X}
	if err := sgs.CheckKey(u.gpk, key); err != nil {
		return nil, nil, fmt.Errorf("user %q: assembled key invalid: %w", u.ID(), err)
	}

	gmReceipt, err = signReceipt(u.cfg.Rand, u.signKey, "user:"+string(u.ID()), assign.body())
	if err != nil {
		return nil, nil, err
	}
	ttpReceipt, err = signReceipt(u.cfg.Rand, u.signKey, "user:"+string(u.ID()), maskedToken)
	if err != nil {
		return nil, nil, err
	}

	u.mu.Lock()
	defer u.mu.Unlock()
	u.creds[assign.Group] = &Credential{Group: assign.Group, Index: assign.Index, Key: key}
	return gmReceipt, ttpReceipt, nil
}

// ReceiptKey returns the user's receipt-verification public key.
func (u *User) ReceiptKey() cert.PublicKey { return u.signKey.Public() }

// Credentials returns copies of the user's enrolled credentials, for
// out-of-band provisioning (e.g. handing a pre-enrolled identity to a
// device that authenticates over the network transport).
func (u *User) Credentials() []*Credential {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]*Credential, 0, len(u.creds))
	for _, c := range u.creds {
		out = append(out, c.clone())
	}
	return out
}

// InstallCredential installs an externally provisioned credential after
// validating the assembled key against the group public key — the inverse
// of Credentials for deployments where enrollment ran elsewhere (a
// provisioning service) and only the finished gsk reaches the device.
func (u *User) InstallCredential(c *Credential) error {
	if c == nil || c.Key == nil {
		return fmt.Errorf("user %q: nil credential", u.ID())
	}
	if err := sgs.CheckKey(u.gpk, c.Key); err != nil {
		return fmt.Errorf("user %q: provisioned key invalid: %w", u.ID(), err)
	}
	cp := c.clone()
	u.mu.Lock()
	defer u.mu.Unlock()
	u.creds[c.Group] = cp
	return nil
}

// credential picks the credential for group, or any credential when group
// is empty (users act in different roles; callers choose the role).
func (u *User) credential(group GroupID) (*Credential, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if group != "" {
		c, ok := u.creds[group]
		if !ok {
			return nil, fmt.Errorf("user %q: no credential for group %q: %w", u.ID(), group, ErrUnknownGroup)
		}
		return c, nil
	}
	for _, c := range u.creds {
		return c, nil
	}
	return nil, fmt.Errorf("user %q: no credentials: %w", u.ID(), ErrUnknownGroup)
}

// sessionTranscript is the key-derivation binding for a session: the pair
// of DH shares in a fixed order.
func sessionTranscript(gr, gj *bn256.G1) []byte {
	w := wire.NewWriter(160)
	w.StringField("peace/transcript:v1")
	w.BytesField(gr.Marshal())
	w.BytesField(gj.Marshal())
	return w.Bytes()
}

// HandleBeacon runs user Step 2 of the user–router AKA: validate M.1
// (Step 2.1: timestamp, revocation refs, certificate + CRL, router
// signature), then build M.2 (Step 2.2): fresh r_j, group signature under
// the credential for the chosen group (empty = any), puzzle solution when
// demanded, and the precomputed session key K_{k,j} = (g^{r_R})^{r_j}.
//
// The user's installed revocation state must cover what the beacon
// advertises; otherwise HandleBeacon fails with ErrRevocationStale and
// the caller fetches the gaps reported by RevocationGaps (a delta or a
// full snapshot, served by the router's transport) before retrying.
func (u *User) HandleBeacon(b *Beacon, group GroupID) (*AccessRequest, error) {
	now := u.cfg.Clock.Now()

	// Step 2.1: freshness and router legitimacy.
	if !fresh(u.cfg, now, b.Timestamp) {
		return nil, fmt.Errorf("%w: beacon ts1", ErrReplay)
	}
	if err := u.checkBeaconRevocations(b, now); err != nil {
		return nil, err
	}
	if err := cert.CheckCertificate(b.Cert, u.routerRevoked, u.noPub, now); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBeacon, err)
	}
	if b.Cert.SubjectID != b.RouterID {
		return nil, fmt.Errorf("%w: certificate subject %q != router %q", ErrBadBeacon, b.Cert.SubjectID, b.RouterID)
	}
	if err := b.Cert.PublicKey.Verify(b.signedBody(), b.Signature); err != nil {
		return nil, fmt.Errorf("%w: router signature: %v", ErrBadBeacon, err)
	}

	cred, err := u.credential(group)
	if err != nil {
		return nil, err
	}

	// Step 2.2: DH response and group signature.
	rj, err := bn256.RandomScalar(u.cfg.Rand)
	if err != nil {
		return nil, fmt.Errorf("user %q: %w", u.ID(), err)
	}
	gj := new(bn256.G1).ScalarMult(b.G, rj)

	m := &AccessRequest{GJ: gj, GR: b.GR, Timestamp: now}
	if b.Puzzle != nil {
		sol, ok := u.solvePuzzle(b.Puzzle)
		if !ok {
			return nil, fmt.Errorf("user %q: %w: solve budget exhausted at difficulty %d",
				u.ID(), ErrPuzzleRequired, b.Puzzle.Difficulty)
		}
		m.HasSolution = true
		m.Solution = sol
		m.PuzzleIssuedAt = b.Puzzle.IssuedAt
		m.PuzzleDifficulty = b.Puzzle.Difficulty
	}
	sig, err := sgs.Sign(u.cfg.Rand, u.gpk, cred.Key, m.SignedTranscript())
	if err != nil {
		return nil, fmt.Errorf("user %q: sign M.2: %w", u.ID(), err)
	}
	m.Sig = sig

	// Step 2.2.5: K_{k,j} = (g^{r_R})^{r_j}.
	dh := new(bn256.G1).ScalarMult(b.GR, rj)

	id := NewSessionID(b.GR, gj)
	u.mu.Lock()
	u.pendingRouter[id] = &pendingRouterAuth{
		routerID: b.RouterID,
		gj:       gj,
		gr:       b.GR,
		dh:       dh.Marshal(),
	}
	u.lastG = b.G
	u.mu.Unlock()
	return m, nil
}

// SetPuzzleSolver installs the strategy HandleBeacon (and transports doing
// RejectPuzzle recovery) use to answer puzzle challenges. The solver
// returns the solution and whether it found one within its budget; a nil
// solver restores the default unbounded brute force.
func (u *User) SetPuzzleSolver(fn func(*puzzle.Puzzle) (uint64, bool)) {
	u.mu.Lock()
	u.puzzleSolver = fn
	u.mu.Unlock()
}

// solvePuzzle answers one puzzle challenge via the installed solver.
func (u *User) solvePuzzle(p *puzzle.Puzzle) (uint64, bool) {
	u.mu.Lock()
	fn := u.puzzleSolver
	u.mu.Unlock()
	if fn != nil {
		return fn(p)
	}
	return p.Solve(), true
}

// ObserveBeacon validates a beacon and refreshes the cached generator
// without initiating authentication — what an already-attached user does
// with the router's periodic broadcasts. Like HandleBeacon it fails with
// ErrRevocationStale when the advertised revocation refs have moved past
// the installed state.
func (u *User) ObserveBeacon(b *Beacon) error {
	now := u.cfg.Clock.Now()
	if !fresh(u.cfg, now, b.Timestamp) {
		return fmt.Errorf("%w: beacon ts1", ErrReplay)
	}
	if err := u.checkBeaconRevocations(b, now); err != nil {
		return err
	}
	if err := cert.CheckCertificate(b.Cert, u.routerRevoked, u.noPub, now); err != nil {
		return fmt.Errorf("%w: %v", ErrBadBeacon, err)
	}
	if err := b.Cert.PublicKey.Verify(b.signedBody(), b.Signature); err != nil {
		return fmt.Errorf("%w: router signature: %v", ErrBadBeacon, err)
	}
	u.mu.Lock()
	u.lastG = b.G
	u.mu.Unlock()
	return nil
}

// checkBeaconRevocations verifies that the installed URL/CRL state covers
// what the beacon advertises. A missing, older or expired snapshot yields
// ErrRevocationStale (fetch the gaps and retry); an advertisement at the
// installed epoch but with a different digest is an equivocating or
// corrupt beacon and yields ErrBadBeacon.
func (u *User) checkBeaconRevocations(b *Beacon, now time.Time) error {
	for _, st := range []struct {
		store *revocation.Store
		ref   revocation.Ref
		name  string
	}{
		{u.urlStore, b.URLRef, "url"},
		{u.crlStore, b.CRLRef, "crl"},
	} {
		snap, ok := st.store.Current()
		if !ok {
			return fmt.Errorf("%w: no %s installed", ErrRevocationStale, st.name)
		}
		if snap.Epoch == st.ref.Epoch {
			if snap.Digest() != st.ref.Digest {
				return fmt.Errorf("%w: %s digest mismatch at epoch %d", ErrBadBeacon, st.name, st.ref.Epoch)
			}
		} else if snap.Epoch < st.ref.Epoch {
			return fmt.Errorf("%w: %s at epoch %d, beacon advertises %d", ErrRevocationStale, st.name, snap.Epoch, st.ref.Epoch)
		}
		// A beacon advertising an OLDER epoch than we hold is tolerated:
		// our state is a superset and monotonicity forbids downgrading.
		if now.After(snap.NextUpdate) {
			return fmt.Errorf("%w: %s expired at %v", ErrRevocationStale, st.name, snap.NextUpdate)
		}
	}
	return nil
}

// routerRevoked is the CRL predicate handed to cert.CheckCertificate.
func (u *User) routerRevoked(subjectID string) bool {
	return u.crlStore.Contains([]byte(subjectID))
}

// RevocationGaps reports, for each list the beacon advertises ahead of
// (or absent from) the installed state, what the user holds — the input
// to a delta fetch (Have=true) or a full snapshot fetch (Have=false).
func (u *User) RevocationGaps(b *Beacon) []revocation.Gap {
	now := u.cfg.Clock.Now()
	var gaps []revocation.Gap
	if g, ok := u.urlStore.GapAgainst(b.URLRef, now); ok {
		gaps = append(gaps, g)
	}
	if g, ok := u.crlStore.GapAgainst(b.CRLRef, now); ok {
		gaps = append(gaps, g)
	}
	return gaps
}

// InstallRevocationSnapshot installs a full operator-signed snapshot for
// either list, subject to signature, staleness and anti-rollback checks.
func (u *User) InstallRevocationSnapshot(s *revocation.Snapshot) error {
	if err := u.revocationStore(s.List).Install(s, u.cfg.Clock.Now()); err != nil {
		return fmt.Errorf("user %q: %w", u.ID(), err)
	}
	return nil
}

// ApplyRevocationDelta advances either list by one operator-signed delta.
// Gap or digest errors mean the delta chain does not reach the installed
// state; fall back to InstallRevocationSnapshot.
func (u *User) ApplyRevocationDelta(d *revocation.Delta) error {
	if err := u.revocationStore(d.List).ApplyDelta(d, u.cfg.Clock.Now()); err != nil {
		return fmt.Errorf("user %q: %w", u.ID(), err)
	}
	return nil
}

// RevocationEpoch returns the installed epoch of one list (0 when nothing
// is installed yet).
func (u *User) RevocationEpoch(l revocation.List) uint64 {
	return u.revocationStore(l).Epoch()
}

func (u *User) revocationStore(l revocation.List) *revocation.Store {
	if l == revocation.ListCRL {
		return u.crlStore
	}
	return u.urlStore
}

// revocationTokens returns the parsed tokens of the installed URL
// snapshot, re-parsing only when the epoch moved.
func (u *User) revocationTokens() []*sgs.RevocationToken {
	snap, ok := u.urlStore.Current()
	if !ok {
		return nil
	}
	u.mu.Lock()
	if u.urlTokensEpoch == snap.Epoch && u.urlTokens != nil {
		toks := u.urlTokens
		u.mu.Unlock()
		return toks
	}
	u.mu.Unlock()
	toks, err := parseURLTokens(snap)
	if err != nil {
		// Entries were validated at install time; an unparsable token here
		// means corrupted memory, not wire input. Fail closed to an empty
		// screen list rather than panicking in a handler.
		return nil
	}
	u.mu.Lock()
	u.urlTokens, u.urlTokensEpoch = toks, snap.Epoch
	u.mu.Unlock()
	return toks
}

// HandleAccessConfirm completes the user–router AKA on receipt of M.3:
// decrypt the confirmation, check the echoed identifiers, and promote the
// pending state to an established session.
func (u *User) HandleAccessConfirm(m *AccessConfirm) (*Session, error) {
	id := NewSessionID(m.GR, m.GJ)
	u.mu.Lock()
	pend, ok := u.pendingRouter[id]
	u.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: no pending AKA for %s", ErrNoSession, id)
	}

	sess := newSession(id, pend.routerID, pend.dh, sessionTranscript(pend.gr, pend.gj), u.cfg.Clock.Now())
	pt, err := symcrypto.Open(sess.keys.Enc, m.Ciphertext, id[:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfirmation, err)
	}
	r := wire.NewReader(pt)
	routerID, err := r.StringField()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfirmation, err)
	}
	gjRaw, err := r.BytesField()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfirmation, err)
	}
	grRaw, err := r.BytesField()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfirmation, err)
	}
	if routerID != pend.routerID ||
		string(gjRaw) != string(pend.gj.Marshal()) ||
		string(grRaw) != string(pend.gr.Marshal()) {
		return nil, fmt.Errorf("%w: transcript mismatch", ErrBadConfirmation)
	}

	u.mu.Lock()
	delete(u.pendingRouter, id)
	u.sessions[id] = sess
	u.mu.Unlock()
	return sess, nil
}

// SessionByID returns an established session.
func (u *User) SessionByID(id SessionID) (*Session, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	s, ok := u.sessions[id]
	return s, ok
}

// Sessions returns the number of established sessions.
func (u *User) Sessions() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.sessions)
}

// StartPeerAuth initiates user–user authentication (M̃.1): sign
// (g, g^{r_j}, ts_1) with the chosen group credential and locally
// broadcast it. The generator g comes from the serving router's beacon.
func (u *User) StartPeerAuth(group GroupID) (*PeerHello, error) {
	u.mu.Lock()
	g := u.lastG
	u.mu.Unlock()
	if g == nil {
		return nil, fmt.Errorf("user %q: no beacon generator cached; process a beacon first", u.ID())
	}
	return u.StartPeerAuthWithGenerator(g, group)
}

// StartPeerAuthWithGenerator is StartPeerAuth with an explicit generator.
func (u *User) StartPeerAuthWithGenerator(g *bn256.G1, group GroupID) (*PeerHello, error) {
	cred, err := u.credential(group)
	if err != nil {
		return nil, err
	}
	rj, err := bn256.RandomScalar(u.cfg.Rand)
	if err != nil {
		return nil, fmt.Errorf("user %q: %w", u.ID(), err)
	}
	gj := new(bn256.G1).ScalarMult(g, rj)
	now := u.cfg.Clock.Now()

	m := &PeerHello{G: g, GJ: gj, Timestamp: now}
	sig, err := sgs.Sign(u.cfg.Rand, u.gpk, cred.Key, m.SignedTranscript())
	if err != nil {
		return nil, fmt.Errorf("user %q: sign M̃.1: %w", u.ID(), err)
	}
	m.Sig = sig

	u.mu.Lock()
	u.pendingPeer[string(gj.Marshal())] = &pendingPeerAuth{
		gj: gj,
		rj: rj,
		g:  g,
		ts: now.UnixNano(),
	}
	u.mu.Unlock()
	return m, nil
}

// HandlePeerHello runs the responder side of M̃.1 → M̃.2: verify the
// initiator's group signature and revocation status, pick r_l, compute
// the pairwise key, and reply with a group-signed M̃.2.
func (u *User) HandlePeerHello(m *PeerHello, group GroupID) (*PeerResponse, *Session, error) {
	now := u.cfg.Clock.Now()
	if !fresh(u.cfg, now, m.Timestamp) {
		return nil, nil, fmt.Errorf("%w: M̃.1 ts1", ErrReplay)
	}
	transcript := m.SignedTranscript()
	if err := sgs.Verify(u.gpk, transcript, m.Sig); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadAccessRequest, err)
	}
	if tokens := u.revocationTokens(); len(tokens) > 0 {
		if revoked, _ := sgs.IsRevoked(u.gpk, transcript, m.Sig, tokens); revoked {
			return nil, nil, ErrRevokedUser
		}
	}

	cred, err := u.credential(group)
	if err != nil {
		return nil, nil, err
	}
	rl, err := bn256.RandomScalar(u.cfg.Rand)
	if err != nil {
		return nil, nil, fmt.Errorf("user %q: %w", u.ID(), err)
	}
	gl := new(bn256.G1).ScalarMult(m.G, rl)

	resp := &PeerResponse{GJ: m.GJ, GL: gl, Timestamp: now}
	sig, err := sgs.Sign(u.cfg.Rand, u.gpk, cred.Key, resp.SignedTranscript())
	if err != nil {
		return nil, nil, fmt.Errorf("user %q: sign M̃.2: %w", u.ID(), err)
	}
	resp.Sig = sig

	// K_{r_j, r_l} = (g^{r_j})^{r_l}.
	dh := new(bn256.G1).ScalarMult(m.GJ, rl)
	id := NewSessionID(m.GJ, gl)
	sess := newSession(id, "peer", dh.Marshal(), sessionTranscript(m.GJ, gl), now)

	u.mu.Lock()
	u.sessions[id] = sess
	u.mu.Unlock()
	return resp, sess, nil
}

// HandlePeerResponse runs the initiator side of M̃.2 → M̃.3: verify the
// responder's signature and revocation status, derive the key, and emit
// the encrypted confirmation.
func (u *User) HandlePeerResponse(m *PeerResponse) (*PeerConfirm, *Session, error) {
	u.mu.Lock()
	pend, ok := u.pendingPeer[string(m.GJ.Marshal())]
	u.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: no pending peer AKA", ErrNoSession)
	}

	now := u.cfg.Clock.Now()
	if !fresh(u.cfg, now, m.Timestamp) {
		return nil, nil, fmt.Errorf("%w: M̃.2 ts2", ErrReplay)
	}
	// Paper Step 3 of the user–user AKA: ts2 − ts1 must lie within the
	// acceptable delay window.
	ts1 := time.Unix(0, pend.ts)
	if d := m.Timestamp.Sub(ts1); d < 0 || d > u.cfg.FreshnessWindow {
		return nil, nil, fmt.Errorf("%w: ts2-ts1 delay %v", ErrReplay, d)
	}
	transcript := m.SignedTranscript()
	if err := sgs.Verify(u.gpk, transcript, m.Sig); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadAccessRequest, err)
	}
	if tokens := u.revocationTokens(); len(tokens) > 0 {
		if revoked, _ := sgs.IsRevoked(u.gpk, transcript, m.Sig, tokens); revoked {
			return nil, nil, ErrRevokedUser
		}
	}

	// K_{r_j, r_l} = (g^{r_l})^{r_j}.
	dh := new(bn256.G1).ScalarMult(m.GL, pend.rj)
	id := NewSessionID(m.GJ, m.GL)
	sess := newSession(id, "peer", dh.Marshal(), sessionTranscript(m.GJ, m.GL), now)

	payload := wire.NewWriter(192)
	payload.BytesField(m.GJ.Marshal())
	payload.BytesField(m.GL.Marshal())
	payload.Uint64(uint64(pend.ts))
	payload.Time(m.Timestamp)
	ct, err := symcrypto.Seal(u.cfg.Rand, sess.keys.Enc, payload.Bytes(), id[:])
	if err != nil {
		return nil, nil, fmt.Errorf("user %q: confirm: %w", u.ID(), err)
	}

	u.mu.Lock()
	delete(u.pendingPeer, string(m.GJ.Marshal()))
	u.sessions[id] = sess
	u.mu.Unlock()
	return &PeerConfirm{GJ: m.GJ, GL: m.GL, Ciphertext: ct}, sess, nil
}

// HandlePeerConfirm completes the responder side on M̃.3: decrypt the
// confirmation with the already-derived session key and check the echoed
// identifiers.
func (u *User) HandlePeerConfirm(m *PeerConfirm) (*Session, error) {
	id := NewSessionID(m.GJ, m.GL)
	u.mu.Lock()
	sess, ok := u.sessions[id]
	u.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: no session for M̃.3", ErrNoSession)
	}
	pt, err := symcrypto.Open(sess.keys.Enc, m.Ciphertext, id[:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfirmation, err)
	}
	r := wire.NewReader(pt)
	gjRaw, err := r.BytesField()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfirmation, err)
	}
	glRaw, err := r.BytesField()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfirmation, err)
	}
	if string(gjRaw) != string(m.GJ.Marshal()) || string(glRaw) != string(m.GL.Marshal()) {
		return nil, fmt.Errorf("%w: transcript mismatch", ErrBadConfirmation)
	}
	return sess, nil
}

// RefreshURL lets deployments push a newer URL snapshot outside of the
// beacon-driven fetch path. It is an epoch-monotonic swap: snapshots with
// older epochs (or a same-epoch re-issue with an earlier IssuedAt) are
// refused with revocation.ErrRollback, expired ones with
// revocation.ErrStale.
func (u *User) RefreshURL(snap *revocation.Snapshot) error {
	if snap.List != revocation.ListURL {
		return fmt.Errorf("user %q: refresh url: %w", u.ID(), revocation.ErrMalformed)
	}
	return u.InstallRevocationSnapshot(snap)
}
