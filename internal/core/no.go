package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/cert"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/sgs"
)

// NetworkOperator is the NO of the paper: it owns the group-signature
// issuing secret γ and the ECDSA signing pair (NPK, NSK); it registers
// user groups and mesh routers; it maintains grt (the full revocation
// token set with its token → group mapping), the user revocation list
// (URL) and the router CRL; and it runs the audit protocol.
type NetworkOperator struct {
	cfg     Config
	issuer  *sgs.Issuer
	signKey *cert.KeyPair

	// urlAuthority / crlAuthority issue the epoch-numbered revocation
	// snapshots and deltas for the two lists. They keep their own locks;
	// callers must not hold n.mu across Issue.
	urlAuthority *revocation.Authority
	crlAuthority *revocation.Authority

	mu sync.Mutex
	// epoch is the current group-key epoch (bumped by RotateGroupSecret).
	epoch uint32
	// groups maps group id → issued key material bookkeeping.
	groups map[GroupID]*groupRecord
	// grt is the full token set in issuance order, each tagged with its
	// group and in-group index.
	grt []grtEntry
	// revokedUsers is the current URL entry set (token + expiry).
	revokedUsers []revokedUser
	// routers maps router id → issued certificate.
	routers map[string]*cert.Certificate
	// revokedRouters is the current CRL subject set.
	revokedRouters []string
	// gmReceipts / ttpReceipts store the non-repudiation acknowledgments
	// collected during setup (receipt, acknowledged payload).
	gmReceipts  map[GroupID]receiptRecord
	ttpReceipts map[GroupID]receiptRecord
}

type receiptRecord struct {
	receipt *Receipt
	payload []byte
	pub     cert.PublicKey
}

type groupRecord struct {
	id GroupID
	// tokens are this group's revocation tokens by slot index.
	tokens []*sgs.RevocationToken
}

type grtEntry struct {
	token *sgs.RevocationToken
	group GroupID
	index int
}

// revokedUser is one URL entry. The paper notes the URL size must be
// proactively controlled; entries therefore carry the end of the revoked
// key's membership period, after which keeping the token listed serves no
// purpose (the subscription would have lapsed anyway) and it is pruned
// from freshly issued URLs.
type revokedUser struct {
	token   *sgs.RevocationToken
	expires time.Time
	forever bool
}

// NewNetworkOperator creates an operator with fresh γ and NSK.
func NewNetworkOperator(cfg Config) (*NetworkOperator, error) {
	cfg = cfg.withDefaults()
	issuer, err := sgs.NewIssuer(cfg.Rand)
	if err != nil {
		return nil, fmt.Errorf("operator: %w", err)
	}
	kp, err := cert.GenerateKeyPair(cfg.Rand)
	if err != nil {
		return nil, fmt.Errorf("operator: %w", err)
	}
	urlAuth, err := revocation.NewAuthority(revocation.ListURL, kp, cfg.Rand, revocation.DefaultHistory)
	if err != nil {
		return nil, fmt.Errorf("operator: %w", err)
	}
	crlAuth, err := revocation.NewAuthority(revocation.ListCRL, kp, cfg.Rand, revocation.DefaultHistory)
	if err != nil {
		return nil, fmt.Errorf("operator: %w", err)
	}
	return &NetworkOperator{
		cfg:          cfg,
		issuer:       issuer,
		signKey:      kp,
		urlAuthority: urlAuth,
		crlAuthority: crlAuth,
		groups:       make(map[GroupID]*groupRecord),
		routers:      make(map[string]*cert.Certificate),
		gmReceipts:   make(map[GroupID]receiptRecord),
		ttpReceipts:  make(map[GroupID]receiptRecord),
	}, nil
}

// GroupPublicKey returns gpk.
func (n *NetworkOperator) GroupPublicKey() *sgs.PublicKey { return n.issuer.PublicKey() }

// Authority returns NPK, the operator's signature-verification key.
func (n *NetworkOperator) Authority() cert.PublicKey { return n.signKey.Public() }

// RegisterUserGroup performs setup Steps 2–7 for one user group: generate
// grp_i and size SDH tuples, ship (grp_i, x_j) to the GM and the masked
// A_{i,j} to the TTP (both signed), and collect their receipts.
func (n *NetworkOperator) RegisterUserGroup(gm *GroupManager, ttp *TTP, size int) error {
	if size <= 0 {
		return fmt.Errorf("operator: group size must be positive, got %d", size)
	}
	id := gm.ID()

	n.mu.Lock()
	if _, dup := n.groups[id]; dup {
		n.mu.Unlock()
		return fmt.Errorf("operator: group %q already registered", id)
	}
	n.mu.Unlock()

	grp, err := n.issuer.NewGroupComponent(n.cfg.Rand)
	if err != nil {
		return fmt.Errorf("operator: group %q: %w", id, err)
	}
	keys, err := n.issuer.IssueBatch(n.cfg.Rand, grp, size)
	if err != nil {
		return fmt.Errorf("operator: group %q: %w", id, err)
	}

	n.mu.Lock()
	epoch := n.epoch
	n.mu.Unlock()
	gmBundle := &GMKeyBundle{Group: id, Epoch: epoch, Grp: grp}
	ttpBundle := &TTPKeyBundle{Group: id, Epoch: epoch}
	rec := &groupRecord{id: id}
	for _, k := range keys {
		gmBundle.Xs = append(gmBundle.Xs, k.X)
		ttpBundle.Masked = append(ttpBundle.Masked, maskToken(k.A, k.X))
		rec.tokens = append(rec.tokens, k.Token())
	}
	if gmBundle.Signature, err = n.signKey.Sign(n.cfg.Rand, gmBundle.body()); err != nil {
		return err
	}
	if ttpBundle.Signature, err = n.signKey.Sign(n.cfg.Rand, ttpBundle.body()); err != nil {
		return err
	}

	gmRcpt, err := gm.ReceiveBundle(gmBundle)
	if err != nil {
		return fmt.Errorf("operator: gm delivery: %w", err)
	}
	if err := gmRcpt.Verify(gm.Public(), gmBundle.body()); err != nil {
		return fmt.Errorf("operator: gm receipt: %w", err)
	}
	ttpRcpt, err := ttp.ReceiveBundle(ttpBundle)
	if err != nil {
		return fmt.Errorf("operator: ttp delivery: %w", err)
	}
	if err := ttpRcpt.Verify(ttp.Public(), ttpBundle.body()); err != nil {
		return fmt.Errorf("operator: ttp receipt: %w", err)
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups[id] = rec
	for j, tok := range rec.tokens {
		n.grt = append(n.grt, grtEntry{token: tok, group: id, index: j})
	}
	n.gmReceipts[id] = receiptRecord{receipt: gmRcpt, payload: gmBundle.body(), pub: gm.Public()}
	n.ttpReceipts[id] = receiptRecord{receipt: ttpRcpt, payload: ttpBundle.body(), pub: ttp.Public()}
	return nil
}

// EnrollRouter issues a certificate for a mesh router's public key.
func (n *NetworkOperator) EnrollRouter(id string, pub cert.PublicKey) (*cert.Certificate, error) {
	now := n.cfg.Clock.Now()
	c, err := cert.IssueCertificate(n.cfg.Rand, n.signKey, id, pub, now.Add(n.cfg.CertValidity))
	if err != nil {
		return nil, fmt.Errorf("operator: enroll router %q: %w", id, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.routers[id] = c
	return c, nil
}

// RevokeRouter adds a router to the CRL.
func (n *NetworkOperator) RevokeRouter(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, r := range n.revokedRouters {
		if r == id {
			return
		}
	}
	n.revokedRouters = append(n.revokedRouters, id)
}

// RevokeUserKey adds a revocation token to the URL (dynamic user
// revocation) with no expiry. The token typically comes from an Audit.
func (n *NetworkOperator) RevokeUserKey(tok *sgs.RevocationToken) {
	n.revokeUser(revokedUser{token: tok, forever: true})
}

// RevokeUserKeyUntil revokes a token only until the end of its membership
// period — the paper's proactive URL-size control: once the subscription
// would have lapsed anyway, the entry is pruned from new URLs.
func (n *NetworkOperator) RevokeUserKeyUntil(tok *sgs.RevocationToken, expires time.Time) {
	n.revokeUser(revokedUser{token: tok, expires: expires})
}

func (n *NetworkOperator) revokeUser(entry revokedUser) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, t := range n.revokedUsers {
		if t.token.Equal(entry.token) {
			// Upgrade to the stronger of the two revocations.
			if entry.forever || entry.expires.After(t.expires) {
				n.revokedUsers[i] = entry
			}
			return
		}
	}
	n.revokedUsers = append(n.revokedUsers, entry)
}

// RevokeAudited revokes the key identified by a prior audit result.
func (n *NetworkOperator) RevokeAudited(res AuditResult) error {
	n.mu.Lock()
	rec, ok := n.groups[res.Group]
	if !ok || res.KeyIndex < 0 || res.KeyIndex >= len(rec.tokens) {
		n.mu.Unlock()
		return fmt.Errorf("operator: %w", ErrUnknownGroup)
	}
	tok := rec.tokens[res.KeyIndex]
	n.mu.Unlock()
	n.RevokeUserKey(tok)
	return nil
}

// CRLBundle issues the current router-CRL snapshot plus the deltas
// leading to it from recent epochs. The epoch only advances when the
// revoked set actually changed since the last issue.
func (n *NetworkOperator) CRLBundle() (*revocation.Bundle, error) {
	n.mu.Lock()
	entries := crlEntries(n.revokedRouters)
	n.mu.Unlock()
	now := n.cfg.Clock.Now()
	return n.crlAuthority.Issue(entries, now, now.Add(n.cfg.RevocationUpdatePeriod))
}

// URLBundle issues the current user-revocation snapshot plus deltas,
// pruning entries whose membership period has lapsed (the paper's
// proactive URL-size control).
func (n *NetworkOperator) URLBundle() (*revocation.Bundle, error) {
	now := n.cfg.Clock.Now()
	n.mu.Lock()
	kept := n.revokedUsers[:0]
	tokens := make([]*sgs.RevocationToken, 0, len(n.revokedUsers))
	for _, e := range n.revokedUsers {
		if !e.forever && now.After(e.expires) {
			continue
		}
		kept = append(kept, e)
		tokens = append(tokens, e.token)
	}
	n.revokedUsers = kept
	n.mu.Unlock()
	return n.urlAuthority.Issue(urlEntries(tokens), now, now.Add(n.cfg.RevocationUpdatePeriod))
}

// RevocationBundles issues both lists' bundles in one call, in the order
// (crl, url) that router updates expect.
func (n *NetworkOperator) RevocationBundles() (crl, url *revocation.Bundle, err error) {
	if crl, err = n.CRLBundle(); err != nil {
		return nil, nil, err
	}
	if url, err = n.URLBundle(); err != nil {
		return nil, nil, err
	}
	return crl, url, nil
}

// GrtSize returns the number of issued tokens (|grt|).
func (n *NetworkOperator) GrtSize() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.grt)
}

// TokenOf exposes the token at [group, index]; used by tests, drills and
// experiments to revoke a chosen key or model operator compromise.
func (n *NetworkOperator) TokenOf(group GroupID, index int) (*sgs.RevocationToken, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	rec, ok := n.groups[group]
	if !ok || index < 0 || index >= len(rec.tokens) {
		return nil, ErrUnknownGroup
	}
	return rec.tokens[index], nil
}
