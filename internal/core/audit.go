package core

import (
	"fmt"

	"github.com/peace-mesh/peace/internal/sgs"
)

// This file implements Section IV.D: the network operator's audit — which
// attributes a logged authentication transcript to a user *group* and
// nothing more — and the law-authority trace, which combines the audit
// with the group manager's records (and the non-repudiation receipt chain)
// to identify the responsible user.

// Audit runs the operator's audit protocol over a logged access request
// (M.2): re-derive (û, v̂) from the transcript, scan grt for the token
// encoded in (T1, T2), and map it to the owning user group. Only the
// group — nonessential attribute information — is revealed.
func (n *NetworkOperator) Audit(m *AccessRequest) (AuditResult, error) {
	return n.auditTranscript(m.SignedTranscript(), m.Sig)
}

// AuditSession runs the complete audit protocol of Section IV.D against a
// router's log: fetch the M.2 for the disputed session identifier from
// the router (Step 1), then scan grt (Steps 2–3).
func (n *NetworkOperator) AuditSession(r *MeshRouter, id SessionID) (AuditResult, error) {
	m, ok := r.LoggedAccessRequest(id)
	if !ok {
		return AuditResult{}, fmt.Errorf("audit: session %s: %w", id, ErrNoSession)
	}
	return n.Audit(m)
}

// AuditPeerHello audits a logged user–user M̃.1 the same way.
func (n *NetworkOperator) AuditPeerHello(m *PeerHello) (AuditResult, error) {
	return n.auditTranscript(m.SignedTranscript(), m.Sig)
}

// AuditPeerResponse audits a logged user–user M̃.2.
func (n *NetworkOperator) AuditPeerResponse(m *PeerResponse) (AuditResult, error) {
	return n.auditTranscript(m.SignedTranscript(), m.Sig)
}

func (n *NetworkOperator) auditTranscript(transcript []byte, sig *sgs.Signature) (AuditResult, error) {
	// The signature must verify before an audit is meaningful; a forged
	// transcript must not implicate anyone.
	if err := sgs.Verify(n.issuer.PublicKey(), transcript, sig); err != nil {
		return AuditResult{}, fmt.Errorf("audit: %w", err)
	}

	n.mu.Lock()
	entries := append([]grtEntry(nil), n.grt...)
	n.mu.Unlock()

	tokens := make([]*sgs.RevocationToken, len(entries))
	for i := range entries {
		tokens[i] = entries[i].token
	}
	idx, counts := sgs.OpenCounted(n.issuer.PublicKey(), transcript, sig, tokens)
	if idx < 0 {
		return AuditResult{TokensScanned: len(tokens), Pairings: counts.Pairings}, ErrAuditFailed
	}
	return AuditResult{
		Group:         entries[idx].group,
		KeyIndex:      entries[idx].index,
		TokensScanned: idx + 1,
		Pairings:      counts.Pairings,
	}, nil
}

// LawAuthority models the entity of the privacy model that may, with the
// cooperation of both the operator and the relevant group manager, link a
// communication session to a specific user.
type LawAuthority struct {
	// Managers registers the reachable group managers by group id.
	Managers map[GroupID]*GroupManager
}

// NewLawAuthority creates a law authority knowing the given managers.
func NewLawAuthority(gms ...*GroupManager) *LawAuthority {
	la := &LawAuthority{Managers: make(map[GroupID]*GroupManager, len(gms))}
	for _, gm := range gms {
		la.Managers[gm.ID()] = gm
	}
	return la
}

// Trace executes the full tracing procedure for a logged access request:
// the operator's audit yields (A_{i,j}, grp_i) → group i and slot j; the
// group manager resolves slot j to uid_j; and the receipt chain (the GM's
// receipt for the key bundle, the user's receipt for the assignment) is
// verified for non-repudiation.
func (la *LawAuthority) Trace(n *NetworkOperator, m *AccessRequest) (TraceResult, error) {
	audit, err := n.Audit(m)
	if err != nil {
		return TraceResult{}, err
	}
	return la.completeTrace(n, audit)
}

// TracePeerHello traces a logged user–user M̃.1.
func (la *LawAuthority) TracePeerHello(n *NetworkOperator, m *PeerHello) (TraceResult, error) {
	audit, err := n.AuditPeerHello(m)
	if err != nil {
		return TraceResult{}, err
	}
	return la.completeTrace(n, audit)
}

func (la *LawAuthority) completeTrace(n *NetworkOperator, audit AuditResult) (TraceResult, error) {
	gm, ok := la.Managers[audit.Group]
	if !ok {
		return TraceResult{Audit: audit}, fmt.Errorf("trace: %w: %q", ErrUnknownGroup, audit.Group)
	}
	uid, userReceipt, assignmentBody, err := gm.LookupUser(audit.KeyIndex)
	if err != nil {
		return TraceResult{Audit: audit}, fmt.Errorf("trace: %w", err)
	}

	res := TraceResult{Audit: audit, User: uid}

	// Non-repudiation: the GM receipted the NO's bundle, and the user
	// receipted the GM's assignment. Either signature failing leaves the
	// trace result standing but unproven (ReceiptVerified = false).
	gmReceipt, gmPayload := gm.BundleReceipt()
	n.mu.Lock()
	rec, haveRec := n.gmReceipts[audit.Group]
	n.mu.Unlock()
	if !haveRec || gmReceipt == nil || userReceipt == nil {
		return res, nil
	}
	if err := gmReceipt.Verify(gm.Public(), gmPayload); err != nil {
		return res, nil
	}
	// Cross-check: the receipt the NO holds must match the GM's.
	if err := rec.receipt.Verify(rec.pub, rec.payload); err != nil {
		return res, nil
	}
	userKey, ok := gm.UserReceiptKey(res.User)
	if !ok || userReceipt.Verify(userKey, assignmentBody) != nil {
		return res, nil
	}
	res.ReceiptVerified = true
	return res, nil
}
