package core

import (
	"fmt"

	"github.com/peace-mesh/peace/internal/sgs"
)

// This file implements the paper's second revocation mechanism (Section
// V.A): a group public key update. Instead of growing the URL forever,
// the operator periodically rotates the issuing secret γ, re-issues key
// material for every registered group, and simply does not re-issue the
// revoked members' slots. Old-epoch signatures no longer verify against
// the new gpk, so revoked users are cut off even with an empty URL.
//
// Rotation is epoch-based: bundles carry the epoch, group managers and
// the TTP replace their material when a newer epoch arrives (clearing all
// slot assignments — members re-enroll under the new epoch), and users
// and routers install the new gpk explicitly.

// Epoch returns the operator's current key epoch.
func (n *NetworkOperator) Epoch() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// RotateGroupSecret begins a new key epoch: a fresh γ (and therefore a
// fresh gpk), with all per-group issuance state cleared. Registered
// groups must be re-registered (RegisterUserGroup) and members
// re-enrolled; the URL resets to empty because no revoked key exists
// under the new epoch.
func (n *NetworkOperator) RotateGroupSecret() (*sgs.PublicKey, error) {
	issuer, err := sgs.NewIssuer(n.cfg.Rand)
	if err != nil {
		return nil, fmt.Errorf("operator: rotate: %w", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch++
	n.issuer = issuer
	n.groups = make(map[GroupID]*groupRecord)
	n.grt = nil
	n.revokedUsers = nil
	n.gmReceipts = make(map[GroupID]receiptRecord)
	n.ttpReceipts = make(map[GroupID]receiptRecord)
	return issuer.PublicKey(), nil
}

// UpdateGroupKey installs a new-epoch group public key on a router. Any
// signature under the previous gpk stops verifying. The revocation sweep
// cache is rebuilt for the new key from the currently installed URL
// snapshot (its verifier tables and fast index are gpk-specific).
func (r *MeshRouter) UpdateGroupKey(gpk *sgs.PublicKey) {
	sweep := sgs.NewSweepState(gpk)
	r.mu.Lock()
	r.sweep = sweep
	r.mu.Unlock()
	// Best effort: entries were validated when the snapshot was installed.
	_ = r.refreshSweep()
}

// UpdateGroupKey installs a new-epoch group public key on a user. All
// credentials from previous epochs are dropped (they no longer satisfy
// the SDH equation under the new gpk); established symmetric sessions
// survive, per the hybrid design.
func (u *User) UpdateGroupKey(gpk *sgs.PublicKey) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.gpk = gpk
	u.creds = make(map[GroupID]*Credential)
	u.pendingAssignments = make(map[GroupID]*KeyAssignment)
	u.pendingRouter = make(map[SessionID]*pendingRouterAuth)
	u.pendingPeer = make(map[string]*pendingPeerAuth)
}
