// Package peace is the public API of the PEACE reproduction: a
// privacy-enhanced yet accountable security framework for metropolitan
// wireless mesh networks (Ren & Lou, ICDCS 2008).
//
// The package re-exports the framework layer (internal/core) and the
// group-signature primitive (internal/sgs) under one import path:
//
//	import "github.com/peace-mesh/peace"
//
//	no, _ := peace.NewNetworkOperator(peace.Config{})
//	ttp, _ := peace.NewTTP(peace.Config{}, no.Authority())
//	gm, _ := peace.NewGroupManager(peace.Config{}, "company-x", no.Authority())
//	_ = no.RegisterUserGroup(gm, ttp, 100)
//
//	u, _ := peace.NewUser(peace.Config{}, peace.Identity{Essential: "alice"},
//	    no.Authority(), no.GroupPublicKey())
//	_ = peace.EnrollUser(u, gm, ttp)
//
// See the examples directory for complete runnable scenarios, and
// DESIGN.md / EXPERIMENTS.md for the reproduction methodology.
package peace

import (
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/sgs"
)

// Framework entities (Sections III–IV of the paper).
type (
	// NetworkOperator is the NO: issuer of group keys, router certificates
	// and revocation state, and the auditing party.
	NetworkOperator = core.NetworkOperator
	// TTP is the offline trusted third party of the setup protocol.
	TTP = core.TTP
	// GroupManager manages one user group's memberships.
	GroupManager = core.GroupManager
	// User is a network user with one or more group credentials.
	User = core.User
	// MeshRouter is a backbone router MR_k.
	MeshRouter = core.MeshRouter
	// LawAuthority performs full traces with NO + GM cooperation.
	LawAuthority = core.LawAuthority
)

// Identity model (Section III.C).
type (
	// Identity is a user's essential + nonessential attribute information.
	Identity = core.Identity
	// Attribute is one nonessential role attribute.
	Attribute = core.Attribute
	// UserID is essential attribute information (never transmitted).
	UserID = core.UserID
	// GroupID names a user group.
	GroupID = core.GroupID
	// AuditResult is what an operator audit reveals (group only).
	AuditResult = core.AuditResult
	// TraceResult is what a law-authority trace reveals.
	TraceResult = core.TraceResult
)

// Protocol messages (Section IV.B/IV.C).
type (
	// Beacon is M.1.
	Beacon = core.Beacon
	// AccessRequest is M.2.
	AccessRequest = core.AccessRequest
	// AccessConfirm is M.3.
	AccessConfirm = core.AccessConfirm
	// PeerHello is M̃.1.
	PeerHello = core.PeerHello
	// PeerResponse is M̃.2.
	PeerResponse = core.PeerResponse
	// PeerConfirm is M̃.3.
	PeerConfirm = core.PeerConfirm
	// RevocationSnapshot is one epoch-numbered signed copy of a
	// revocation list (URL or CRL).
	RevocationSnapshot = revocation.Snapshot
	// RevocationDelta is the signed difference between two epochs.
	RevocationDelta = revocation.Delta
	// RevocationBundle pairs a snapshot with the delta from the previous
	// epoch, as issued by the operator.
	RevocationBundle = revocation.Bundle
	// RevocationRef is the (epoch, digest, nextUpdate) reference beacons
	// carry instead of full lists.
	RevocationRef = revocation.Ref
	// Session is an established security association.
	Session = core.Session
	// SessionID identifies a session by its DH share pair.
	SessionID = core.SessionID
	// DataFrame is protected session traffic.
	DataFrame = core.DataFrame
	// Receipt is a non-repudiation acknowledgment from setup.
	Receipt = core.Receipt
	// RouterStats are a router's processing counters.
	RouterStats = core.RouterStats
)

// Configuration and clocks.
type (
	// Config carries injected dependencies and protocol knobs.
	Config = core.Config
	// Clock abstracts time for tests.
	Clock = core.Clock
	// SystemClock is the wall-clock Clock.
	SystemClock = core.SystemClock
	// FixedClock is a settable Clock.
	FixedClock = core.FixedClock
)

// Group-signature layer (the paper's primary cryptographic contribution).
type (
	// GroupPublicKey is gpk = (g1, g2, w).
	GroupPublicKey = sgs.PublicKey
	// GroupPrivateKey is gsk[i,j] = (A_{i,j}, grp_i, x_j).
	GroupPrivateKey = sgs.PrivateKey
	// GroupSignature is the tuple (r, T1, T2, c, s_α, s_x, s_δ).
	GroupSignature = sgs.Signature
	// RevocationToken identifies a key for revocation and audit.
	RevocationToken = sgs.RevocationToken
	// OpCounts tallies exponentiations and pairings.
	OpCounts = sgs.OpCounts
)

// Constructors and top-level operations.
var (
	// NewNetworkOperator creates an operator with fresh γ and NSK.
	NewNetworkOperator = core.NewNetworkOperator
	// NewTTP creates the offline trusted third party.
	NewTTP = core.NewTTP
	// NewGroupManager creates a user-group manager.
	NewGroupManager = core.NewGroupManager
	// NewUser creates a network user.
	NewUser = core.NewUser
	// NewMeshRouter creates a mesh router.
	NewMeshRouter = core.NewMeshRouter
	// NewLawAuthority creates a law authority knowing the given managers.
	NewLawAuthority = core.NewLawAuthority
	// EnrollUser runs the three-party enrollment of Section IV.A.
	EnrollUser = core.EnrollUser
	// NewSessionID derives a session identifier from two DH shares.
	NewSessionID = core.NewSessionID

	// GroupSign produces a bare group signature (protocol-independent).
	GroupSign = sgs.Sign
	// GroupVerify checks a bare group signature.
	GroupVerify = sgs.Verify
	// GroupVerifyWithRevocation additionally scans a revocation list.
	GroupVerifyWithRevocation = sgs.VerifyWithRevocation
)

// Sentinel errors, re-exported for errors.Is matching.
var (
	ErrReplay           = core.ErrReplay
	ErrBadBeacon        = core.ErrBadBeacon
	ErrBadAccessRequest = core.ErrBadAccessRequest
	ErrRevokedUser      = core.ErrRevokedUser
	ErrRevokedRouter    = core.ErrRevokedRouter
	ErrBadConfirmation  = core.ErrBadConfirmation
	ErrNoSession        = core.ErrNoSession
	ErrPuzzleRequired   = core.ErrPuzzleRequired
	ErrUnknownGroup     = core.ErrUnknownGroup
	ErrAuditFailed      = core.ErrAuditFailed
)
