package core

import (
	"fmt"
	"strings"
)

// This file models the paper's user-identity format (Fig. 2): identity is
// multi-faceted, split into essential attribute information (anything that
// uniquely identifies the person — name, SSN, ...) and nonessential
// attribute information (the person's roles in society — employee of X,
// tenant of Y, student of Z, ...). PEACE's privacy guarantee is phrased in
// these terms: an operator audit reveals a single nonessential attribute
// (the user group), never the essential attributes.

// UserID is the essential attribute information uid_j: an opaque string
// that uniquely identifies a person (e.g. a composite of name and SSN).
// It never appears in any protocol message.
type UserID string

// GroupID identifies a registered user group (a society entity such as a
// company, university or agency) within one operator's domain.
type GroupID string

// Attribute is one nonessential attribute: a role within a user group.
type Attribute struct {
	// Group is the user group this attribute refers to.
	Group GroupID
	// Role is a human-readable description ("employee", "student", ...).
	Role string
}

func (a Attribute) String() string {
	return fmt.Sprintf("%s of %s", a.Role, a.Group)
}

// Identity is a user's full identity information: essential attributes
// plus the set of nonessential role attributes. The paper's example —
// {name, ssn, engineer of company X, tenant of apartment Y, ...} — maps to
// Essential = "name/ssn", Attributes = the rest.
type Identity struct {
	// Essential is the essential attribute information (uid_j).
	Essential UserID
	// Attributes are the nonessential role attributes.
	Attributes []Attribute
}

// HasAttribute reports whether the identity carries a role in the group.
func (id *Identity) HasAttribute(g GroupID) bool {
	for _, a := range id.Attributes {
		if a.Group == g {
			return true
		}
	}
	return false
}

// AttributeIn returns the role attribute for the given group, if any.
func (id *Identity) AttributeIn(g GroupID) (Attribute, bool) {
	for _, a := range id.Attributes {
		if a.Group == g {
			return a, true
		}
	}
	return Attribute{}, false
}

func (id *Identity) String() string {
	parts := make([]string, 0, 1+len(id.Attributes))
	parts = append(parts, string(id.Essential))
	for _, a := range id.Attributes {
		parts = append(parts, a.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// AuditResult is what the network operator learns from auditing a session:
// the responsible user group (a nonessential attribute) and the matched
// revocation token index — never the user's essential attributes.
type AuditResult struct {
	// Group is the responsible user group.
	Group GroupID
	// KeyIndex is the slot [i, j] of the matched key within the group.
	KeyIndex int
	// TokensScanned records how much of grt was scanned (for the
	// performance experiments).
	TokensScanned int
	// Pairings is what the scan charged in the paper's accounting: two
	// pairings per token tested.
	Pairings int
}

// TraceResult is what the law authority learns from a full trace: the
// audit result joined with the group manager's record.
type TraceResult struct {
	Audit AuditResult
	// User is the de-anonymized essential attribute information.
	User UserID
	// ReceiptVerified reports that the non-repudiation receipt chain
	// (GM signed for the key bundle; the user signed for the key) was
	// validated during the trace.
	ReceiptVerified bool
}
