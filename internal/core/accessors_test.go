package core

import (
	"strings"
	"testing"
)

// Coverage for the small accessor/inspection surface that protocols don't
// exercise directly but API users rely on.

func TestIdentityAccessors(t *testing.T) {
	id := Identity{
		Essential: "john doe <ssn>",
		Attributes: []Attribute{
			{Group: "company-x", Role: "engineer"},
			{Group: "golf-club", Role: "member"},
		},
	}
	if !id.HasAttribute("company-x") || !id.HasAttribute("golf-club") {
		t.Fatal("HasAttribute missed a role")
	}
	if id.HasAttribute("nowhere") {
		t.Fatal("HasAttribute invented a role")
	}
	a, ok := id.AttributeIn("company-x")
	if !ok || a.Role != "engineer" {
		t.Fatalf("AttributeIn = %+v, %v", a, ok)
	}
	if _, ok := id.AttributeIn("nowhere"); ok {
		t.Fatal("AttributeIn invented a role")
	}
	s := id.String()
	if !strings.Contains(s, "engineer of company-x") {
		t.Fatalf("Identity.String = %q", s)
	}
	if a.String() != "engineer of company-x" {
		t.Fatalf("Attribute.String = %q", a.String())
	}
}

func TestEntityAccessors(t *testing.T) {
	tb := newTestbed(t, 1, 1, 1)
	u := tb.user("0", 0)
	r := tb.routers["MR-0"]

	if r.ID() != "MR-0" {
		t.Fatalf("router id %q", r.ID())
	}
	if tb.no.GrtSize() != 4 { // one group, 2*1+2 keys issued by the testbed
		t.Fatalf("grt size %d", tb.no.GrtSize())
	}
	total, free := tb.gms["grp-0"].Capacity()
	if total != 4 || free != 3 {
		t.Fatalf("capacity = %d/%d", free, total)
	}
	got := u.Identity()
	if got.Essential != u.ID() || len(got.Attributes) != 1 {
		t.Fatalf("identity copy = %+v", got)
	}
	// Mutating the copy must not affect the user.
	got.Attributes[0].Role = "mutated"
	if u.Identity().Attributes[0].Role == "mutated" {
		t.Fatal("Identity returned aliased attributes")
	}

	us, rs := tb.runAKA(t, u, r, "grp-0")
	if s, ok := u.SessionByID(us.ID); !ok || s != us {
		t.Fatal("user SessionByID lookup failed")
	}
	if u.Sessions() != 1 {
		t.Fatalf("user sessions = %d", u.Sessions())
	}
	if s, ok := r.SessionByID(rs.ID); !ok || s != rs {
		t.Fatal("router SessionByID lookup failed")
	}

	// TTP records the user receipt during enrollment.
	if _, ok := tb.ttp.UserReceipt("grp-0", 0); !ok {
		t.Fatal("TTP user receipt missing")
	}
	if _, ok := tb.ttp.UserReceipt("grp-0", 3); ok {
		t.Fatal("TTP invented a receipt for an unassigned slot")
	}
}

func TestAuditPeerResponse(t *testing.T) {
	tb := newTestbed(t, 1, 2, 1)
	a := tb.user("0", 0)
	b := tb.user("0", 1)
	r := tb.routers["MR-0"]

	for _, u := range []*User{a, b} {
		beacon, err := r.Beacon()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := u.HandleBeacon(beacon, ""); err != nil {
			t.Fatal(err)
		}
	}
	hello, err := a.StartPeerAuth("grp-0")
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := b.HandlePeerHello(hello, "grp-0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.no.AuditPeerResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Group != "grp-0" {
		t.Fatalf("peer-response audit group %q", res.Group)
	}
}

func TestSystemClock(t *testing.T) {
	var c SystemClock
	if c.Now().IsZero() {
		t.Fatal("SystemClock returned zero time")
	}
}

func TestBeaconSignedBodyStable(t *testing.T) {
	tb := newTestbed(t, 1, 1, 1)
	b, err := tb.routers["MR-0"].Beacon()
	if err != nil {
		t.Fatal(err)
	}
	if string(b.SignedBody()) != string(b.SignedBody()) {
		t.Fatal("SignedBody not deterministic")
	}
	// The signature covers SignedBody.
	if err := b.Cert.PublicKey.Verify(b.SignedBody(), b.Signature); err != nil {
		t.Fatal(err)
	}
}
