package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"github.com/peace-mesh/peace/internal/bn256"
)

func TestMaskTokenRoundTrip(t *testing.T) {
	for i := 0; i < 10; i++ {
		_, a, err := bn256.RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		x, err := bn256.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		masked := maskToken(a, x)
		back, err := unmaskToken(masked, x)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(a) {
			t.Fatal("mask/unmask round-trip mismatch")
		}
	}
}

func TestMaskTokenHidesA(t *testing.T) {
	_, a, _ := bn256.RandomG1(rand.Reader)
	x, _ := bn256.RandomScalar(rand.Reader)
	masked := maskToken(a, x)

	if bytes.Contains(masked, a.Marshal()[:16]) {
		t.Fatal("masked token leaks a prefix of A")
	}
	// The wrong x must not recover A (it will either fail to decode or
	// decode to a different point).
	otherX := new(big.Int).Add(x, big.NewInt(1))
	back, err := unmaskToken(masked, otherX)
	if err == nil && back.Equal(a) {
		t.Fatal("wrong x recovered A")
	}
}

func TestEnrollmentAssemblesValidKey(t *testing.T) {
	tb := newTestbed(t, 1, 1, 0)
	u := tb.user("0", 0)
	if len(u.Groups()) != 1 || u.Groups()[0] != "grp-0" {
		t.Fatalf("user groups = %v", u.Groups())
	}
}

// TestCredentialCopiesDoNotShareKeys checks that the provisioning surface
// (Credentials / InstallCredential) hands over copies of the key material:
// a device never shares a *sgs.PrivateKey — and with it the key's signing
// cache — with the user it was exported from.
func TestCredentialCopiesDoNotShareKeys(t *testing.T) {
	tb := newTestbed(t, 1, 1, 0)
	u := tb.user("0", 0)
	own := u.creds["grp-0"].Key

	exported := u.Credentials()[0]
	if exported.Key == own || exported.Key.A == own.A {
		t.Fatal("Credentials aliases the user's key")
	}

	device, err := NewUser(tb.cfg, Identity{Essential: "device"}, tb.no.Authority(), tb.no.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := device.InstallCredential(exported); err != nil {
		t.Fatal(err)
	}
	installed := device.creds["grp-0"]
	if installed.Key == exported.Key || installed.Key.A == exported.Key.A {
		t.Fatal("InstallCredential aliases the provisioned key")
	}
	if !installed.Key.A.Equal(own.A) || installed.Index != exported.Index || installed.Group != "grp-0" {
		t.Fatal("installed credential differs from the exported one")
	}
}

func TestEnrollmentCapacityExhausted(t *testing.T) {
	clock := &FixedClock{T: testbedEpoch}
	cfg := Config{Clock: clock}
	no, err := NewNetworkOperator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ttp, err := NewTTP(cfg, no.Authority())
	if err != nil {
		t.Fatal(err)
	}
	gm, err := NewGroupManager(cfg, "tiny", no.Authority())
	if err != nil {
		t.Fatal(err)
	}
	if err := no.RegisterUserGroup(gm, ttp, 1); err != nil {
		t.Fatal(err)
	}

	u1, err := NewUser(cfg, Identity{Essential: "first"}, no.Authority(), no.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := EnrollUser(u1, gm, ttp); err != nil {
		t.Fatal(err)
	}

	u2, err := NewUser(cfg, Identity{Essential: "second"}, no.Authority(), no.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := EnrollUser(u2, gm, ttp); !errors.Is(err, ErrNoKeysLeft) {
		t.Fatalf("want ErrNoKeysLeft, got %v", err)
	}
}

func TestDuplicateGroupRegistrationRejected(t *testing.T) {
	tb := newTestbed(t, 1, 1, 0)
	gm := tb.gms["grp-0"]
	if err := tb.no.RegisterUserGroup(gm, tb.ttp, 2); err == nil {
		t.Fatal("duplicate group registration accepted")
	}
}

func TestBundleSignaturesChecked(t *testing.T) {
	clock := &FixedClock{T: testbedEpoch}
	cfg := Config{Clock: clock}
	no, err := NewNetworkOperator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := NewGroupManager(cfg, "g", no.Authority())
	if err != nil {
		t.Fatal(err)
	}

	// A bundle without a valid NO signature is rejected by the GM.
	bad := &GMKeyBundle{
		Group:     "g",
		Grp:       big.NewInt(42),
		Xs:        []*big.Int{big.NewInt(7)},
		Signature: []byte{0x30, 0x00},
	}
	if _, err := gm.ReceiveBundle(bad); err == nil {
		t.Fatal("unsigned GM bundle accepted")
	}

	ttp, err := NewTTP(cfg, no.Authority())
	if err != nil {
		t.Fatal(err)
	}
	badTTP := &TTPKeyBundle{Group: "g", Masked: [][]byte{{1, 2, 3}}, Signature: []byte{0x30, 0x00}}
	if _, err := ttp.ReceiveBundle(badTTP); err == nil {
		t.Fatal("unsigned TTP bundle accepted")
	}
}

func TestTTPSlotDoubleDeliveryRejected(t *testing.T) {
	tb := newTestbed(t, 1, 1, 0)
	// Slot 0 of grp-0 went to user 0; delivering it to someone else fails.
	if _, err := tb.ttp.DeliverToUser("intruder", "grp-0", 0); err == nil {
		t.Fatal("TTP re-delivered an assigned slot to a different user")
	}
	// Unknown group and out-of-range slots fail too.
	if _, err := tb.ttp.DeliverToUser("u", "nope", 0); err == nil {
		t.Fatal("TTP delivered for unknown group")
	}
	if _, err := tb.ttp.DeliverToUser("u", "grp-0", 9999); err == nil {
		t.Fatal("TTP delivered out-of-range slot")
	}
}

func TestReceiptVerification(t *testing.T) {
	tb := newTestbed(t, 1, 1, 0)
	gm := tb.gms["grp-0"]

	rcpt, payload := gm.BundleReceipt()
	if rcpt == nil {
		t.Fatal("GM kept no bundle receipt")
	}
	if err := rcpt.Verify(gm.Public(), payload); err != nil {
		t.Fatal(err)
	}
	// Receipt over different payload fails.
	if err := rcpt.Verify(gm.Public(), append(payload, 1)); err == nil {
		t.Fatal("receipt verified against altered payload")
	}
	// Nil receipt is ErrReceiptMissing.
	var missing *Receipt
	if err := missing.Verify(gm.Public(), payload); !errors.Is(err, ErrReceiptMissing) {
		t.Fatalf("want ErrReceiptMissing, got %v", err)
	}
}

func TestCorruptedMaskedTokenRejected(t *testing.T) {
	clock := &FixedClock{T: testbedEpoch}
	cfg := Config{Clock: clock}
	no, err := NewNetworkOperator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ttp, err := NewTTP(cfg, no.Authority())
	if err != nil {
		t.Fatal(err)
	}
	gm, err := NewGroupManager(cfg, "g", no.Authority())
	if err != nil {
		t.Fatal(err)
	}
	if err := no.RegisterUserGroup(gm, ttp, 1); err != nil {
		t.Fatal(err)
	}
	u, err := NewUser(cfg, Identity{Essential: "u"}, no.Authority(), no.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	assign, err := gm.EnrollUser(u.ID(), u.ReceiptKey())
	if err != nil {
		t.Fatal(err)
	}
	masked, err := ttp.DeliverToUser(u.ID(), assign.Group, assign.Index)
	if err != nil {
		t.Fatal(err)
	}
	masked[0] ^= 0xFF
	if _, _, err := u.AcceptCredential(assign, masked); err == nil {
		t.Fatal("user accepted a corrupted credential")
	}
}
