package experiments

import (
	"crypto/rand"
	"fmt"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/sgs"
)

// E1URLSize is the |URL| of E1's revocation-distribution rows.
const E1URLSize = 16

// E1SizeReport reproduces the paper's communication-overhead claim
// (Section V.C): a PEACE group signature is 2 G1 elements + 5 Z_p scalars;
// with the paper's 170/171-bit parameterization that is 1,192 bits —
// "almost the same as a standard RSA-1024 signature" (1,024 bits).
type E1SizeReport struct {
	// MeasuredSignatureBytes is the wire size on this repo's BN256 curve.
	MeasuredSignatureBytes int
	// MeasuredSignatureBits excludes the 1-byte mode tag for a fair
	// element-count comparison.
	MeasuredSignatureBits int
	// PaperSignatureBits is 2·171 + 5·170 = 1192.
	PaperSignatureBits int
	// RSA1024Bits is the baseline the paper compares against.
	RSA1024Bits int
	// ECDSAP256Bits is the size of the conventional signature PEACE uses
	// for routers (~72 bytes DER, reported as 576 bits nominal max).
	ECDSAP256Bits int
	// MessageSizes lists the marshaled sizes of each AKA message.
	MessageSizes map[string]int

	// BeaconBytes is the marshaled M.1 at |URL| 0 and at E1URLSize, less
	// the router's ECDSA signature, whose DER encoding takes 70 to 72
	// bytes at random. The beacon carries epoch references, not the list,
	// so the two are equal.
	BeaconBytes [2]int
	// SnapshotBytes is the signed URL snapshot at E1URLSize, what a cold
	// client fetches.
	SnapshotBytes int
	// DeltaBytes is the signed delta revoking one more key, what a warm
	// client fetches instead of the snapshot.
	DeltaBytes int
}

// RunE1Size measures the signature and protocol message sizes.
func RunE1Size() (*E1SizeReport, error) {
	iss, err := sgs.NewIssuer(rand.Reader)
	if err != nil {
		return nil, err
	}
	grp, err := iss.NewGroupComponent(rand.Reader)
	if err != nil {
		return nil, err
	}
	key, err := iss.IssueKey(rand.Reader, grp)
	if err != nil {
		return nil, err
	}
	sig, err := sgs.Sign(rand.Reader, iss.PublicKey(), key, []byte("size probe"))
	if err != nil {
		return nil, err
	}

	rep := &E1SizeReport{
		MeasuredSignatureBytes: len(sig.Bytes()),
		MeasuredSignatureBits:  (len(sig.Bytes()) - 1) * 8,
		PaperSignatureBits:     sgs.PaperSignatureBits(),
		RSA1024Bits:            1024,
		ECDSAP256Bits:          576,
		MessageSizes:           map[string]int{},
	}

	// Element-size sanity for the formula: 2·|G1| + 5·|Z_p|.
	wantBits := (2*bn256.G1Size + 5*32) * 8
	if rep.MeasuredSignatureBits != wantBits {
		return nil, fmt.Errorf("e1: measured %d bits, formula gives %d", rep.MeasuredSignatureBits, wantBits)
	}

	// Marshaled AKA message sizes on this parameterization.
	f, err := newFixture(1, 1)
	if err != nil {
		return nil, err
	}
	m1, m2, m3, us, _, err := f.handshake(f.users[0], "grp-0")
	if err != nil {
		return nil, err
	}
	rep.MessageSizes["M.1 beacon"] = len(m1.Marshal())
	rep.MessageSizes["M.2 access request"] = len(m2.Marshal())
	rep.MessageSizes["M.3 confirm"] = len(m3.Marshal())
	frame, err := us.SealData(rand.Reader, make([]byte, 64))
	if err != nil {
		return nil, err
	}
	rep.MessageSizes["data frame (64B payload)"] = len(frame.Marshal())
	if err := revocationSizes(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// revocationSizes provisions one operator and router, records the
// unsigned M.1 before and after revoking E1URLSize keys and the URL
// snapshot at that size, then revokes one key more and records the delta.
func revocationSizes(rep *E1SizeReport) error {
	clock := &core.FixedClock{T: time.Unix(1751600000, 0)}
	cfg := core.Config{Clock: clock, FreshnessWindow: time.Minute}
	no, err := core.NewNetworkOperator(cfg)
	if err != nil {
		return err
	}
	ttp, err := core.NewTTP(cfg, no.Authority())
	if err != nil {
		return err
	}
	gm, err := core.NewGroupManager(cfg, "e1", no.Authority())
	if err != nil {
		return err
	}
	if err := no.RegisterUserGroup(gm, ttp, E1URLSize+1); err != nil {
		return err
	}
	router, err := core.NewMeshRouter(cfg, "MR-e1", no.Authority(), no.GroupPublicKey())
	if err != nil {
		return err
	}
	c, err := no.EnrollRouter("MR-e1", router.Public())
	if err != nil {
		return err
	}
	router.SetCertificate(c)

	revoke := func(from, to int) error {
		for i := from; i < to; i++ {
			tok, err := no.TokenOf("e1", i)
			if err != nil {
				return err
			}
			no.RevokeUserKey(tok)
		}
		return nil
	}
	beacon := func() (int, error) {
		crl, url, err := no.RevocationBundles()
		if err != nil {
			return 0, err
		}
		if err := router.UpdateRevocations(crl, url); err != nil {
			return 0, err
		}
		b, err := router.Beacon()
		if err != nil {
			return 0, err
		}
		return len(b.Marshal()) - len(b.Signature), nil
	}

	if rep.BeaconBytes[0], err = beacon(); err != nil {
		return err
	}
	if err := revoke(0, E1URLSize); err != nil {
		return err
	}
	if rep.BeaconBytes[1], err = beacon(); err != nil {
		return err
	}
	_, url, err := no.RevocationBundles()
	if err != nil {
		return err
	}
	rep.SnapshotBytes = len(url.Snapshot.Marshal())
	if err := revoke(E1URLSize, E1URLSize+1); err != nil {
		return err
	}
	if _, url, err = no.RevocationBundles(); err != nil {
		return err
	}
	if len(url.Deltas) == 0 {
		return fmt.Errorf("e1: authority issued no delta at |URL| %d", E1URLSize+1)
	}
	rep.DeltaBytes = len(url.Deltas[len(url.Deltas)-1].Marshal())
	return nil
}
