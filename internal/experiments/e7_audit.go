package experiments

import (
	"fmt"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/revocation"
)

// E7AuditPoint is one row of the audit sweep: operator audit latency as a
// function of the issued population |grt| (the paper's audit protocol
// scans grt linearly; each token costs two pairings).
type E7AuditPoint struct {
	GrtSize int
	// AuditTime is the wall time of one worst-case audit (the signer's
	// token is last in grt).
	AuditTime time.Duration
	// TokensScanned is how many Eq.3 tests ran.
	TokensScanned int
	// PerTokenTime = AuditTime / TokensScanned.
	PerTokenTime time.Duration
	// PairingsCharged is what the audit's scan charged: two pairings per
	// token tested.
	PairingsCharged int
}

// E7TraceReport is the end-to-end law-authority trace measurement.
type E7TraceReport struct {
	Audit           core.AuditResult
	User            core.UserID
	ReceiptVerified bool
	TraceTime       time.Duration
}

// RunE7AuditSweep measures worst-case audit latency at each population
// size: a filler group is registered first so the audited user's token
// sits at the end of grt and the scan covers the whole set.
func RunE7AuditSweep(grtSizes []int) ([]E7AuditPoint, error) {
	var out []E7AuditPoint
	for _, size := range grtSizes {
		if size < 2 {
			return nil, fmt.Errorf("e7: grt size must be ≥ 2")
		}
		clock := &core.FixedClock{T: time.Unix(1751600000, 0)}
		cfg := core.Config{Clock: clock, FreshnessWindow: time.Minute}
		no, err := core.NewNetworkOperator(cfg)
		if err != nil {
			return nil, err
		}
		ttp, err := core.NewTTP(cfg, no.Authority())
		if err != nil {
			return nil, err
		}

		// Filler population issued first.
		filler, err := core.NewGroupManager(cfg, "filler", no.Authority())
		if err != nil {
			return nil, err
		}
		if err := no.RegisterUserGroup(filler, ttp, size-1); err != nil {
			return nil, err
		}
		// The audited group last: its single token is scanned last.
		gm, err := core.NewGroupManager(cfg, "audited", no.Authority())
		if err != nil {
			return nil, err
		}
		if err := no.RegisterUserGroup(gm, ttp, 1); err != nil {
			return nil, err
		}
		u, err := core.NewUser(cfg, core.Identity{Essential: "suspect"}, no.Authority(), no.GroupPublicKey())
		if err != nil {
			return nil, err
		}
		if err := core.EnrollUser(u, gm, ttp); err != nil {
			return nil, err
		}

		router, err := core.NewMeshRouter(cfg, "MR-0", no.Authority(), no.GroupPublicKey())
		if err != nil {
			return nil, err
		}
		c, err := no.EnrollRouter("MR-0", router.Public())
		if err != nil {
			return nil, err
		}
		router.SetCertificate(c)
		crl, url, err := no.RevocationBundles()
		if err != nil {
			return nil, err
		}
		if err := router.UpdateRevocations(crl, url); err != nil {
			return nil, err
		}
		for _, snap := range []*revocation.Snapshot{crl.Snapshot, url.Snapshot} {
			if err := u.InstallRevocationSnapshot(snap); err != nil {
				return nil, err
			}
		}

		beacon, err := router.Beacon()
		if err != nil {
			return nil, err
		}
		m2, err := u.HandleBeacon(beacon, "audited")
		if err != nil {
			return nil, err
		}

		start := time.Now()
		res, err := no.Audit(m2)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)

		pt := E7AuditPoint{
			GrtSize:         no.GrtSize(),
			AuditTime:       elapsed,
			TokensScanned:   res.TokensScanned,
			PairingsCharged: res.Pairings,
		}
		if res.TokensScanned > 0 {
			pt.PerTokenTime = elapsed / time.Duration(res.TokensScanned)
		}
		out = append(out, pt)
	}
	return out, nil
}

// RunE7Trace measures one complete law-authority trace.
func RunE7Trace() (*E7TraceReport, error) {
	f, err := newFixture(2, 3)
	if err != nil {
		return nil, err
	}
	u := f.users[4] // a grp-1 member
	_, m2, _, _, _, err := f.handshake(u, u.Groups()[0])
	if err != nil {
		return nil, err
	}

	la := core.NewLawAuthority(f.gms...)
	start := time.Now()
	res, err := la.Trace(f.no, m2)
	if err != nil {
		return nil, err
	}
	return &E7TraceReport{
		Audit:           res.Audit,
		User:            res.User,
		ReceiptVerified: res.ReceiptVerified,
		TraceTime:       time.Since(start),
	}, nil
}
