package experiments

import (
	"crypto/rand"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/sgs"
)

// E5HybridReport reproduces the rationale for PEACE's hybrid
// asymmetric/symmetric session design (Section V.C): group signatures are
// executed once per session; per-message authentication falls back to
// MACs, which are orders of magnitude cheaper.
type E5HybridReport struct {
	// GroupSignTime / GroupVerifyTime: the asymmetric per-message cost a
	// naive design would pay.
	GroupSignTime   time.Duration
	GroupVerifyTime time.Duration
	// MACTime / MACVerifyTime: the hybrid design's per-message cost.
	MACTime       time.Duration
	MACVerifyTime time.Duration
	// SealTime / OpenTime: the AEAD path (encrypt + authenticate).
	SealTime time.Duration
	OpenTime time.Duration
	// SpeedupAuth is GroupVerifyTime / MACVerifyTime.
	SpeedupAuth float64

	// What the experiment states without a stopwatch. GroupVerifyCounts
	// is what one group-signature verification performs, and
	// SymmetricGroupVerifications how many of them the router ran while
	// opening every MAC and AEAD frame of the run: none, so per message
	// the symmetric path is zero pairings and zero exponentiations against
	// those counts.
	GroupVerifyCounts           sgs.OpCounts
	SymmetricGroupVerifications int
	// Both paths reach the same verdicts on the same traffic: the genuine
	// message is accepted and a copy with one payload bit flipped is not.
	GroupAccepts, GroupRejectsTampered bool
	MACAccepts, MACRejectsTampered     bool
}

// RunE5Hybrid times both authentication paths; iters controls the
// symmetric-path sample count (the asymmetric path is capped at 8 since a
// pairing-based signature costs ~10⁵× a MAC).
func RunE5Hybrid(iters int) (*E5HybridReport, error) {
	if iters < 1 {
		iters = 1
	}
	payload := make([]byte, 256)

	// Asymmetric path: bare group signature sign/verify.
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
	pub := iss.PublicKey()

	sigIters := iters
	if sigIters > 8 {
		sigIters = 8
	}
	var lastSig *sgs.Signature
	start := time.Now()
	for i := 0; i < sigIters; i++ {
		lastSig, err = sgs.Sign(rand.Reader, pub, key, payload)
		if err != nil {
			return nil, err
		}
	}
	rep := &E5HybridReport{}
	rep.GroupSignTime = time.Since(start) / time.Duration(sigIters)

	start = time.Now()
	for i := 0; i < sigIters; i++ {
		if err := sgs.Verify(pub, payload, lastSig); err != nil {
			return nil, err
		}
	}
	rep.GroupVerifyTime = time.Since(start) / time.Duration(sigIters)

	tampered := append([]byte(nil), payload...)
	tampered[0] ^= 1
	rep.GroupVerifyCounts, err = sgs.VerifyCounted(pub, payload, lastSig)
	rep.GroupAccepts = err == nil
	rep.GroupRejectsTampered = sgs.Verify(pub, tampered, lastSig) != nil

	// Symmetric paths over an established session.
	f, err := newFixture(1, 1)
	if err != nil {
		return nil, err
	}
	_, _, _, us, rs, err := f.handshake(f.users[0], "grp-0")
	if err != nil {
		return nil, err
	}

	verificationsBefore := f.router.Stats().ExpensiveVerifications

	forged := us.AuthData(payload)
	forged.Payload[0] ^= 1
	_, err = rs.OpenData(forged)
	rep.MACRejectsTampered = err != nil
	_, err = rs.OpenData(us.AuthData(payload))
	rep.MACAccepts = err == nil

	macFrames := make([]*core.DataFrame, 0, iters)
	start = time.Now()
	for i := 0; i < iters; i++ {
		macFrames = append(macFrames, us.AuthData(payload))
	}
	rep.MACTime = time.Since(start) / time.Duration(iters)

	start = time.Now()
	for _, fr := range macFrames {
		if _, err := rs.OpenData(fr); err != nil {
			return nil, err
		}
	}
	rep.MACVerifyTime = time.Since(start) / time.Duration(iters)

	sealed := make([]*core.DataFrame, 0, iters)
	start = time.Now()
	for i := 0; i < iters; i++ {
		fr, err := us.SealData(rand.Reader, payload)
		if err != nil {
			return nil, err
		}
		sealed = append(sealed, fr)
	}
	rep.SealTime = time.Since(start) / time.Duration(iters)

	start = time.Now()
	for _, fr := range sealed {
		if _, err := rs.OpenData(fr); err != nil {
			return nil, err
		}
	}
	rep.OpenTime = time.Since(start) / time.Duration(iters)
	rep.SymmetricGroupVerifications = f.router.Stats().ExpensiveVerifications - verificationsBefore

	if rep.MACVerifyTime > 0 {
		rep.SpeedupAuth = float64(rep.GroupVerifyTime) / float64(rep.MACVerifyTime)
	}
	return rep, nil
}
