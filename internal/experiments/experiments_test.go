package experiments

import (
	"crypto/rand"
	"testing"

	"github.com/peace-mesh/peace/internal/sgs"
	"github.com/peace-mesh/peace/internal/transport"
)

func TestE1SignatureSize(t *testing.T) {
	rep, err := RunE1Size()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PaperSignatureBits != 1192 {
		t.Errorf("paper bits = %d, want 1192", rep.PaperSignatureBits)
	}
	// 2·G1 + 5·Zp on BN256 = 2·512 + 5·256 = 2304 bits.
	if rep.MeasuredSignatureBits != 2304 {
		t.Errorf("measured bits = %d, want 2304", rep.MeasuredSignatureBits)
	}
	// Shape check from the paper: group signature ≈ RSA-1024 under the
	// paper's parameterization (within 20%).
	ratio := float64(rep.PaperSignatureBits) / float64(rep.RSA1024Bits)
	if ratio < 1.0 || ratio > 1.25 {
		t.Errorf("paper-parameterization ratio vs RSA-1024 = %.2f, want ≈1.16", ratio)
	}
	for _, k := range []string{"M.1 beacon", "M.2 access request", "M.3 confirm"} {
		if rep.MessageSizes[k] == 0 {
			t.Errorf("message size for %q missing", k)
		}
	}
	// M.2 is dominated by the group signature.
	if rep.MessageSizes["M.2 access request"] < rep.MeasuredSignatureBytes {
		t.Error("M.2 smaller than the signature it carries")
	}
	// Revocation distribution: the beacon names epochs, not entries, so it
	// is the same size at |URL| 0 and 16, and a warm client's one-entry
	// delta is cheaper than the cold client's snapshot.
	if b := rep.BeaconBytes; b[0] == 0 || b[0] != b[1] {
		t.Errorf("beacon bytes at |URL| 0 and %d = %v, want equal and non-zero", E1URLSize, b)
	}
	if rep.DeltaBytes == 0 || rep.DeltaBytes >= rep.SnapshotBytes {
		t.Errorf("one-entry delta %d B, snapshot at |URL| %d %d B: want the delta smaller",
			rep.DeltaBytes, E1URLSize, rep.SnapshotBytes)
	}
}

func TestE2OpCounts(t *testing.T) {
	rep, err := RunE2OpCounts(3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SignMatches {
		t.Errorf("sign counts %+v do not match paper (8 exp, 2 pairings)", rep.Sign)
	}
	if !rep.VerifyMatches {
		t.Errorf("verify counts %+v do not match paper (6 exp, 3 pairings)", rep.Verify)
	}
	// With |URL| = 3 the total pairings should be 2 (verify) + 2 (derive
	// is exps) ... paper formula: 3 + 2·|URL| with the cached e(g1,g2) as
	// one of the 3.
	wantPairings := 2 + 2*rep.URLSize
	if rep.VerifyWithURL.Pairings != wantPairings {
		t.Errorf("verify+URL pairings = %d, want %d", rep.VerifyWithURL.Pairings, wantPairings)
	}
}

func TestE3RevocationSweepShape(t *testing.T) {
	pts, err := RunE3RevocationSweep([]int{0, 2, 32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	// Pairing counts follow the paper's formulas exactly.
	for _, pt := range pts {
		if want := 2 + 2*pt.URLSize; pt.LinearPairings != want {
			t.Errorf("|URL|=%d: linear pairings = %d, want %d", pt.URLSize, pt.LinearPairings, want)
		}
		if pt.FastPairings != 5 {
			t.Errorf("|URL|=%d: fast pairings = %d, want 5", pt.URLSize, pt.FastPairings)
		}
	}
	// Shape, counted rather than timed: the linear check grows with |URL|
	// (above), the fast one stays at 5 (above), and by |URL| = 32 the
	// fast variant charges fewer pairings.
	if pts[2].FastPairings >= pts[2].LinearPairings {
		t.Errorf("fast variant no cheaper at |URL|=32: fast=%d linear=%d pairings", pts[2].FastPairings, pts[2].LinearPairings)
	}
}

// TestKnownGapFixedGeneratorsLinkable states the price of E3's fast
// variant from public data alone: under bases fixed per group, every
// encryption of one member's token gives the same index key e(A, û), so
// the O(1) index links a user's signatures for everyone; BS04 §7 scopes it
// to an epoch. It is why the protocol signs under per-message bases only.
// It asserts the behaviour of fixedIndex, not a goal.
func TestKnownGapFixedGeneratorsLinkable(t *testing.T) {
	iss, err := sgs.NewIssuer(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := iss.NewGroupComponent(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := iss.IssueBatch(rand.Reader, grp, 2)
	if err != nil {
		t.Fatal(err)
	}
	idx := newFixedIndex(iss.PublicKey(), []*sgs.RevocationToken{keys[1].Token()})
	key := func(member int) string {
		t.Helper()
		t1, t2, err := idx.encrypt(rand.Reader, keys[member].Token())
		if err != nil {
			t.Fatal(err)
		}
		if revoked, i := idx.check(t1, t2); revoked != (member == 1) || (revoked && i != 0) {
			t.Fatalf("member %d: check = (%v, %d)", member, revoked, i)
		}
		return idx.key(t1, t2)
	}

	first, second := key(0), key(0)
	if first != second {
		t.Fatal("two encryptions of one member's token give different keys — " +
			"if the fixed bases became per-epoch or per-message, restate this test")
	}
	if key(1) == first {
		t.Fatal("two members' tokens give the same key")
	}
}

// TestE4HandshakeShape counts one attach on a tapped testbed link: one M.1,
// one M.2 and one M.3, next to the solicit that unicast UDP adds.
func TestE4HandshakeShape(t *testing.T) {
	rep, err := RunE4Handshake()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ThreeMessages {
		t.Errorf("three-message property not observed: %v", rep.Frames)
	}
	if n := rep.Frames[transport.KindBeaconRequest]; n != 1 {
		t.Errorf("beacon solicits = %d, want 1", n)
	}
}

func TestE5HybridShape(t *testing.T) {
	rep, err := RunE5Hybrid(64)
	if err != nil {
		t.Fatal(err)
	}
	// The hybrid design's whole point, in what it computes per message: a
	// group-signature verification is 6 exponentiations and 3 pairings (one
	// of them the cached e(g1, g2) raised in GT), the symmetric path none of
	// either. The measured ratio is peacebench -exp e5's business, where
	// -iters makes it meaningful; 64 sub-microsecond MAC checks do not.
	if c := rep.GroupVerifyCounts; c.Exps != 6 || c.Pairings+c.GTExps != 3 {
		t.Errorf("group verification counts %+v, want 6 exponentiations and 3 pairings", c)
	}
	if rep.SymmetricGroupVerifications != 0 {
		t.Errorf("router ran %d group-signature verifications while opening MAC and AEAD frames, want 0",
			rep.SymmetricGroupVerifications)
	}
	if !rep.GroupAccepts || !rep.MACAccepts {
		t.Errorf("genuine message: group signature accepts = %v, MAC accepts = %v", rep.GroupAccepts, rep.MACAccepts)
	}
	if !rep.GroupRejectsTampered || !rep.MACRejectsTampered {
		t.Errorf("flipped payload bit: group signature rejects = %v, MAC rejects = %v",
			rep.GroupRejectsTampered, rep.MACRejectsTampered)
	}
	if rep.SpeedupAuth <= 0 || rep.MACVerifyTime <= 0 || rep.GroupVerifyTime <= 0 {
		t.Error("degenerate timings")
	}
}

// TestE6DoSShape holds the flood to exact counts: off, every forged M.2
// costs a verification; on, the router verifies the legitimate attach and
// nothing else, and sheds the whole flood at the puzzle gate.
func TestE6DoSShape(t *testing.T) {
	const flood = 20
	rows, err := RunE6DoS([]int{flood})
	if err != nil {
		t.Fatal(err)
	}
	var off, on E6DoSRow
	for _, r := range rows {
		if r.PuzzlesEnabled {
			on = r
		} else {
			off = r
		}
	}
	if !off.LegitimateAttached || !on.LegitimateAttached {
		t.Error("legitimate user failed to attach")
	}
	if off.ExpensiveVerifications != flood+1 {
		t.Errorf("puzzles off: %d expensive verifications, want %d (flood + the legitimate attach)",
			off.ExpensiveVerifications, flood+1)
	}
	if on.ExpensiveVerifications != 1 {
		t.Errorf("puzzles on: %d expensive verifications, want 1 (the legitimate attach)", on.ExpensiveVerifications)
	}
	if on.ShedCheaply != flood {
		t.Errorf("puzzles on: %d shed cheaply, want the flood's %d", on.ShedCheaply, flood)
	}
}

func TestE7AuditShape(t *testing.T) {
	// One pass of eight tokens against eight passes: 4 and 16 would be one
	// pass against two side by side on two CPUs, which no clock separates.
	pts, err := RunE7AuditSweep([]int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].TokensScanned != 8 || pts[1].TokensScanned != 64 {
		t.Errorf("scans = %d, %d; want full-population scans 8, 64",
			pts[0].TokensScanned, pts[1].TokensScanned)
	}
	// The cost, counted: two pairings per token scanned, so the charge
	// grows 16 → 128 as the population does.
	for _, pt := range pts {
		if pt.PairingsCharged != 2*pt.TokensScanned {
			t.Errorf("|grt|=%d: %d pairings charged for %d tokens scanned, want two per token",
				pt.GrtSize, pt.PairingsCharged, pt.TokensScanned)
		}
	}
	if pts[1].PairingsCharged <= pts[0].PairingsCharged {
		t.Errorf("pairings charged did not grow with |grt|: %d → %d", pts[0].PairingsCharged, pts[1].PairingsCharged)
	}
}

func TestE7Trace(t *testing.T) {
	rep, err := RunE7Trace()
	if err != nil {
		t.Fatal(err)
	}
	if rep.User == "" {
		t.Error("trace produced no uid")
	}
	if !rep.ReceiptVerified {
		t.Error("receipt chain unverified")
	}
	if rep.Audit.Group != "grp-1" {
		t.Errorf("audit group = %q, want grp-1", rep.Audit.Group)
	}
}

func TestE8AllAttacksFail(t *testing.T) {
	rows, err := RunE8Attacks()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("scenarios = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Succeeded != 0 {
			t.Errorf("scenario %q: %d/%d attacks succeeded", r.Scenario, r.Succeeded, r.Attempts)
		}
		if r.Attempts == 0 {
			t.Errorf("scenario %q launched no attacks", r.Scenario)
		}
	}
}

// TestE9PrivacyReport checks E9's verdicts: every property holds except
// unlinkability, which the token-recovery attack breaks on every transcript
// until ROADMAP item 1(1) lands — then this test must flip.
func TestE9PrivacyReport(t *testing.T) {
	rep, err := RunE9Privacy(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Notes) != 0 {
		t.Fatalf("privacy property failures: %v", rep.Notes)
	}
	if !rep.TranscriptsLeakNoUID || !rep.SignaturesFresh ||
		!rep.SessionIDsFresh || !rep.OperatorLearnsGroupOnly ||
		!rep.CompromisedMemberCannotLink || !rep.GMBlind {
		t.Fatal("a privacy flag is false without a note")
	}
	if rep.SignaturesUnlinkable || rep.TokensRecovered != rep.Transcripts || rep.Transcripts != 3 {
		t.Fatalf("token recovery linked %d of %d transcripts (unlinkable = %v): "+
			"if H0 was fixed, flip this test", rep.TokensRecovered, rep.Transcripts, rep.SignaturesUnlinkable)
	}
}

func TestE4LossyAttachment(t *testing.T) {
	rows, err := RunE4Lossy([]float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Attached != r.Users {
			t.Errorf("loss=%.1f: attached %d/%d in %d attempts", r.Loss, r.Attached, r.Users, r.Attempts)
		}
	}
	if rows[0].Dropped != 0 || rows[1].Dropped == 0 {
		t.Errorf("datagrams dropped: %d at no loss, %d at 30%%", rows[0].Dropped, rows[1].Dropped)
	}
}
