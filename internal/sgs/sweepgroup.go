package sgs

import "github.com/peace-mesh/peace/internal/bn256"

// SweepGroup is the revocation check (the paper's Eq.3) of a group of
// signatures against one token list, with each signature's set-up done for
// the whole group at once: what a signature brings to its scan is its own
// û and v̂, prepared, and the Miller product M = e(−T2, û)·e(T1, v̂) every
// token's pairing is multiplied by (see scan). Where the token passes run on
// the lanes and bn256.PackG1Lanes selects them for the group's T2 (the
// kernels exist and there are at least two per-message signatures), the
// group's û are prepared eight to a walk of the lane-parallel tower and
// every M comes out of one two-factor lane pass with a Q per lane, which
// walks v̂ as it goes; each signature's token passes then read its û from
// its lane. Otherwise each
// signature is set up on the scalar tower, as a lone signature is. The
// verdicts are the same either way.
//
// Check answers one signature; its scan shares the token passes among the
// sweep's workers.
type SweepGroup struct {
	set     tokenSet
	workers int
	items   []BatchItem
	setups  []sweepSetup // zero for a signature the fast index answers

	// fast, when not nil, answers FixedGenerators signatures from the
	// epoch's e(A, û) index instead of a scan.
	fast func() *FastRevocationChecker

	onLanes bool     // whether the set-up ran on the lanes
	counts  OpCounts // what the set-up ran
}

// setupSweep sets up items for scans of set with workers goroutines each.
// Only what it is given is derived, prepared or paired, so a caller that
// passes only verified signatures keeps a forged one from costing set-up.
func (v *Verifier) setupSweep(items []BatchItem, set tokenSet, workers int, fast func() *FastRevocationChecker) *SweepGroup {
	g := &SweepGroup{set: set, workers: workers, items: items, fast: fast, setups: make([]sweepSetup, len(items))}
	if len(set.tokens) == 0 {
		return g
	}

	var perMsg []int // the items that derive their own û and v̂
	for i, it := range items {
		switch {
		case it.Sig.Mode != FixedGenerators:
			perMsg = append(perMsg, i)
		case fast == nil:
			f := v.fixedGenerators()
			g.setups[i] = setupScalar(it.Sig, f.uhatPrep, f.vhatPrep, set)
		}
	}
	if len(perMsg) == 0 {
		return g
	}
	uhats, vhats := make([]*bn256.G2, len(perMsg)), make([]*bn256.G2, len(perMsg))
	negT2, t1 := make([]*bn256.G1, len(perMsg)), make([]*bn256.G1, len(perMsg))
	for j, i := range perMsg {
		sig := items[i].Sig
		uhats[j], vhats[j] = deriveG2Generators(v.pk, sig.Mode, items[i].Msg, sig.R, counter{&g.counts})
		negT2[j], t1[j] = new(bn256.G1).Neg(sig.T2), sig.T1
	}

	var t2Lanes *bn256.G1Lanes
	if set.lanes != nil {
		t2Lanes = bn256.PackG1Lanes(negT2)
	}
	if t2Lanes == nil {
		for j, i := range perMsg {
			g.setups[i] = setupScalar(items[i].Sig, bn256.PrepareG2(uhats[j]), bn256.PrepareG2(vhats[j]), set)
		}
		return g
	}
	t1Lanes := bn256.PackG1Lanes(t1)
	g.onLanes = true
	for c := 0; c < t2Lanes.Chunks(); c++ {
		lo, hi := c*bn256.Lanes, min((c+1)*bn256.Lanes, len(perMsg))
		// û's lines are kept for the token passes; v̂ is walked once.
		uh := bn256.PrepareG2Lanes(uhats[lo:hi])
		ms := bn256.MillerLanes([]*bn256.G2Lanes{uh, bn256.PackG2Lanes(vhats[lo:hi])}, []*bn256.G1Lanes{t2Lanes, t1Lanes}, c)
		for k, m := range ms {
			g.setups[perMsg[lo+k]] = sweepSetup{uhat: uh.Lane(k), m: m}
		}
	}
	return g
}

// SetupCounts returns what the group's set-up ran, in OpCounts' terms: a
// hash and two G2 exponentiations (û and v̂) for every per-message
// signature it derived bases for, and nothing for the rest. The pairings
// of the token passes are not in it.
func (g *SweepGroup) SetupCounts() OpCounts { return g.counts }

// Check reports whether the signer of item i is revoked and, if so, the
// smallest matching token index: the verdict the paper's Eq.3 gives that
// signature alone.
func (g *SweepGroup) Check(i int) (bool, int) {
	if len(g.set.tokens) == 0 {
		return false, -1
	}
	sig := g.items[i].Sig
	if sig.Mode == FixedGenerators && g.fast != nil {
		// IsRevoked's one error is a signature in another mode.
		revoked, idx, _ := g.fast().IsRevoked(sig)
		return revoked, idx
	}
	idx := scan(sig, g.setups[i], g.set, g.workers)
	return idx >= 0, idx
}
