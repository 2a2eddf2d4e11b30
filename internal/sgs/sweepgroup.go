package sgs

import "github.com/peace-mesh/peace/internal/bn256"

// SweepGroup is the revocation check (the paper's Eq.3) of a group of
// signatures against one token list, with each signature's set-up done for
// the whole group at once: what a signature brings to its scan is its own
// û and v̂, prepared, and the Miller product M = e(−T2, û)·e(T1, v̂) every
// token's pairing is multiplied by (see scan). Where the token passes run on
// the lanes and bn256.PackG1Lanes selects them for the group's T2 (the
// kernels exist and there are at least two signatures), the group's û are
// prepared eight to a walk of the lane-parallel tower and every M comes out
// of one two-factor lane pass with a Q per lane, which walks v̂ as it goes;
// each signature's token passes then read its û from its lane. Otherwise
// each signature is set up on the scalar tower, as a lone signature is. The
// verdicts are the same either way.
//
// Check answers one signature; its scan shares the token passes among the
// sweep's workers.
type SweepGroup struct {
	set     tokenSet
	workers int
	items   []BatchItem
	setups  []sweepSetup

	onLanes bool     // whether the set-up ran on the lanes
	counts  OpCounts // what the set-up ran
}

// setupSweep sets up items for scans of set with workers goroutines each.
// Only what it is given is derived, prepared or paired, so a caller that
// passes only verified signatures keeps a forged one from costing set-up.
func (v *Verifier) setupSweep(items []BatchItem, set tokenSet, workers int) *SweepGroup {
	g := &SweepGroup{set: set, workers: workers, items: items, setups: make([]sweepSetup, len(items))}
	if len(set.tokens) == 0 {
		return g
	}

	uhats, vhats := make([]*bn256.G2, len(items)), make([]*bn256.G2, len(items))
	negT2, t1 := make([]*bn256.G1, len(items)), make([]*bn256.G1, len(items))
	for i, it := range items {
		uhats[i], vhats[i] = deriveG2Generators(v.pk, it.Msg, it.Sig.R, counter{&g.counts})
		negT2[i], t1[i] = new(bn256.G1).Neg(it.Sig.T2), it.Sig.T1
	}

	var t2Lanes *bn256.G1Lanes
	if set.lanes != nil {
		t2Lanes = bn256.PackG1Lanes(negT2)
	}
	if t2Lanes == nil {
		for i, it := range items {
			g.setups[i] = setupScalar(it.Sig, bn256.PrepareG2(uhats[i]), bn256.PrepareG2(vhats[i]), set)
		}
		return g
	}
	t1Lanes := bn256.PackG1Lanes(t1)
	g.onLanes = true
	for c := 0; c < t2Lanes.Chunks(); c++ {
		lo, hi := c*bn256.Lanes, min((c+1)*bn256.Lanes, len(items))
		// û's lines are kept for the token passes; v̂ is walked once.
		uh := bn256.PrepareG2Lanes(uhats[lo:hi])
		ms := bn256.MillerLanes([]*bn256.G2Lanes{uh, bn256.PackG2Lanes(vhats[lo:hi])}, []*bn256.G1Lanes{t2Lanes, t1Lanes}, c)
		for k, m := range ms {
			g.setups[lo+k] = sweepSetup{uhat: uh.Lane(k), m: m}
		}
	}
	return g
}

// SetupCounts returns what the group's set-up ran, in OpCounts' terms: a
// hash and two G2 exponentiations (û and v̂) for every signature, and
// nothing when the list is empty. The pairings of the token passes are not
// in it.
func (g *SweepGroup) SetupCounts() OpCounts { return g.counts }

// Check reports whether the signer of item i is revoked and, if so, the
// smallest matching token index: the verdict the paper's Eq.3 gives that
// signature alone.
func (g *SweepGroup) Check(i int) (bool, int) {
	if len(g.set.tokens) == 0 {
		return false, -1
	}
	idx := scan(g.items[i].Sig, g.setups[i], g.set, g.workers)
	return idx >= 0, idx
}
