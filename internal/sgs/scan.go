package sgs

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/peace-mesh/peace/internal/bn256"
)

// tokenSet is a token list as the Eq.3 scan reads it: the tokens, and
// their A_i packed eight to a vector when bn256 has the kernels for that
// and the list is long enough to gain from them (lanes is nil otherwise —
// the rule is bn256.PackG1Lanes's, this package has none of its own). A
// tokenSet is immutable.
type tokenSet struct {
	tokens []*RevocationToken
	lanes  *bn256.G1Lanes
}

func newTokenSet(tokens []*RevocationToken) tokenSet {
	points := make([]*bn256.G1, len(tokens))
	for i, tok := range tokens {
		points[i] = tok.A
	}
	return tokenSet{tokens: tokens, lanes: bn256.PackG1Lanes(points)}
}

// scan is the paper's Eq.3 over a token list, the only implementation of it
// in this package: it returns the smallest i for which token A_i matches
// the signature,
//
//	e(T2/A_i, û) = e(T1, v̂),
//
// or −1 when none does. û and v̂ arrive prepared; workers goroutines (at
// least one, at most GOMAXPROCS) share the list.
//
// A packed set is tested eight tokens to a pass. Moving everything to one
// side, the equation is e(A_i, û)·M = 1 with M = e(T2, û)⁻¹·e(T1, v̂), the
// same for every token: M is one two-pairing Miller product per signature,
// left un-finalized, and each pass pairs eight A_i against û in the
// lane-parallel tower, multiplies M into the eight Miller values and
// finalizes them together. An unpacked set is tested a token at a time as
// the equation is written, one prepared Miller loop over T2/A_i times the
// shared e(T1, v̂)⁻¹ Miller value, finalized. Either way a token costs no
// more than one Miller loop and one final exponentiation, and what is
// compared with 1 is the same GT element.
func scan(sig *Signature, uhatPrep, vhatPrep *bn256.PreparedG2, set tokenSet, workers int) int {
	if len(set.tokens) == 0 {
		return -1
	}
	if set.lanes != nil {
		m := bn256.MillerCombined(
			[]*bn256.PreparedG2{uhatPrep, vhatPrep},
			[]*bn256.G1{new(bn256.G1).Neg(sig.T2), sig.T1},
		)
		return firstMatch(set.lanes.Chunks(), bn256.Lanes, workers, func(chunk int) int {
			for j, v := range uhatPrep.PairLanes(set.lanes, chunk, m) {
				if v.IsOne() {
					return chunk*bn256.Lanes + j
				}
			}
			return -1
		})
	}

	mRight := vhatPrep.Miller(new(bn256.G1).Neg(sig.T1))
	return firstMatch(len(set.tokens), 1, workers, func(i int) int {
		quot := new(bn256.G1).Neg(set.tokens[i].A)
		quot.Add(sig.T2, quot) // T2/A in multiplicative notation
		acc := uhatPrep.Miller(quot)
		acc.Add(acc, mRight)
		if acc.Finalize().IsOne() {
			return i
		}
		return -1
	})
}

// scanBases is scan for callers that hold û and v̂ unprepared. It charges
// ct the paper's two pairings for every token up to and including the
// match, whichever way the tokens were tested.
func scanBases(sig *Signature, uhat, vhat *bn256.G2, tokens []*RevocationToken, ct counter) int {
	if len(tokens) == 0 {
		return -1
	}
	idx := scan(sig, bn256.PrepareG2(uhat), bn256.PrepareG2(vhat), newTokenSet(tokens), runtime.GOMAXPROCS(0))
	if idx < 0 {
		ct.pairing(2 * len(tokens))
	} else {
		ct.pairing(2 * (idx + 1))
	}
	return idx
}

// firstMatch runs test on units 0..units−1, each covering stride
// consecutive token indices, and returns the smallest index any test
// returned, or −1 when all returned −1. test(u) must return the smallest
// match within unit u.
func firstMatch(units, stride, workers int, test func(unit int) int) int {
	// More workers than cores only adds scheduler churn on this CPU-bound
	// loop; more workers than units leaves goroutines with nothing to do.
	workers = max(1, min(workers, units, runtime.GOMAXPROCS(0)))

	var next, found atomic.Int64
	found.Store(math.MaxInt64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := next.Add(1) - 1
				// Units are dispensed in order and found only decreases,
				// so skipping a unit that starts at or past found never
				// skips a smaller match.
				if u >= int64(units) || u*int64(stride) >= found.Load() {
					return
				}
				if i := int64(test(int(u))); i >= 0 {
					for cur := found.Load(); i < cur && !found.CompareAndSwap(cur, i); cur = found.Load() {
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	if idx := found.Load(); idx != math.MaxInt64 {
		return int(idx)
	}
	return -1
}
