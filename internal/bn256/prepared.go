package bn256

// PreparedG2 caches the Miller-loop line computations for a fixed G2
// argument. The optimal ate Miller loop walks a fixed schedule (doublings,
// ±Q additions, two Frobenius additions) over the twist point Q, and the
// projective line coefficients of every step depend only on Q; the two
// G1-dependent coefficients are cheap per-evaluation scalar products with
// x_P and y_P. Precomputing the Q-side takes about a third off evaluating
// e(·, Q) against many G1 points (batch verification, revocation sweeps
// against a fixed û).
//
// A PreparedG2 is immutable after construction and safe for concurrent
// use by multiple goroutines.
type PreparedG2 struct {
	infinity bool
	steps    []preparedLine
}

// PrepareG2 runs the Miller schedule once for q and records the line
// coefficients. The cost is about a third of one Miller loop.
func PrepareG2(q *G2) *PreparedG2 {
	if q.p.IsInfinity() {
		return &PreparedG2{infinity: true}
	}
	return &PreparedG2{steps: prepareLines(q.p)}
}

// Miller evaluates the recorded lines at g1, returning the un-finalized
// Miller value exactly as Miller(g1, q) would. Combine values with GT.Add
// and reduce once with GT.Finalize.
func (pq *PreparedG2) Miller(g1 *G1) *GT {
	if pq.infinity || g1.p.IsInfinity() {
		return &GT{p: newGFp12().SetOne()}
	}
	return &GT{p: evalMiller(pq.steps, g1.p)}
}

// Pair evaluates the full pairing e(g1, Q) via the prepared lines.
func (pq *PreparedG2) Pair(g1 *G1) *GT {
	return pq.Miller(g1).Finalize()
}

// MillerCombined evaluates the product of the Miller values of (Q_i, P_i)
// for several prepared Q_i in a single pass. All Miller loops walk the same
// schedule, so the per-digit squaring of the accumulator can be shared
// across the product: n pairings cost one squaring chain plus n sets of
// line multiplications, instead of n of each. Identity arguments on either
// side contribute the neutral element. The result is un-finalized; reduce
// it with GT.Finalize (possibly after multiplying in further Miller values).
//
// It panics if the slices have different lengths.
func MillerCombined(preps []*PreparedG2, points []*G1) *GT {
	if len(preps) != len(points) {
		panic("bn256: MillerCombined slice length mismatch")
	}
	type active struct {
		steps []preparedLine
		x, y  gfP
	}
	acts := make([]active, 0, len(preps))
	for i, pq := range preps {
		if pq.infinity || points[i].p.IsInfinity() {
			continue
		}
		pa := newCurvePoint().Set(points[i].p)
		pa.MakeAffine()
		acts = append(acts, active{steps: pq.steps, x: pa.x, y: pa.y})
	}

	f := newGFp12().SetOne()
	if len(acts) == 0 {
		return &GT{p: f}
	}
	for i, op := range millerSchedule {
		if op == opDouble && i > 0 {
			f.Square(f)
		}
		for j := range acts {
			a := &acts[j]
			f.mulPreparedLine(&a.steps[i], &a.x, &a.y)
		}
	}
	return &GT{p: f}
}
