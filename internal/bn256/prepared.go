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
// use by multiple goroutines. One that G2Lanes.Lane returns reads its lines
// from the G2Lanes.
type PreparedG2 struct {
	infinity bool
	steps    []preparedLine

	// splat is steps in lane form, each line in every lane, for a
	// PreparedG2 that WithLanes returned: the lane passes read it as it
	// lies instead of converting a step's lines on every pass.
	splat []preparedLinex8

	// lanes is the G2Lanes whose lane holds the lines, for a PreparedG2
	// that G2Lanes.Lane returned (steps is nil then).
	lanes *G2Lanes
	lane  int
}

// lines returns the recorded lines, taken out of lane form for a lane of a
// G2Lanes. Only the scalar tower asks for them; the lane passes read a
// G2Lanes lane where it lies.
func (pq *PreparedG2) lines() []preparedLine {
	if pq.lanes == nil {
		return pq.steps
	}
	src := pq.lanes.lines
	steps := make([]preparedLine, len(src))
	for i := range src {
		s := &src[i]
		steps[i] = preparedLine{c3: s.c3.lane(pq.lane), c1: s.c1.lane(pq.lane), c0: s.c0.lane(pq.lane)}
	}
	return steps
}

// PrepareG2 runs the Miller schedule once for q and records the line
// coefficients. The cost is about a third of one Miller loop.
func PrepareG2(q *G2) *PreparedG2 {
	if q.p.IsInfinity() {
		return &PreparedG2{infinity: true}
	}
	return &PreparedG2{steps: prepareLines(q.p)}
}

// WithLanes returns a PreparedG2 for the same point that also holds its
// lines in lane form (about 190 KB), for a Q that many lane passes read
// (PairProductLanes): a pass then converts nothing per step. It gives what
// pq gives in every use. Where no lane pass runs — on a CPU without the
// kernels or in a build without them — and for the identity or a G2Lanes
// lane, it returns pq.
func (pq *PreparedG2) WithLanes() *PreparedG2 {
	if !supportsIFMA || pq.infinity || pq.lanes != nil || pq.splat != nil {
		return pq
	}
	out := &PreparedG2{steps: pq.steps, splat: make([]preparedLinex8, len(pq.steps))}
	for i := range pq.steps {
		s, d := &pq.steps[i], &out.splat[i]
		d.c3.splat(&s.c3)
		d.c1.splat(&s.c1)
		d.c0.splat(&s.c0)
	}
	return out
}

// Miller evaluates the recorded lines at g1, returning the un-finalized
// Miller value exactly as Miller(g1, q) would. Combine values with GT.Add
// and reduce once with GT.Finalize.
func (pq *PreparedG2) Miller(g1 *G1) *GT {
	if pq.infinity || g1.p.IsInfinity() {
		return &GT{p: newGFp12().SetOne()}
	}
	return &GT{p: evalMiller(pq.lines(), g1.p)}
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
		acts = append(acts, active{steps: pq.lines(), x: pa.x, y: pa.y})
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
