package bn256

// Lanes is the number of points one lane pass pairs: chunk c of a G1Lanes
// holds points c·Lanes to c·Lanes + Lanes − 1 of the list.
const Lanes = 8

// laneBreakEven is the number of G1 points from which one eight-lane pass
// (PairProductLanes) is cheaper than pairing them one at a time. Measured on
// the IFMA kernels a one-factor pass costs what 1.4 PreparedG2.Pair calls
// do, whatever the number of occupied lanes, and sgs's scan spends a third
// of a Pair more per signature on the lane path than on the scalar one (two
// Miller loops under one squaring chain against one loop): two tokens scan
// in 1.37 ms by lanes and 1.44 ms one at a time, three in 1.41 ms against
// 1.95 ms. A two-factor pass (sgs's Eq.2 product, two signatures to a pass
// at the least) costs what 1.8 scalar two-factor products do. The same
// rule, applied to a group's T2, selects the sweep's lane set-up, which
// gains from two signatures on: recording eight G2 points' lines
// (PrepareG2Lanes) costs what 1.7 PrepareG2 calls do, and a two-factor
// Miller product with a Q per lane that walks the second factor's points
// as it goes (MillerLanes) what 1.4 MillerCombined calls do, so the set-up
// of two signatures costs 0.6 of two scalar ones (2 s × 3 single-thread
// runs, 2-vCPU IFMA host).
const laneBreakEven = 2

// g1LaneBreakEven is the number of G1 sums from which one pass
// (MultiScalarMultLanes) is cheaper than computing each on the scalar
// tower. A pass costs the same whatever the number of occupied lanes: on
// the IFMA kernels a pass of two-term sums took 0.20–0.25 ms, where one
// two-term sum by MultiScalarMult took 0.135–0.16 ms (BenchmarkG1MulLanes8,
// three runs, 2-vCPU IFMA host), so two sums break even and a lone
// signature's four, half a pass, already gain.
const g1LaneBreakEven = 2

// G1Lanes is a list of G1 points laid out for PairProductLanes: affine
// coordinates in lane form, eight points to a chunk. It is immutable and
// safe for concurrent use.
type G1Lanes struct {
	chunks []g1x8
}

// g1x8 is up to eight affine G1 points. Lanes past n, and lanes whose point
// is the identity, hold the generator; the second kind are marked, and a
// pass replaces every line it evaluates there by 1.
type g1x8 struct {
	x, y     gfPx8
	n        int
	infinity [Lanes]bool
}

// PackG1Lanes lays points out for PairProductLanes, or returns nil when
// pairing each of them on the scalar tower (PreparedG2.Pair,
// MillerCombined) is the faster way: on a CPU without AVX-512 IFMA, in a
// build without the kernels, and for fewer than laneBreakEven points. This
// is the one rule that selects the lane-parallel tower. The points are not
// modified.
func PackG1Lanes(points []*G1) *G1Lanes {
	if !supportsIFMA || len(points) < laneBreakEven {
		return nil
	}
	return packG1Lanes(points)
}

// G1LanesPay reports whether MultiScalarMultLanes computes n sums faster
// than the scalar tower does: on a CPU with AVX-512 IFMA, in a build with
// the kernels, and from g1LaneBreakEven sums on. It is the one rule that
// selects the lanes for G1.
func G1LanesPay(n int) bool {
	return supportsIFMA && n >= g1LaneBreakEven
}

func packG1Lanes(points []*G1) *G1Lanes {
	// The points still in Jacobian form share one field inversion, as the
	// eight lanes of the tower's own inversion do: zInv[i] is 1/z_i for
	// them and stays zero for the identity and for points already affine.
	buf := make([]gfP, 2*len(points))
	zInv, scratch := buf[:len(points)], buf[len(points):]
	jacobian := false
	for i, p := range points {
		if z := &p.p.z; !z.IsZero() && !z.Equal(&rOne) {
			zInv[i], jacobian = *z, true
		}
	}
	if jacobian {
		invertAll(zInv, scratch)
	}

	l := &G1Lanes{chunks: make([]g1x8, (len(points)+Lanes-1)/Lanes)}
	for c := range l.chunks {
		ch := &l.chunks[c]
		ch.n = min(Lanes, len(points)-Lanes*c)
		for i := 0; i < Lanes; i++ {
			x, y := curveGen.x, curveGen.y
			if i < ch.n {
				p := points[Lanes*c+i]
				zi := &zInv[Lanes*c+i]
				switch {
				case p.p.IsInfinity():
					ch.infinity[i] = true
				case !zi.IsZero(): // Jacobian: (x/z², y/z³)
					var zInv2 gfP
					gfpMul(&zInv2, zi, zi)
					gfpMul(&x, &p.p.x, &zInv2)
					gfpMul(&y, &p.p.y, &zInv2)
					gfpMul(&y, &y, zi)
				default:
					x, y = p.p.x, p.p.y
				}
			}
			ch.x.setLane(i, &x)
			ch.y.setLane(i, &y)
		}
	}
	return l
}

// Chunks returns the number of chunks: ⌈points/Lanes⌉.
func (l *G1Lanes) Chunks() int { return len(l.chunks) }

// PairLanes returns e(P, Q) for the points P of one chunk of l, each equal
// to what Pair returns for that point: PairProductLanes with one factor.
func (pq *PreparedG2) PairLanes(l *G1Lanes, chunk int, scale *GT) []*GT {
	return PairProductLanes([]*PreparedG2{pq}, []*G1Lanes{l}, chunk, scale)
}

// PairProductLanes is the lane pass. lanes[k] is a list of G1 points for
// the prepared Q_k, all lists of one length; for the points of one chunk —
// chunk·Lanes to chunk·Lanes + Lanes − 1, fewer in the last chunk — it
// returns, in order,
//
//	∏ₖ e(P_k,i , Q_k),
//
// each equal to what MillerCombined(preps, {P_k,i}).Finalize() returns for
// that index, byte for byte. All of them go through the recorded lines and
// the final exponentiation in one pass of the lane-parallel tower: one
// squaring chain and one final exponentiation whatever the number of
// factors and of occupied lanes, and one set of line multiplications per
// factor. As in MillerCombined, an identity on either side of a factor
// contributes 1 to its product.
//
// A Q may be a lane of a G2Lanes (G2Lanes.Lane): the pass reads that lane's
// lines where they lie, one broadcast per step, and gives what the same Q
// prepared by PrepareG2 gives.
//
// If scale is not nil it must be a Miller value (un-finalized, as Miller
// and MillerCombined return), and every result is multiplied by what scale
// finalizes to: the product is formed before the lanes' final
// exponentiation, so a caller that wants every product times one fixed
// further factor pays no final exponentiation for it.
//
// It panics if the slices have different lengths or the lists do.
func PairProductLanes(preps []*PreparedG2, lanes []*G1Lanes, chunk int, scale *GT) []*GT {
	if len(preps) != len(lanes) || len(preps) == 0 {
		panic("bn256: PairProductLanes slice length mismatch")
	}
	type factor struct {
		steps []preparedLine
		lines []preparedLinex8 // a G2Lanes lane's lines instead of steps
		lane  int
		splat []preparedLinex8 // steps in lane form (WithLanes)
		ch    *g1x8
	}
	factors := make([]factor, 0, len(preps))
	n := lanes[0].chunks[chunk].n
	for k, pq := range preps {
		if len(lanes[k].chunks) != len(lanes[0].chunks) || lanes[k].chunks[chunk].n != n {
			panic("bn256: PairProductLanes point lists differ in length")
		}
		if pq.infinity {
			continue
		}
		fc := factor{steps: pq.steps, lane: pq.lane, splat: pq.splat, ch: &lanes[k].chunks[chunk]}
		if pq.lanes != nil {
			fc.lines = pq.lanes.lines
		}
		factors = append(factors, fc)
	}

	out := make([]*GT, n)
	if len(factors) == 0 { // every product is empty
		for i := range out {
			if scale == nil {
				out[i] = new(GT).SetOne()
			} else {
				out[i] = new(GT).Set(scale).Finalize()
			}
		}
		return out
	}

	w := laneWorkPool.Get().(*laneWork)
	defer laneWorkPool.Put(w)
	f := &w.f
	*f = gfP12x8{}
	f.y.z.y.splat(&rOne)
	for i, op := range millerSchedule {
		if op == opDouble && i > 0 { // the first squaring would square 1
			f.Square(f, w)
		}
		for _, fc := range factors {
			switch {
			case fc.splat != nil:
				s := &fc.splat[i]
				f.evalLine(&s.c3, &s.c1, &s.c0, fc.ch, &fc.ch.infinity, w)
			case fc.lines != nil:
				f.mulLaneLine(&fc.lines[i], fc.lane, fc.ch, w)
			default:
				f.mulPreparedLine(&fc.steps[i], fc.ch, w)
			}
		}
	}
	if scale != nil {
		w.scale.splat(scale.p)
		f.Mul(f, &w.scale, w)
	}
	f.finalExponentiation(f, w)
	for i := range out {
		out[i] = &GT{p: f.lane(i)}
	}
	return out
}

// G2Lanes is up to eight G2 points laid out for the lane passes that take
// a Q per lane: MillerLanes, where every lane has its own Q, and, once the
// points' lines are recorded (PrepareG2Lanes), PairProductLanes, which takes
// one lane as its Q (Lane). Lane i holds point i. A G2Lanes is immutable and
// safe for concurrent use.
type G2Lanes struct {
	n        int
	infinity [Lanes]bool
	// lines are the recorded lines, lane i holding what PrepareG2 records
	// for point i (PrepareG2Lanes, about 160 KB); points are the points, for
	// a G2Lanes whose lines a pass walks as it goes (PackG2Lanes). One of
	// the two is nil.
	lines  []preparedLinex8
	points []*twistPoint
}

// PackG2Lanes lays up to Lanes points out for MillerLanes without recording
// their lines: the pass walks them through the schedule as it goes, which
// costs what recording does and keeps nothing. It is the form for points
// that are paired once. The points are copied.
//
// It panics if there are no points or more than Lanes.
func PackG2Lanes(qs []*G2) *G2Lanes {
	if len(qs) == 0 || len(qs) > Lanes {
		panic("bn256: a G2Lanes holds one to eight points")
	}
	l := &G2Lanes{n: len(qs), points: make([]*twistPoint, len(qs))}
	for i, q := range qs {
		l.points[i] = newTwistPoint().Set(q.p)
		l.infinity[i] = q.p.IsInfinity()
	}
	return l
}

// PrepareG2Lanes records the lines of up to Lanes points in one walk of the
// schedule on the lane-parallel tower: what PrepareG2 does for each point,
// at about a fifth of its cost per point on the IFMA kernels. Whether that
// is the faster way is the caller's to ask PackG1Lanes; on a CPU without
// the kernels it runs, correct and slow, on their Generic twins. The points
// are not modified.
//
// It panics if there are no points or more than Lanes.
func PrepareG2Lanes(qs []*G2) *G2Lanes {
	l := PackG2Lanes(qs)
	l.lines = make([]preparedLinex8, len(millerSchedule))
	w := new(walkWork)
	w.walk.start(l.points, &w.t)
	for i, op := range millerSchedule {
		w.walk.next(op, &l.lines[i], &w.t)
	}
	l.points = nil
	return l
}

// Lane returns point i as a PreparedG2 that reads its lines from l: what
// PrepareG2 returns for the point in every use. It costs nothing in
// PairProductLanes; the scalar tower (Miller, MillerCombined) takes the
// lines out of lane form first. It panics unless l came from
// PrepareG2Lanes.
func (l *G2Lanes) Lane(i int) *PreparedG2 {
	if l.lines == nil || i < 0 || i >= l.n {
		panic("bn256: G2Lanes.Lane of a lane without recorded lines")
	}
	return &PreparedG2{infinity: l.infinity[i], lanes: l, lane: i}
}

// MillerLanes is the Miller product of the lane-parallel tower with a Q per
// lane: qs[k] holds Q_k,i in lane i and points[k] the P_k,i of one chunk,
// with as many points in that chunk as qs[k] has, and it returns, in order,
//
//	∏ₖ f(Q_k,i , P_k,i),
//
// each equal to what MillerCombined({Q_k,i prepared}, {P_k,i}) returns for
// that lane, un-finalized and byte for byte. One pass gives all of them: one
// squaring chain whatever the number of factors and of occupied lanes, and
// one set of line multiplications per factor, each factor's lines read
// where PrepareG2Lanes recorded them or walked as the pass goes for a
// PackG2Lanes factor. An identity on either side of a factor contributes 1
// to its lane's product.
//
// It panics if the slices have different lengths or the numbers of points
// differ.
func MillerLanes(qs []*G2Lanes, points []*G1Lanes, chunk int) []*GT {
	if len(qs) != len(points) || len(qs) == 0 {
		panic("bn256: MillerLanes slice length mismatch")
	}
	n := qs[0].n
	skip := make([][Lanes]bool, len(qs))
	walks := make([]*walkWork, len(qs)) // for the factors without lines
	for k, q := range qs {
		ch := &points[k].chunks[chunk]
		if q.n != n || ch.n != n {
			panic("bn256: MillerLanes point counts differ")
		}
		for i := range skip[k] {
			skip[k][i] = q.infinity[i] || ch.infinity[i]
		}
		if q.lines == nil {
			walks[k] = new(walkWork)
			walks[k].walk.start(q.points, &walks[k].t)
		}
	}

	w := laneWorkPool.Get().(*laneWork)
	defer laneWorkPool.Put(w)
	f := &w.f
	*f = gfP12x8{}
	f.y.z.y.splat(&rOne)
	for i, op := range millerSchedule {
		if op == opDouble && i > 0 { // the first squaring would square 1
			f.Square(f, w)
		}
		for k, q := range qs {
			var s *preparedLinex8
			if wk := walks[k]; wk != nil {
				s = &wk.line
				wk.walk.next(op, s, &wk.t)
			} else {
				s = &q.lines[i]
			}
			f.evalLine(&s.c3, &s.c1, &s.c0, &points[k].chunks[chunk], &skip[k], w)
		}
	}
	out := make([]*GT, n)
	for i := range out {
		out[i] = &GT{p: f.lane(i)}
	}
	return out
}
