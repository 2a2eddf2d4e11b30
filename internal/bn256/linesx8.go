package bn256

// This file walks G2 points through the Miller schedule on the
// lane-parallel tower: the twist point arithmetic of lineDouble, lineAdd and
// prepareLines (pairing.go) over gfP2x8, so that eight G2 points walk
// millerSchedule side by side and every step gives eight lines, lane i
// holding what prepareLines records for the i-th point. The formulas are the
// scalar ones, step for step; only the representation differs, so a lane's
// line is the scalar line as an element of F_p², and it reduces to the same
// bytes.

// preparedLinex8 is one step's lines for eight G2 points, the lane form of
// preparedLine.
type preparedLinex8 struct {
	c3, c1, c0 gfP2x8
}

// twistPointx8 is eight twist points in Jacobian coordinates, t = z² as in
// twistPoint.
type twistPointx8 struct {
	x, y, z, t gfP2x8
}

// affinex8 is eight affine twist points.
type affinex8 struct {
	x, y gfP2x8
}

// The constants of ψ and of −π² (gls.go, negFrobeniusP2Twist) in every
// lane, and 1.
var (
	xiToPMinus1Over3x8        = splatFp2(xiToPMinus1Over3)
	xiToPMinus1Over2x8        = splatFp2(xiToPMinus1Over2)
	xiToPSquaredMinus1Over3x8 = splatFp2(xiToPSquaredMinus1Over3)
	fp2Onex8                  = splatFp2(&fp2One)
)

func splatFp2(a *gfP2) (e gfP2x8) {
	e.splat(a)
	return
}

// laneWalk is up to eight G2 points on their way through millerSchedule:
// the affine points Q, −Q, π(Q) = ψ(Q) and −π²(Q) the additions add, the y²
// they need, and the running point R. Lanes past the points, and lanes
// whose point is the identity, walk the generator instead; their lines are
// well defined and a caller ignores them (G2Lanes marks the second kind).
type laneWalk struct {
	q, negQ, q1, negQ2 affinex8
	qy2, q1y2          gfP2x8
	r                  twistPointx8
}

// lineTemps are the temporaries of one step of a walk.
type lineTemps struct {
	a, b, c, d, e, g, h, i, j, l1, v, t, u gfP2x8
	rx, ry, rz, rt                         gfP2x8
}

// walkWork is the working memory of one walk: the walk, its temporaries
// and the line of the step just taken. It is a heap object for the reason
// laneWork is one (an allocation of its size is 64-byte aligned, and every
// field is a multiple of 64 bytes), and it is not pooled: a walk is one per
// G2Lanes, and a pooled object would be held past the walks that used it.
type walkWork struct {
	walk laneWalk
	t    lineTemps
	line preparedLinex8
}

// start sets w to the points qs at the start of the schedule, R = Q.
func (w *laneWalk) start(qs []*twistPoint, t *lineTemps) {
	// Affine Q, the eight z inverted together (gfP2x8.Invert: one field
	// inversion for all lanes).
	var z gfP2x8
	for i := 0; i < Lanes; i++ {
		src := twistGen
		if i < len(qs) && !qs[i].IsInfinity() {
			src = qs[i]
		}
		w.q.x.setLane(i, &src.x)
		w.q.y.setLane(i, &src.y)
		z.setLane(i, &src.z)
	}
	zInv := &t.a
	zInv.Invert(&z)
	t.b.Square(zInv)
	w.q.x.Mul(&w.q.x, &t.b)
	w.q.y.Mul(&w.q.y, &t.b)
	w.q.y.Mul(&w.q.y, zInv)

	w.negQ.x = w.q.x
	w.negQ.y.Neg(&w.q.y)
	w.q1.x.Conjugate(&w.q.x)
	w.q1.x.Mul(&w.q1.x, &xiToPMinus1Over3x8)
	w.q1.y.Conjugate(&w.q.y)
	w.q1.y.Mul(&w.q1.y, &xiToPMinus1Over2x8)
	w.negQ2.x.Mul(&w.q.x, &xiToPSquaredMinus1Over3x8)
	w.negQ2.y = w.q.y
	w.qy2.Square(&w.q.y) // also (−y_Q)² and the y² of −π²(Q)
	w.q1y2.Square(&w.q1.y)

	w.r = twistPointx8{x: w.q.x, y: w.q.y, z: fp2Onex8, t: fp2Onex8}
}

// next takes the step op of the schedule, moving R and writing the step's
// lines into line.
func (w *laneWalk) next(op millerOp, line *preparedLinex8, t *lineTemps) {
	switch op {
	case opDouble:
		w.r.lineDouble(line, t)
	case opAddQ:
		w.r.lineAdd(&w.q, &w.qy2, line, t)
	case opSubQ:
		w.r.lineAdd(&w.negQ, &w.qy2, line, t)
	case opAddQ1:
		w.r.lineAdd(&w.q1, &w.q1y2, line, t)
	case opSubQ2:
		w.r.lineAdd(&w.negQ2, &w.qy2, line, t)
	}
}

// lineDouble is the lane form of lineDouble: it doubles r in place and
// writes the tangent lines at r before doubling into line.
func (r *twistPointx8) lineDouble(line *preparedLinex8, p *lineTemps) {
	A, B, C, D, E, G, t := &p.a, &p.b, &p.c, &p.d, &p.e, &p.g, &p.t
	A.Square(&r.x)
	B.Square(&r.y)
	C.Square(B)

	D.Add(&r.x, B)
	D.Square(D)
	D.Sub(D, A)
	D.Sub(D, C)
	D.Double(D)

	E.Double(A)
	E.Add(E, A)
	G.Square(E)

	rx, ry, rz, rt := &p.rx, &p.ry, &p.rz, &p.rt
	rx.Sub(G, D)
	rx.Sub(rx, D)

	rz.Add(&r.y, &r.z)
	rz.Square(rz)
	rz.Sub(rz, B)
	rz.Sub(rz, &r.t)

	ry.Sub(D, rx)
	ry.Mul(ry, E)
	t.Double(C)
	t.Double(t)
	t.Double(t)
	ry.Sub(ry, t)

	rt.Square(rz)

	t.Mul(E, &r.t)
	t.Double(t)
	line.c1.Neg(t)

	line.c3.Add(&r.x, E)
	line.c3.Square(&line.c3)
	line.c3.Sub(&line.c3, A)
	line.c3.Sub(&line.c3, G)
	t.Double(B)
	t.Double(t)
	line.c3.Sub(&line.c3, t)

	line.c0.Mul(rz, &r.t)
	line.c0.Double(&line.c0)

	r.x, r.y, r.z, r.t = *rx, *ry, *rz, *rt
}

// lineAdd is the lane form of lineAdd: it mixed-adds the affine points q to
// r in place and writes the chord lines into line. qy2 is q.y².
func (r *twistPointx8) lineAdd(q *affinex8, qy2 *gfP2x8, line *preparedLinex8, p *lineTemps) {
	B, D, H, I, E, J, L1, V, t, t2 := &p.b, &p.d, &p.h, &p.i, &p.e, &p.j, &p.l1, &p.v, &p.t, &p.u
	B.Mul(&q.x, &r.t)

	D.Add(&q.y, &r.z)
	D.Square(D)
	D.Sub(D, qy2)
	D.Sub(D, &r.t)
	D.Mul(D, &r.t)

	H.Sub(B, &r.x)
	I.Square(H)

	E.Double(I)
	E.Double(E)

	J.Mul(H, E)

	L1.Sub(D, &r.y)
	L1.Sub(L1, &r.y)

	V.Mul(&r.x, E)

	rx, ry, rz, rt := &p.rx, &p.ry, &p.rz, &p.rt
	rx.Square(L1)
	rx.Sub(rx, J)
	rx.Sub(rx, V)
	rx.Sub(rx, V)

	rz.Add(&r.z, H)
	rz.Square(rz)
	rz.Sub(rz, &r.t)
	rz.Sub(rz, I)

	t.Sub(V, rx)
	t.Mul(t, L1)
	t2.Mul(&r.y, J)
	t2.Double(t2)
	ry.Sub(t, t2)

	rt.Square(rz)

	t.Add(&q.y, rz)
	t.Square(t)
	t.Sub(t, qy2)
	t.Sub(t, rt)
	t2.Mul(L1, &q.x)
	t2.Double(t2)
	line.c3.Sub(t2, t)

	line.c1.Neg(L1)
	line.c1.Double(&line.c1)

	line.c0.Double(rz)

	r.x, r.y, r.z, r.t = *rx, *ry, *rz, *rt
}
