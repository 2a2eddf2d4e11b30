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
// at the least) costs what 1.8 scalar two-factor products do.
const laneBreakEven = 2

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
		ch    *g1x8
	}
	factors := make([]factor, 0, len(preps))
	n := lanes[0].chunks[chunk].n
	for k, pq := range preps {
		if len(lanes[k].chunks) != len(lanes[0].chunks) || lanes[k].chunks[chunk].n != n {
			panic("bn256: PairProductLanes point lists differ in length")
		}
		if !pq.infinity {
			factors = append(factors, factor{pq.steps, &lanes[k].chunks[chunk]})
		}
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
			f.mulPreparedLine(&fc.steps[i], fc.ch, w)
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
