package bn256

// Lanes is the number of points PairLanes pairs in one pass: chunk c of a
// G1Lanes holds points c·Lanes to c·Lanes + Lanes − 1 of the list.
const Lanes = 8

// laneBreakEven is the number of G1 points from which one eight-lane pass
// (PairLanes) is cheaper than pairing them one at a time. Measured on the
// IFMA kernels a pass costs what 1.4 PreparedG2.Pair calls do, whatever the
// number of occupied lanes, and sgs's scan spends a third of a Pair more per
// signature on the lane path than on the scalar one (two Miller loops under
// one squaring chain against one loop): two tokens scan in 1.37 ms by lanes
// and 1.44 ms one at a time, three in 1.41 ms against 1.95 ms.
const laneBreakEven = 2

// G1Lanes is a list of G1 points laid out for PreparedG2.PairLanes: affine
// coordinates in lane form, eight points to a chunk. It is immutable and
// safe for concurrent use.
type G1Lanes struct {
	chunks []g1x8
}

// g1x8 is up to eight affine G1 points. Lanes past n, and lanes whose point
// is the identity, hold the generator.
type g1x8 struct {
	x, y     gfPx8
	n        int
	infinity [Lanes]bool
}

// PackG1Lanes lays points out for PairLanes, or returns nil when calling
// PreparedG2.Pair on each of them is the faster way to pair them: on a CPU
// without AVX-512 IFMA, in a build without the kernels, and for fewer than
// laneBreakEven points. This is the one rule that selects the lane-parallel
// tower. The points are not modified.
func PackG1Lanes(points []*G1) *G1Lanes {
	if !supportsIFMA || len(points) < laneBreakEven {
		return nil
	}
	return packG1Lanes(points)
}

func packG1Lanes(points []*G1) *G1Lanes {
	l := &G1Lanes{chunks: make([]g1x8, (len(points)+Lanes-1)/Lanes)}
	for c := range l.chunks {
		ch := &l.chunks[c]
		ch.n = min(Lanes, len(points)-Lanes*c)
		for i := 0; i < Lanes; i++ {
			pa := *curveGen
			if i < ch.n {
				pa = *points[Lanes*c+i].p
				if ch.infinity[i] = pa.IsInfinity(); ch.infinity[i] {
					pa = *curveGen
				}
			}
			pa.MakeAffine()
			ch.x.setLane(i, &pa.x)
			ch.y.setLane(i, &pa.y)
		}
	}
	return l
}

// Chunks returns the number of chunks: ⌈points/Lanes⌉.
func (l *G1Lanes) Chunks() int { return len(l.chunks) }

// PairLanes returns e(P, Q) for the points P of one chunk of l — points
// chunk·Lanes to chunk·Lanes + Lanes − 1 of the list, fewer in the last
// chunk — in order, each equal to what Pair returns for that point. All of
// them go through the recorded lines and the final exponentiation in one
// pass of the lane-parallel tower, which costs the same for one occupied
// lane as for eight.
//
// If scale is not nil it must be a Miller value (un-finalized, as Miller
// and MillerCombined return), and every result is multiplied by what scale
// finalizes to: the product is formed before the lanes' final
// exponentiation, so a caller that wants e(P, Q)·e(P', Q') for a fixed
// second factor pays no final exponentiation for it.
func (pq *PreparedG2) PairLanes(l *G1Lanes, chunk int, scale *GT) []*GT {
	ch := &l.chunks[chunk]
	out := make([]*GT, ch.n)

	var f *gfP12x8
	if !pq.infinity {
		w := laneWorkPool.Get().(*laneWork)
		defer laneWorkPool.Put(w)
		f = &w.f
		*f = gfP12x8{}
		f.y.z.y.splat(&rOne)
		for i, op := range millerSchedule {
			if op == opDouble && i > 0 { // the first squaring would square 1
				f.Square(f, w)
			}
			f.mulPreparedLine(&pq.steps[i], &ch.x, &ch.y, w)
		}
		if scale != nil {
			w.scale.splat(scale.p)
			f.Mul(f, &w.scale, w)
		}
		f.finalExponentiation(f, w)
	}
	for i := range out {
		switch {
		case f != nil && !ch.infinity[i]:
			out[i] = &GT{p: f.lane(i)}
		case scale == nil: // the identity on either side pairs to 1
			out[i] = new(GT).SetOne()
		default:
			out[i] = new(GT).Set(scale).Finalize()
		}
	}
	return out
}
