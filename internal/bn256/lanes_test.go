package bn256

import (
	"bytes"
	"crypto/rand"
	"testing"
)

func randG1s(t testing.TB, n int) []*G1 {
	t.Helper()
	pts := make([]*G1, n)
	for i := range pts {
		var err error
		if _, pts[i], err = RandomG1(rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

// mixForms rewrites a third of the points in affine form, as Unmarshal
// leaves a point, and leaves the rest as ScalarMult left them, in Jacobian
// coordinates, so a packed list has both kinds next to each other.
func mixForms(pts []*G1) {
	for i, p := range pts {
		if i%3 == 1 {
			p.p.MakeAffine()
		}
	}
}

// TestPairLanesMatchesPair holds every lane of every chunk to
// PreparedG2.Pair, byte for byte: full and partial chunks, the identity
// point in a first, a middle and a last lane, a prepared identity, and with
// a Miller value multiplied in. Jacobian points, whose normalisation shares
// one inversion across the list, sit next to affine ones and identities, and
// every point must come out of packing untouched.
func TestPairLanesMatchesPair(t *testing.T) {
	_, q, err := RandomG2(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, q2, _ := RandomG2(rand.Reader)
	scale := Miller(randG1s(t, 1)[0], q2)
	scaleValue := new(GT).Set(scale).Finalize()

	for _, pq := range []*PreparedG2{PrepareG2(q), PrepareG2(new(G2).SetInfinity())} {
		for _, n := range []int{1, 7, 8, 9, 17} {
			pts := randG1s(t, n)
			mixForms(pts)
			for _, i := range []int{0, 4, 7, 8, 16} {
				if i < n {
					pts[i] = new(G1).SetInfinity()
				}
			}
			before := make([]curvePoint, n)
			for i, p := range pts {
				before[i] = *p.p
			}

			l := packG1Lanes(pts)
			if want := (n + Lanes - 1) / Lanes; l.Chunks() != want {
				t.Fatalf("n=%d: %d chunks, want %d", n, l.Chunks(), want)
			}
			for _, s := range []*GT{nil, scale} {
				var got []*GT
				for c := 0; c < l.Chunks(); c++ {
					got = append(got, pq.PairLanes(l, c, s)...)
				}
				if len(got) != n {
					t.Fatalf("n=%d: %d values", n, len(got))
				}
				for i, p := range pts {
					want := pq.Pair(p)
					if s != nil {
						want.Add(want, scaleValue)
					}
					if !bytes.Equal(got[i].Marshal(), want.Marshal()) {
						t.Fatalf("n=%d scaled=%v: point %d (chunk %d lane %d) differs from Pair",
							n, s != nil, i, i/Lanes, i%Lanes)
					}
				}
			}
			for i, p := range pts {
				if *p.p != before[i] {
					t.Fatalf("n=%d: packing modified point %d", n, i)
				}
			}
		}
	}
}

// TestPackG1LanesForms packs lists that are all Jacobian, all affine, all
// identity, and one Jacobian point among affine ones and identities (the
// shared inversion has one z, then none), and compares every lane with the
// point's own MakeAffine.
func TestPackG1LanesForms(t *testing.T) {
	const n = 11
	jac := randG1s(t, n)
	aff := randG1s(t, n)
	inf := make([]*G1, n)
	one := randG1s(t, n)
	for i := range aff {
		aff[i].p.MakeAffine()
		inf[i] = new(G1).SetInfinity()
		switch {
		case i == 5: // stays Jacobian
		case i%2 == 0:
			one[i].p.MakeAffine()
		default:
			one[i] = new(G1).SetInfinity()
		}
	}
	for name, pts := range map[string][]*G1{"jacobian": jac, "affine": aff, "identity": inf, "one jacobian": one} {
		l := packG1Lanes(pts)
		for i, p := range pts {
			ch := &l.chunks[i/Lanes]
			want := newCurvePoint().Set(p.p)
			if want.IsInfinity() {
				want.Set(curveGen) // what an identity lane holds
			}
			want.MakeAffine()
			if x, y := ch.x.lane(i%Lanes), ch.y.lane(i%Lanes); x != want.x || y != want.y {
				t.Errorf("%s: point %d packed as another point", name, i)
			}
			if ch.infinity[i%Lanes] != p.p.IsInfinity() {
				t.Errorf("%s: point %d identity flag %v", name, i, ch.infinity[i%Lanes])
			}
		}
	}
}

// TestPairProductLanesMatchesMillerCombined holds every lane of the
// k-factor pass to MillerCombined(…).Finalize() over the same k points,
// byte for byte: one to three factors, full and partial chunks, an identity
// point in one factor of one lane (the other factors of that lane still
// count) and in every factor of another, an identity prepared G2 among the
// factors, factors with their lines in lane form (WithLanes) beside those
// without, with and without a Miller value multiplied in, and the inputs
// left untouched.
func TestPairProductLanesMatchesMillerCombined(t *testing.T) {
	_, q2, _ := RandomG2(rand.Reader)
	scale := Miller(randG1s(t, 1)[0], q2)

	for k := 1; k <= 3; k++ {
		for _, identityQ := range []int{-1, k - 1} {
			preps := make([]*PreparedG2, k)
			for j := range preps {
				_, q, err := RandomG2(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				if j == identityQ {
					q.SetInfinity()
				}
				preps[j] = PrepareG2(q)
				if (j+k)%2 == 0 { // lines held in lane form beside steps
					preps[j] = preps[j].WithLanes()
				}
			}
			for _, n := range []int{1, 7, 8, 9} {
				pts := make([][]*G1, k)
				for j := range pts {
					pts[j] = randG1s(t, n)
					mixForms(pts[j])
				}
				pts[k/2][n/2] = new(G1).SetInfinity() // one factor of one lane
				for j := range pts {
					pts[j][n-1] = new(G1).SetInfinity() // a whole lane
				}
				var before []curvePoint
				lanes := make([]*G1Lanes, k)
				for j := range pts {
					for _, p := range pts[j] {
						before = append(before, *p.p)
					}
					lanes[j] = packG1Lanes(pts[j])
				}

				for _, s := range []*GT{nil, scale} {
					var got []*GT
					for c := 0; c < lanes[0].Chunks(); c++ {
						got = append(got, PairProductLanes(preps, lanes, c, s)...)
					}
					if len(got) != n {
						t.Fatalf("k=%d n=%d: %d values", k, n, len(got))
					}
					for i := 0; i < n; i++ {
						col := make([]*G1, k)
						for j := range col {
							col[j] = pts[j][i]
						}
						want := MillerCombined(preps, col)
						if s != nil {
							want.Add(want, s)
						}
						if !bytes.Equal(got[i].Marshal(), want.Finalize().Marshal()) {
							t.Fatalf("k=%d n=%d identityQ=%d scaled=%v: index %d differs from MillerCombined",
								k, n, identityQ, s != nil, i)
						}
					}
				}
				for j := range pts {
					for i, p := range pts[j] {
						if *p.p != before[j*n+i] {
							t.Fatalf("k=%d n=%d: the pass modified point %d of factor %d", k, n, i, j)
						}
					}
				}
			}
		}
	}
}

// TestPairProductLanesPanics pins the two misuse panics, as MillerCombined
// pins its own.
func TestPairProductLanesPanics(t *testing.T) {
	pq := PrepareG2(new(G2).Base())
	a, b := packG1Lanes(randG1s(t, 3)), packG1Lanes(randG1s(t, 2))
	for name, call := range map[string]func(){
		"factor count": func() { PairProductLanes([]*PreparedG2{pq, pq}, []*G1Lanes{a}, 0, nil) },
		"list length":  func() { PairProductLanes([]*PreparedG2{pq, pq}, []*G1Lanes{a, b}, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestPackG1LanesRule pins the one rule that selects the lane-parallel
// tower: the CPU has the kernels and the list reaches the break-even
// length.
func TestPackG1LanesRule(t *testing.T) {
	pts := randG1s(t, laneBreakEven)
	if l := PackG1Lanes(pts[:laneBreakEven-1]); l != nil {
		t.Fatalf("%d points packed, below the break-even of %d", laneBreakEven-1, laneBreakEven)
	}
	if l := PackG1Lanes(pts); (l != nil) != supportsIFMA {
		t.Fatalf("%d points: packed = %v with supportsIFMA = %v", len(pts), l != nil, supportsIFMA)
	}
}
