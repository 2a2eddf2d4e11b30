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

// TestPairLanesMatchesPair holds every lane of every chunk to
// PreparedG2.Pair, byte for byte: full and partial chunks, the identity
// point in a first, a middle and a last lane, a prepared identity, and with
// a Miller value multiplied in. The points go in as ScalarMult leaves them,
// in Jacobian coordinates, and must come out untouched.
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
