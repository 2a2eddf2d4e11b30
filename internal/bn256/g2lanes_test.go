package bn256

import (
	"bytes"
	"crypto/rand"
	"testing"
)

// randG2s returns n random G2 points: ScalarBaseMult leaves them Jacobian,
// and a third are made affine, as Unmarshal leaves a point, so a lane
// preparation meets both kinds.
func randG2s(t testing.TB, n int) []*G2 {
	t.Helper()
	qs := make([]*G2, n)
	for i := range qs {
		var err error
		if _, qs[i], err = RandomG2(rand.Reader); err != nil {
			t.Fatal(err)
		}
		if i%3 == 1 {
			qs[i].p.MakeAffine()
		}
	}
	return qs
}

// TestPrepareG2LanesMatchesPrepareG2 holds every step's line of every lane
// to what prepareLines records for that lane's point, for one to eight
// occupied lanes, with the identity in a first, a middle and a last lane,
// and every point left untouched.
func TestPrepareG2LanesMatchesPrepareG2(t *testing.T) {
	for n := 1; n <= Lanes; n++ {
		qs := randG2s(t, n)
		if n >= 4 {
			for _, i := range []int{0, n / 2, n - 1} {
				qs[i] = new(G2).SetInfinity()
			}
		}
		before := make([]twistPoint, n)
		for i, q := range qs {
			before[i] = *q.p
		}

		l := PrepareG2Lanes(qs)
		for i, q := range qs {
			if l.infinity[i] != q.p.IsInfinity() {
				t.Fatalf("n=%d: lane %d identity flag %v", n, i, l.infinity[i])
			}
			if q.p.IsInfinity() {
				continue
			}
			want := prepareLines(q.p)
			for s := range want {
				got := &l.lines[s]
				if got.c3.lane(i) != want[s].c3 || got.c1.lane(i) != want[s].c1 || got.c0.lane(i) != want[s].c0 {
					t.Fatalf("n=%d: lane %d step %d differs from prepareLines", n, i, s)
				}
			}
		}
		for i, q := range qs {
			if *q.p != before[i] {
				t.Fatalf("n=%d: preparation modified point %d", n, i)
			}
		}
	}
}

// TestMillerLanesMatchesMillerCombined holds every lane of the two-factor
// pass with a Q per lane to MillerCombined over that lane's points,
// un-finalized and byte for byte: one to eight occupied lanes, each factor's
// lines recorded (PrepareG2Lanes) or walked as the pass goes (PackG2Lanes),
// the identity on the G2 side of one factor in one lane, on the G1 side of
// the other factor in another, and on both sides of a third lane.
func TestMillerLanesMatchesMillerCombined(t *testing.T) {
	forms := map[string]func([]*G2) *G2Lanes{"prepared": PrepareG2Lanes, "packed": PackG2Lanes}
	for n := 1; n <= Lanes; n++ {
		qs := [][]*G2{randG2s(t, n), randG2s(t, n)}
		ps := [][]*G1{randG1s(t, n), randG1s(t, n)}
		mixForms(ps[0])
		if n >= 3 {
			qs[0][1] = new(G2).SetInfinity()
			ps[1][n-1] = new(G1).SetInfinity()
			qs[1][0], ps[0][0] = new(G2).SetInfinity(), new(G1).SetInfinity()
		}
		want := make([]*GT, n)
		for i := range want {
			want[i] = MillerCombined(
				[]*PreparedG2{PrepareG2(qs[0][i]), PrepareG2(qs[1][i])},
				[]*G1{ps[0][i], ps[1][i]},
			)
		}

		for name0, form0 := range forms {
			for name1, form1 := range forms {
				got := MillerLanes([]*G2Lanes{form0(qs[0]), form1(qs[1])}, []*G1Lanes{packG1Lanes(ps[0]), packG1Lanes(ps[1])}, 0)
				if len(got) != n {
					t.Fatalf("n=%d: %d values", n, len(got))
				}
				for i := range got {
					if !bytes.Equal(got[i].Marshal(), want[i].Marshal()) {
						t.Fatalf("n=%d, %s and %s: lane %d differs from MillerCombined", n, name0, name1, i)
					}
				}
			}
		}
	}
}

// TestG2LanesLaneMatchesPrepareG2 holds a G2Lanes lane, used as a prepared
// Q, to the same point prepared by PrepareG2: in a lane pass
// (PairProductLanes, one factor and two, with a Miller value multiplied
// in), where the lane's lines are broadcast, and on the scalar tower
// (Miller), where they are taken out of lane form. An identity lane is the
// prepared identity.
func TestG2LanesLaneMatchesPrepareG2(t *testing.T) {
	qs := randG2s(t, 5)
	qs[3] = new(G2).SetInfinity()
	l := PrepareG2Lanes(qs)
	pts := randG1s(t, 9)
	mixForms(pts)
	pts[4] = new(G1).SetInfinity()
	lanes := packG1Lanes(pts)
	other := PrepareG2(randG2s(t, 1)[0])
	scale := Miller(randG1s(t, 1)[0], randG2s(t, 1)[0])

	for i, q := range qs {
		lane, prep := l.Lane(i), PrepareG2(q)
		for _, f := range [][2][]*PreparedG2{
			{{lane}, {prep}},
			{{other, lane}, {other, prep}},
		} {
			ls := []*G1Lanes{lanes, lanes}[:len(f[0])]
			for c := 0; c < lanes.Chunks(); c++ {
				got := PairProductLanes(f[0], ls, c, scale)
				want := PairProductLanes(f[1], ls, c, scale)
				for j := range got {
					if !bytes.Equal(got[j].Marshal(), want[j].Marshal()) {
						t.Fatalf("lane %d, %d factors: chunk %d point %d differs from PrepareG2's", i, len(f[0]), c, j)
					}
				}
			}
		}
		if got, want := lane.Miller(pts[0]), prep.Miller(pts[0]); !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("lane %d: Miller differs from PrepareG2's", i)
		}
	}
}

// TestG2LanesPanics pins the misuse panics.
func TestG2LanesPanics(t *testing.T) {
	l := PrepareG2Lanes(randG2s(t, 2))
	p2, p3 := packG1Lanes(randG1s(t, 2)), packG1Lanes(randG1s(t, 3))
	for name, call := range map[string]func(){
		"no points":      func() { PrepareG2Lanes(nil) },
		"nine points":    func() { PackG2Lanes(make([]*G2, Lanes+1)) },
		"lane range":     func() { l.Lane(2) },
		"lane of packed": func() { PackG2Lanes(randG2s(t, 2)).Lane(0) },
		"factor count":   func() { MillerLanes([]*G2Lanes{l, l}, []*G1Lanes{p2}, 0) },
		"point count":    func() { MillerLanes([]*G2Lanes{l}, []*G1Lanes{p3}, 0) },
		"empty product":  func() { MillerLanes(nil, nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}
