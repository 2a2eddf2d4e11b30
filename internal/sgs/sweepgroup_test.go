package sgs

import (
	"crypto/rand"
	"fmt"
	"testing"

	"github.com/peace-mesh/peace/internal/bn256"
)

// TestSweepGroupDifferential holds the group check to the check of one:
// for groups of one to nine signatures — signers repeated, the same
// signature twice — against URLs of 0, 1, 2, 8, 16 and 17 tokens with revoked signers at
// tokens 0, 7, 8 and 15 (and token 7's signer listed again at 16), every
// signature's (revoked, index) from the group equals SweepState.Check on
// that signature alone and the smallest index its token sits at. Where the
// lanes exist, a group of two or more signatures against a packed list must
// have set up on them.
func TestSweepGroupDifferential(t *testing.T) {
	const signers, fillers = 6, 13
	s := newTestSetup(t, signers+fillers)
	pk := s.pk

	// Signers 0 to 3 are revoked at tokens 0, 7, 8 and 15; 4 and 5 are not
	// listed. The other positions hold tokens of keys that never sign.
	owner := make([]int, 17) // the key whose token sits at each position
	filler := signers
	for i := range owner {
		owner[i] = filler
		filler++
		for signer, at := range []int{0, 7, 8, 15} {
			if i == at {
				owner[i] = signer
				filler--
			}
		}
	}
	owner[16] = 1
	url := make([]*RevocationToken, len(owner))
	for i, k := range owner {
		url[i] = s.keys[k].Token()
	}

	type signed struct {
		signer int
		item   BatchItem
	}
	var pool []signed
	sign := func(signer int) {
		msg := []byte(fmt.Sprintf("group sweep %d", len(pool)))
		sig, err := Sign(rand.Reader, pk, s.keys[signer], msg)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, signed{signer, BatchItem{Msg: msg, Sig: sig}})
	}
	for _, signer := range []int{0, 1, 2, 3, 4, 5, 0, 2, 4, 3} {
		sign(signer)
	}

	g := new(bn256.G1).Base()
	lanesExist := bn256.PackG1Lanes([]*bn256.G1{g, g}) != nil

	for _, n := range []int{0, 1, 2, 8, 16, 17} {
		tokens := url[:n]
		st := NewSweepState(pk)
		st.Update(1, tokens)
		want := make([]int, len(pool))
		for p, sd := range pool {
			want[p] = -1
			for i := range tokens {
				if owner[i] == sd.signer {
					want[p] = i
					break
				}
			}
			if revoked, idx := st.Check(sd.item.Msg, sd.item.Sig); revoked != (want[p] >= 0) || idx != want[p] {
				t.Fatalf("url %d: signature %d alone = (%v,%d), want index %d", n, p, revoked, idx, want[p])
			}
		}

		for size := 1; size <= 9; size++ {
			picks := make([]int, size)
			for k := range picks {
				picks[k] = (size + k) % len(pool)
			}
			if size >= 5 {
				picks[size-1] = picks[0]
			}
			items := make([]BatchItem, size)
			for k, p := range picks {
				items[k] = pool[p].item
			}

			grp := st.Group(items)
			if grp.onLanes != (lanesExist && n >= 2 && size >= 2) {
				t.Errorf("url %d, group of %d: set up on the lanes = %v", n, size, grp.onLanes)
			}
			for k, p := range picks {
				if revoked, idx := grp.Check(k); revoked != (want[p] >= 0) || idx != want[p] {
					t.Errorf("url %d, group of %d: item %d (signature %d) = (%v,%d), alone index %d",
						n, size, k, p, revoked, idx, want[p])
				}
			}
		}
	}
}
