package sgs

import (
	"crypto/rand"
	"fmt"
	"testing"
)

// TestSweepDifferential pins the three ways into the revocation check to
// one another: IsRevoked (bases derived per call), sweepURLWorkers at
// several worker counts and the epoch-cached SweepState (packed tokens).
// All run the one scan (TestScanMatchesEq3 holds that to the paper's
// equation) and must agree on the (revoked, index) verdict, including the
// empty-list, first-token, last-token and not-listed cases.
func TestSweepDifferential(t *testing.T) {
	const nKeys = 6
	s := newTestSetup(t, nKeys)
	pk := s.pk
	ver := NewVerifier(pk)
	msg := []byte("differential sweep message")

	allTokens := make([]*RevocationToken, nKeys)
	for i, k := range s.keys {
		allTokens[i] = k.Token()
	}

	cases := []struct {
		name   string
		signer int
		tokens []*RevocationToken
	}{
		{"empty list", 0, nil},
		{"not listed", 0, allTokens[1:4]},
		{"first token", 2, allTokens[2:5]},
		{"middle token", 3, allTokens[1:6]},
		{"last token", 5, allTokens[:6]},
		{"single entry hit", 4, allTokens[4:5]},
		{"single entry miss", 0, allTokens[5:6]},
	}
	workerCounts := []int{1, 2, 3, 8}

	for _, tc := range cases {
		t.Run(fmt.Sprintf("per-message/%s", tc.name), func(t *testing.T) {
			sig, err := Sign(rand.Reader, pk, s.keys[tc.signer], msg)
			if err != nil {
				t.Fatal(err)
			}

			wantRevoked, wantIdx := IsRevoked(pk, msg, sig, tc.tokens)

			for _, w := range workerCounts {
				gotRevoked, gotIdx := ver.sweepURLWorkers(msg, sig, tc.tokens, w)
				if gotRevoked != wantRevoked || gotIdx != wantIdx {
					t.Errorf("sweepURLWorkers(%d) = (%v,%d), IsRevoked = (%v,%d)",
						w, gotRevoked, gotIdx, wantRevoked, wantIdx)
				}
			}

			st := NewSweepState(pk)
			st.Update(1, tc.tokens)
			gotRevoked, gotIdx := st.Check(msg, sig)
			if gotRevoked != wantRevoked || gotIdx != wantIdx {
				t.Errorf("SweepState.Check = (%v,%d), IsRevoked = (%v,%d)",
					gotRevoked, gotIdx, wantRevoked, wantIdx)
			}
			for _, w := range workerCounts {
				gotRevoked, gotIdx := st.checkWorkers(msg, sig, w)
				if gotRevoked != wantRevoked || gotIdx != wantIdx {
					t.Errorf("SweepState.checkWorkers(%d) = (%v,%d), IsRevoked = (%v,%d)",
						w, gotRevoked, gotIdx, wantRevoked, wantIdx)
				}
			}
		})
	}
}

// TestSweepStateEpochMonotonic pins the sweep cache's anti-rollback rule
// and that a new epoch's list replaces the old one.
func TestSweepStateEpochMonotonic(t *testing.T) {
	s := newTestSetup(t, 2)
	pk := s.pk
	msg := []byte("epoch monotonic")
	sig, err := Sign(rand.Reader, pk, s.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}

	st := NewSweepState(pk)
	if revoked, _ := st.Check(msg, sig); revoked {
		t.Fatal("empty state reported revoked")
	}
	if !st.Update(2, []*RevocationToken{s.keys[0].Token()}) {
		t.Fatal("forward update refused")
	}
	if revoked, idx := st.Check(msg, sig); !revoked || idx != 0 {
		t.Fatalf("check after update = (%v,%d), want (true,0)", revoked, idx)
	}
	// Rollback refused: the signer stays revoked.
	if st.Update(1, nil) {
		t.Fatal("rollback update accepted")
	}
	if st.Epoch() != 2 {
		t.Fatalf("epoch = %d after refused rollback, want 2", st.Epoch())
	}
	if revoked, _ := st.Check(msg, sig); !revoked {
		t.Fatal("rollback cleared revocation state")
	}
	// Forward update to an epoch without the token un-revokes.
	if !st.Update(3, []*RevocationToken{s.keys[1].Token()}) {
		t.Fatal("forward update refused")
	}
	if revoked, _ := st.Check(msg, sig); revoked {
		t.Fatal("stale token list survived epoch change")
	}
}
