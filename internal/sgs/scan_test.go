package sgs

import (
	"crypto/rand"
	"fmt"
	"sync"
	"testing"

	"github.com/peace-mesh/peace/internal/bn256"
)

// eq3Reference is Eq.3 as the paper writes it, two plain pairings per
// token and nothing shared: the reference the one scan is held to, whatever
// way bn256 lets it test the tokens on this CPU.
func eq3Reference(pk *PublicKey, msg []byte, sig *Signature, tokens []*RevocationToken) int {
	uhat, vhat := deriveG2Generators(pk, msg, sig.R, counter{})
	right := bn256.Pair(sig.T1, vhat)
	for i, tok := range tokens {
		quot := new(bn256.G1).Neg(tok.A)
		quot.Add(sig.T2, quot)
		if bn256.Pair(quot, uhat).Equal(right) {
			return i
		}
	}
	return -1
}

// TestScanMatchesEq3 holds every caller of the scan to the reference, in
// verdict and in index: list lengths on both sides of one and two full
// passes of eight, the signer's token at each position of a list of 17
// (every lane of a full chunk, and the first lane of a chunk of one), a
// miss, the signer listed twice (the smaller index wins) and an innocent
// token listed twice. With the lane kernels the
// lists of two or more run eight to a pass; with -maskifma, under purego
// and on other CPUs the same assertions run on the scalar loop.
func TestScanMatchesEq3(t *testing.T) {
	const maxN = 33
	s := newTestSetup(t, maxN+1)
	signer := s.keys[maxN]
	others := make([]*RevocationToken, maxN)
	for i := range others {
		others[i] = s.keys[i].Token()
	}
	ver := NewVerifier(s.pk)

	// list returns n innocent tokens with the signer's at each position in
	// at (overwriting), and others[0] repeated at each position in dup.
	list := func(n int, at, dup []int) []*RevocationToken {
		tokens := append([]*RevocationToken(nil), others[:n]...)
		for _, i := range dup {
			tokens[i] = others[0]
		}
		for _, i := range at {
			tokens[i] = signer.Token()
		}
		return tokens
	}
	type listCase struct {
		name   string
		tokens []*RevocationToken
	}
	var cases []listCase
	for _, n := range []int{0, 1, 7, 8, 9, 16, 17, 33} {
		cases = append(cases, listCase{fmt.Sprintf("n=%d miss", n), list(n, nil, nil)})
		if n > 0 {
			cases = append(cases,
				listCase{fmt.Sprintf("n=%d first", n), list(n, []int{0}, nil)},
				listCase{fmt.Sprintf("n=%d last", n), list(n, []int{n - 1}, nil)})
		}
	}
	for i := 0; i < 17; i++ {
		cases = append(cases, listCase{fmt.Sprintf("n=17 at %d", i), list(17, []int{i}, nil)})
	}
	cases = append(cases,
		listCase{"two matches in one chunk", list(17, []int{5, 2}, nil)},
		listCase{"two matches in two chunks", list(17, []int{12, 3}, nil)},
		listCase{"two matches in the first and the last chunk", list(33, []int{32, 7}, nil)},
		listCase{"innocent duplicates", list(17, nil, []int{3, 9, 16})},
		listCase{"innocent duplicates and a match", list(17, []int{10}, []int{3, 9, 16})},
	)

	msg := []byte("scan per-message")
	sig, err := Sign(rand.Reader, s.pk, signer, msg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		want := eq3Reference(s.pk, msg, sig, tc.tokens)
		check := func(how string, revoked bool, idx int) {
			t.Helper()
			if idx != want || revoked != (want >= 0) {
				t.Errorf("%s: %s = (%v, %d), Eq.3 says %d", tc.name, how, revoked, idx, want)
			}
		}
		revoked, idx := IsRevoked(s.pk, msg, sig, tc.tokens)
		check("IsRevoked", revoked, idx)
		for _, workers := range []int{1, 2, 5} {
			revoked, idx = ver.sweepURLWorkers(msg, sig, tc.tokens, workers)
			check(fmt.Sprintf("sweepURLWorkers(%d)", workers), revoked, idx)
		}
		st := NewSweepState(s.pk)
		st.Update(1, tc.tokens)
		revoked, idx = st.Check(msg, sig)
		check("SweepState.Check", revoked, idx)
	}
}

// TestScanOpCountsFollowThePaper pins the accounting that must not depend
// on how the tokens were tested: two pairings for every token up to and
// including the match, all of them on a miss.
func TestScanOpCountsFollowThePaper(t *testing.T) {
	s := newTestSetup(t, 20)
	msg := []byte("op counts")
	sig, err := Sign(rand.Reader, s.pk, s.keys[11], msg)
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([]*RevocationToken, 19)
	for i := range tokens {
		tokens[i] = s.keys[i].Token()
	}
	for _, tc := range []struct {
		tokens   []*RevocationToken
		pairings int
	}{
		{tokens, 2 * 12},      // match at index 11, in the second chunk
		{tokens[:11], 2 * 11}, // miss
		{tokens[11:12], 2},    // a single token, as TraceSigner passes it
	} {
		_, _, counts := IsRevokedCounted(s.pk, msg, sig, tc.tokens)
		if counts.Pairings != tc.pairings || counts.Exps != 2 || counts.Hashes != 1 {
			t.Errorf("%d tokens: counts %+v, want %d pairings, 2 exps, 1 hash", len(tc.tokens), counts, tc.pairings)
		}
		_, openCounts := OpenCounted(s.pk, msg, sig, tc.tokens)
		if openCounts != counts {
			t.Errorf("%d tokens: OpenCounted %+v, IsRevokedCounted %+v", len(tc.tokens), openCounts, counts)
		}
	}
}

// TestSweepStateConcurrentAcrossUpdate runs sweeps from several goroutines
// against one SweepState while its token set is replaced under them: every
// check must answer for one of the installed epochs, whole — never a mix of
// two lists' packed tokens. Run under -race it also pins that the packed
// lanes are shared read-only.
func TestSweepStateConcurrentAcrossUpdate(t *testing.T) {
	s := newTestSetup(t, 20)
	msg := []byte("concurrent sweep")
	sig, err := Sign(rand.Reader, s.pk, s.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}
	innocent := make([]*RevocationToken, 19)
	for i := range innocent {
		innocent[i] = s.keys[i+1].Token()
	}
	// Odd epochs list the signer at index 13, even ones at index 4 of a
	// shorter list.
	odd := append([]*RevocationToken(nil), innocent...)
	odd[13] = s.keys[0].Token()
	even := append([]*RevocationToken(nil), innocent[:9]...)
	even[4] = s.keys[0].Token()

	st := NewSweepState(s.pk)
	st.Update(1, odd)
	st.Verifier()

	const updates = 6
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if revoked, idx := st.Check(msg, sig); !revoked || (idx != 13 && idx != 4) {
					t.Errorf("Check = (%v, %d), want a match at 13 or at 4", revoked, idx)
					return
				}
			}
		}()
	}
	for epoch := uint64(2); epoch < 2+updates; epoch++ {
		tokens, want := odd, 13
		if epoch%2 == 0 {
			tokens, want = even, 4
		}
		if !st.Update(epoch, tokens) {
			t.Errorf("update to epoch %d refused", epoch)
		}
		if revoked, idx := st.Check(msg, sig); !revoked || idx != want {
			t.Errorf("epoch %d: Check = (%v, %d), want a match at %d", epoch, revoked, idx, want)
		}
	}
	close(done)
	wg.Wait()
}
