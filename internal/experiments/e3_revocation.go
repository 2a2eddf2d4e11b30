package experiments

import (
	"crypto/rand"
	"fmt"
	"io"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/sgs"
)

// E3RevocationPoint is one row of the |URL| sweep: the measured cost of
// verification + revocation checking at one URL size, for the paper's
// default linear scan and for the O(1)-per-signature fast variant it cites
// (fixedIndex).
type E3RevocationPoint struct {
	URLSize int
	// LinearTime is verify + linear URL scan (per-message generators).
	LinearTime time.Duration
	// LinearPairings is the measured pairing count (paper: 3 + 2|URL|).
	LinearPairings int
	// FastTime is verify + the fixedIndex check of the signer's token.
	FastTime time.Duration
	// FastPairings is the measured pairing count (paper: 5 total).
	FastPairings int
}

// RunE3RevocationSweep measures the revocation sweep at the given URL
// sizes, with iters timing repetitions per point.
func RunE3RevocationSweep(urlSizes []int, iters int) ([]E3RevocationPoint, error) {
	if iters < 1 {
		iters = 1
	}
	maxURL := 0
	for _, s := range urlSizes {
		if s > maxURL {
			maxURL = s
		}
	}

	iss, err := sgs.NewIssuer(rand.Reader)
	if err != nil {
		return nil, err
	}
	grp, err := iss.NewGroupComponent(rand.Reader)
	if err != nil {
		return nil, err
	}
	keys, err := iss.IssueBatch(rand.Reader, grp, maxURL+1)
	if err != nil {
		return nil, err
	}
	signer := keys[0]
	pub := iss.PublicKey()
	msg := []byte("revocation sweep probe")

	// All revoked tokens are other users' → worst case (full scan, no hit).
	allTokens := make([]*sgs.RevocationToken, 0, maxURL)
	for _, k := range keys[1:] {
		allTokens = append(allTokens, k.Token())
	}

	out := make([]E3RevocationPoint, 0, len(urlSizes))
	for _, size := range urlSizes {
		if size > len(allTokens) {
			return nil, fmt.Errorf("e3: url size %d exceeds issued keys", size)
		}
		url := allTokens[:size]
		pt := E3RevocationPoint{URLSize: size}

		// Linear variant (paper default, per-message generators).
		sigPM, err := sgs.Sign(rand.Reader, pub, signer, msg)
		if err != nil {
			return nil, err
		}
		counts, err := sgs.VerifyWithRevocationCounted(pub, msg, sigPM, url)
		if err != nil {
			return nil, err
		}
		pt.LinearPairings = counts.Pairings
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := sgs.VerifyWithRevocation(pub, msg, sigPM, url); err != nil {
				return nil, err
			}
		}
		pt.LinearTime = time.Since(start) / time.Duration(iters)

		// Fast variant: the index is built once and NOT counted against the
		// per-signature cost, per BS04 §6. The signature is verified as the
		// protocol verifies it; the index then tests a fixed-base encryption
		// of the signer's token.
		idx := newFixedIndex(pub, url)
		t1, t2, err := idx.encrypt(rand.Reader, signer.Token())
		if err != nil {
			return nil, err
		}
		// Verify (2 pairings + cached third) + the index check (2 pairings)
		// = the paper's "6 exponentiations and 5 bilinear map computations".
		verCounts, err := sgs.VerifyCounted(pub, msg, sigPM)
		if err != nil {
			return nil, err
		}
		pt.FastPairings = verCounts.Pairings + verCounts.GTExps + fixedIndexPairings
		start = time.Now()
		for i := 0; i < iters; i++ {
			if err := sgs.Verify(pub, msg, sigPM); err != nil {
				return nil, err
			}
			if revoked, _ := idx.check(t1, t2); revoked {
				return nil, fmt.Errorf("e3: fixed-base index flags an unrevoked signer")
			}
		}
		pt.FastTime = time.Since(start) / time.Duration(iters)

		out = append(out, pt)
	}
	return out, nil
}

// fixedIndex is the revocation check the paper cites from BS04 §6 for
// "far more efficient revocation" at "a little bit sacrifice on user
// privacy", computed here from bn256 primitives because the protocol does
// not offer it. With bases fixed per group — u = g1^a, v = g1^b from a hash
// of the group key alone — a member's linear encryption T1 = u^α,
// T2 = A·v^α satisfies e(T2, û)/e(T1, v̂) = e(A, û), a value that does not
// depend on α. So an index of e(A_i, û) over the list, one pairing per
// token paid once, answers each check with two Miller loops, one final
// exponentiation and a lookup, whatever |URL| is. The same constant links
// every signature of a member for anyone who computes it
// (TestKnownGapFixedGeneratorsLinkable), which is why sgs derives its
// bases per message and the router accepts nothing else.
type fixedIndex struct {
	u, v       *bn256.G1
	uhat, vhat *bn256.PreparedG2
	index      map[string]int // marshaled e(A_i, û) → i
}

// fixedIndexPairings is what one fixedIndex.check costs in the paper's
// accounting: two Miller loops sharing a final exponentiation.
const fixedIndexPairings = 2

// newFixedIndex derives the group's fixed bases and indexes tokens.
func newFixedIndex(pub *sgs.PublicKey, tokens []*sgs.RevocationToken) *fixedIndex {
	ks := bn256.HashToScalars(append([]byte("peace/experiments:e3-fixed-bases"), pub.Bytes()...), 2)
	f := &fixedIndex{
		u:     new(bn256.G1).ScalarBaseMult(ks[0]),
		v:     new(bn256.G1).ScalarBaseMult(ks[1]),
		uhat:  bn256.PrepareG2(new(bn256.G2).ScalarBaseMult(ks[0])),
		vhat:  bn256.PrepareG2(new(bn256.G2).ScalarBaseMult(ks[1])),
		index: make(map[string]int, len(tokens)),
	}
	for i, tok := range tokens {
		key := string(f.uhat.Pair(tok.A).Marshal())
		if _, dup := f.index[key]; !dup {
			f.index[key] = i
		}
	}
	return f
}

// encrypt is the signer's half: the linear encryption (T1, T2) of tok
// under the fixed bases, with fresh α.
func (f *fixedIndex) encrypt(rng io.Reader, tok *sgs.RevocationToken) (t1, t2 *bn256.G1, err error) {
	alpha, err := bn256.RandomScalar(rng)
	if err != nil {
		return nil, nil, err
	}
	t2 = new(bn256.G1).ScalarMult(f.v, alpha)
	return new(bn256.G1).ScalarMult(f.u, alpha), t2.Add(t2, tok.A), nil
}

// key returns e(T2, û) · e(T1, v̂)^{−1}, marshaled: e(A, û) for an
// encryption of A. The two Miller loops share one squaring chain.
func (f *fixedIndex) key(t1, t2 *bn256.G1) string {
	m := bn256.MillerCombined([]*bn256.PreparedG2{f.uhat, f.vhat}, []*bn256.G1{t2, new(bn256.G1).Neg(t1)})
	return string(m.Finalize().Marshal())
}

// check reports whether (T1, T2) encrypts a listed token and, if so, its
// index.
func (f *fixedIndex) check(t1, t2 *bn256.G1) (bool, int) {
	i, ok := f.index[f.key(t1, t2)]
	if !ok {
		return false, -1
	}
	return true, i
}
