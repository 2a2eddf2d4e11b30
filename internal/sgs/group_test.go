package sgs

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"github.com/peace-mesh/peace/internal/bn256"
)

// sameVerdict reports whether two verifiers said the same about one slot:
// both nil, or the same text under ErrInvalidSignature.
func sameVerdict(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, ErrInvalidSignature) && errors.Is(b, ErrInvalidSignature)
}

// signedItems signs n distinct messages, cycling through the setup's keys.
func signedItems(t testing.TB, s *testSetup, n int) []BatchItem {
	t.Helper()
	items := make([]BatchItem, n)
	for i := range items {
		msg := []byte(fmt.Sprintf("group member %d", i))
		sig, err := Sign(rand.Reader, s.pk, s.keys[i%len(s.keys)], msg)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = BatchItem{Msg: msg, Sig: sig}
	}
	return items
}

// forgeries are the seven ways to damage one component of a signature: a
// bit flipped in each scalar, and — a flipped bit takes an encoded point off
// the curve, which ParseSignature refuses before any verifier runs — the
// generator added to each point.
var forgeries = []struct {
	name  string
	apply func(*Signature)
}{
	{"T1", func(s *Signature) { s.T1 = new(bn256.G1).Add(s.T1, new(bn256.G1).Base()) }},
	{"T2", func(s *Signature) { s.T2 = new(bn256.G1).Add(s.T2, new(bn256.G1).Base()) }},
	{"R", func(s *Signature) { s.R = flipBit(s.R) }},
	{"c", func(s *Signature) { s.C = flipBit(s.C) }},
	{"s_alpha", func(s *Signature) { s.SAlpha = flipBit(s.SAlpha) }},
	{"s_x", func(s *Signature) { s.SX = flipBit(s.SX) }},
	{"s_delta", func(s *Signature) { s.SDelta = flipBit(s.SDelta) }},
}

func flipBit(v *big.Int) *big.Int {
	out := new(big.Int).Xor(v, big.NewInt(1<<7))
	return out.Mod(out, bn256.Order)
}

// forge replaces slot i by a damaged copy of its signature.
func forge(items []BatchItem, i int, apply func(*Signature)) {
	damaged := *items[i].Sig
	apply(&damaged)
	items[i].Sig = &damaged
}

// identitySided crafts a signature on msg whose pairing
// sides A = T2^{s_x}·v^{−s_δ}·g1^{−c} and B = T2^{c}·v^{−s_α} are the
// identity where asked: v = g1^b has a public discrete log, so with
// T2 = g1^t the exponents of g1 in A and B are t·s_x − b·s_δ − c and
// t·c − b·s_α, and s_δ and s_α are chosen to cancel them. It costs a forger
// nothing; the challenge cannot match, and every verifier must say so.
func identitySided(t testing.TB, pk *PublicKey, msg []byte, aIdentity, bIdentity bool) *Signature {
	t.Helper()
	draw := func() *big.Int {
		k, err := bn256.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	sig := &Signature{
		R: draw(), C: draw(), SAlpha: draw(), SX: draw(), SDelta: draw(),
		T1: new(bn256.G1).ScalarBaseMult(draw()),
	}
	tt := draw()
	sig.T2 = new(bn256.G1).ScalarBaseMult(tt)
	_, b := deriveScalars(pk, msg, sig.R, counter{})
	bInv := new(big.Int).ModInverse(b, bn256.Order)
	if aIdentity {
		e := mulMod(tt, sig.SX)
		e.Sub(e, sig.C)
		sig.SDelta = mulMod(e.Mod(e, bn256.Order), bInv)
	}
	if bIdentity {
		sig.SAlpha = mulMod(mulMod(tt, sig.C), bInv)
	}
	return sig
}

// TestVerifyGroupMatchesVerifyOne holds every slot of a group to the
// verdict the same item gets alone, for groups below, at and above one lane
// pass: untouched, one member forged (each component in turn, at the first,
// a middle and the last slot), several forged at once, one *Signature in two
// slots, and crafted signatures whose pairing sides are the identity. A
// forged slot leaves its neighbours valid.
func TestVerifyGroupMatchesVerifyOne(t *testing.T) {
	s := newTestSetup(t, 3)
	ver := NewVerifier(s.pk)

	// sameR2 compares what the verdicts are made from: a forged slot is
	// refused whatever R̃2 it is given, so only the value itself tells a lane
	// that computed the wrong product from one that computed the right one.
	sameR2 := func(name string, items []BatchItem) {
		t.Helper()
		var group, alone []*eq2
		for _, it := range items {
			for _, eqs := range []*[]*eq2{&group, &alone} {
				e, err := ver.prepare(it.Msg, it.Sig, counter{})
				if err != nil {
					t.Fatal(err)
				}
				*eqs = append(*eqs, e)
			}
		}
		g1Sums(group)
		ver.pairingProducts(group)
		for i, e := range alone {
			g1Sums([]*eq2{e})
			ver.pairingProducts([]*eq2{e})
			if !bytes.Equal(group[i].r2.Marshal(), e.r2.Marshal()) {
				t.Errorf("%s: slot %d of %d: R̃2 in the group differs from R̃2 alone", name, i, len(items))
			}
		}
	}

	check := func(name string, items []BatchItem, wantBad map[int]bool) {
		t.Helper()
		got := ver.VerifyGroup(items)
		if len(got) != len(items) {
			t.Fatalf("%s: %d slots for %d items", name, len(got), len(items))
		}
		for i, it := range items {
			alone := ver.verifyOne(it.Msg, it.Sig, counter{})
			if !sameVerdict(got[i], alone) {
				t.Errorf("%s: slot %d of %d: group says %v, alone %v", name, i, len(items), got[i], alone)
			}
			if (got[i] != nil) != wantBad[i] {
				t.Errorf("%s: slot %d of %d: %v, want bad = %v", name, i, len(items), got[i], wantBad[i])
			}
		}
	}

	for _, n := range []int{1, 2, 7, 8, 9, 17} {
		clean := signedItems(t, s, n)
		check("clean", clean, nil)

		for k, f := range forgeries {
			items := append([]BatchItem(nil), clean...)
			at := []int{0, n / 2, n - 1}[k%3]
			forge(items, at, f.apply)
			check("forged "+f.name, items, map[int]bool{at: true})
		}

		// Every component damaged somewhere in one group, as many as fit.
		items := append([]BatchItem(nil), clean...)
		bad := map[int]bool{}
		for k, f := range forgeries {
			if at := 2 * k; at < n {
				forge(items, at, f.apply)
				bad[at] = true
			}
		}
		check("several forged", items, bad)

		// One *Signature in two slots, good and (under another message) bad.
		items = append([]BatchItem(nil), clean...)
		items[n-1] = items[0]
		check("shared signature", items, nil)
		items[n-1] = BatchItem{Msg: []byte("not what was signed"), Sig: items[0].Sig}
		if n > 1 {
			check("shared signature, second message", items, map[int]bool{n - 1: true})
		}

		// Identity pairing sides: the lane pass drops them from the product
		// as the scalar one does.
		items = append([]BatchItem(nil), clean...)
		bad = map[int]bool{}
		for k, sides := range [][2]bool{{true, false}, {false, true}, {true, true}} {
			if at := n - 1 - 2*k; at >= 0 {
				items[at].Sig = identitySided(t, s.pk, items[at].Msg, sides[0], sides[1])
				bad[at] = true
				if err := verifyReference(s.pk, items[at].Msg, items[at].Sig); !errors.Is(err, ErrInvalidSignature) {
					t.Fatalf("reference verifier on an identity-sided signature: %v", err)
				}
			}
		}
		check("identity sides", items, bad)
		sameR2("identity sides", items)
	}

	// The crafted signatures are what they claim to be.
	msg := []byte("identity sides")
	e, err := ver.prepare(msg, identitySided(t, s.pk, msg, true, true), counter{})
	if err != nil {
		t.Fatal(err)
	}
	g1Sums([]*eq2{e})
	if !e.a.IsInfinity() || !e.b.IsInfinity() {
		t.Fatalf("identitySided: A identity = %v, B identity = %v", e.a.IsInfinity(), e.b.IsInfinity())
	}
}

// TestForgedLaneCostsOnePass pins the price of a forgery inside a group:
// batchVerifyCounted over eight items of which three are forged charges
// exactly what eight good ones cost, 4 exponentiations and 2 pairings each —
// no slot is verified a second time to find out which one failed.
func TestForgedLaneCostsOnePass(t *testing.T) {
	s := newTestSetup(t, 2)
	ver := NewVerifier(s.pk)
	const n = 8
	items := signedItems(t, s, n)
	bad := map[int]bool{1: true, 4: true, 7: true}
	for i := range bad {
		forge(items, i, forgeries[i%len(forgeries)].apply)
	}

	errs, counts := ver.batchVerifyCounted(items)
	for i, err := range errs {
		if errors.Is(err, ErrInvalidSignature) != bad[i] || (err == nil) == bad[i] {
			t.Errorf("slot %d: %v, want bad = %v", i, err, bad[i])
		}
	}
	if counts.Exps != 4*n || counts.Pairings != 2*n || counts.GTExps != 0 {
		t.Fatalf("counts %+v, want Exps=%d Pairings=%d GTExps=0", counts, 4*n, 2*n)
	}
}

// TestForEachGroupCoversEverySlotOnce checks the cut: consecutive groups, no
// gap, no overlap, none empty, none above a lane pass.
func TestForEachGroupCoversEverySlotOnce(t *testing.T) {
	for n := 0; n <= 40; n++ {
		seen := make([]int, n)
		var mu sync.Mutex
		ForEachGroup(n, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			if hi <= lo || hi-lo > bn256.Lanes {
				t.Errorf("n=%d: group [%d, %d)", n, lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: slot %d covered %d times", n, i, c)
			}
		}
	}
}

// The allocation ceilings of one VerifyGroup of eight wire-decoded
// signatures: the group's scratch lives in the lane work pools or on the
// stack, so the count grows with nothing but what each signature keeps
// (its exponents, its recovered values and the challenge hash's buffers).
// With the G1 sums in lanes a signature allocates about 45 times; on the
// scalar tower, whose multiplications keep their digits and tables on the
// stack or in a pool, about 52.
const (
	verifyGroupAllocsLanes  = 380
	verifyGroupAllocsScalar = 430
)

// TestVerifyGroupAllocs holds VerifyGroup of eight to the ceiling of the
// way this CPU and build compute the G1 sums.
func TestVerifyGroupAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("times a dozen groups of eight")
	}
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	s := newTestSetup(t, 2)
	ver := NewVerifier(s.pk)
	items := signedItems(t, s, bn256.Lanes)
	for i := range items {
		items[i].Sig = parsedCopy(t, items[i].Sig)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i, err := range ver.VerifyGroup(items) {
			if err != nil {
				t.Fatalf("slot %d: %v", i, err)
			}
		}
	})
	ceiling := verifyGroupAllocsScalar
	if bn256.G1LanesPay(4 * len(items)) {
		ceiling = verifyGroupAllocsLanes
	}
	t.Logf("VerifyGroup of %d: %.0f allocs", len(items), allocs)
	if allocs > float64(ceiling) {
		t.Fatalf("VerifyGroup of %d: %.0f allocs, ceiling %d", len(items), allocs, ceiling)
	}
}

// parsedCopy returns sig as the router holds it: decoded from its wire
// bytes.
func parsedCopy(t testing.TB, sig *Signature) *Signature {
	t.Helper()
	out, err := ParseSignature(sig.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// exceptionalSignatures crafts signatures whose G1 sums meet the cases a
// point formula may get wrong: T1 = ±g1 and T2 = ±T1 (so terms of one sum
// are equal or opposite points), every scalar at 0, 1 and r − 1 in turn,
// and exponents chosen through the generators' public discrete logs so
// that R̃1 or R̃3 is the identity from two non-identity terms (A and B are
// identitySided's). None of them is valid; each costs a forger nothing.
func exceptionalSignatures(t testing.TB, pk *PublicKey, msg []byte) []*Signature {
	t.Helper()
	draw := func() *big.Int {
		k, err := bn256.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	g := new(bn256.G1).Base()
	edges := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(bn256.Order, big.NewInt(1))}
	var sigs []*Signature
	for _, t1 := range []*bn256.G1{g, new(bn256.G1).Neg(g)} {
		for _, t2 := range []*bn256.G1{t1, new(bn256.G1).Neg(t1)} {
			for k := 0; k < 5; k++ {
				for _, v := range edges {
					sig := &Signature{R: draw(), T1: t1, T2: t2,
						C: draw(), SAlpha: draw(), SX: draw(), SDelta: draw()}
					// k = 4 puts every scalar at the edge at once.
					for j, s := range []**big.Int{&sig.C, &sig.SAlpha, &sig.SX, &sig.SDelta} {
						if j == k || k == 4 {
							*s = v
						}
					}
					sigs = append(sigs, sig)
				}
			}
		}
	}

	// R̃1 = g1^{a·s_α}·T1^{−c} and R̃3 = g1^{−a·s_δ}·T1^{s_x} with T1 = g1^t:
	// s_α = t·c/a and s_δ = t·s_x/a make them the identity.
	for _, which := range []int{1, 3} {
		tt := draw()
		sig := &Signature{R: draw(), C: draw(), SAlpha: draw(), SX: draw(), SDelta: draw(),
			T1: new(bn256.G1).ScalarBaseMult(tt), T2: new(bn256.G1).ScalarBaseMult(draw())}
		a, _ := deriveScalars(pk, msg, sig.R, counter{})
		aInv := new(big.Int).ModInverse(a, bn256.Order)
		if which == 1 {
			sig.SAlpha = mulMod(mulMod(tt, sig.C), aInv)
		} else {
			sig.SDelta = mulMod(mulMod(tt, sig.SX), aInv)
		}
		sigs = append(sigs, sig)
	}
	return append(sigs,
		identitySided(t, pk, msg, true, false),
		identitySided(t, pk, msg, false, true),
		identitySided(t, pk, msg, true, true))
}

// TestG1SumsExceptional puts exceptionalSignatures through both ways of
// computing the G1 sums: the lanes and the scalar tower give byte-equal
// R̃1, R̃3, A and B for every one of them, and a group of them, with valid
// signatures among them, gets the reference verifier's verdict in every
// slot.
func TestG1SumsExceptional(t *testing.T) {
	s := newTestSetup(t, 2)
	ver := NewVerifier(s.pk)
	msg := []byte("exceptional inputs")
	sigs := exceptionalSignatures(t, s.pk, msg)

	var lanes, scalar []*eq2
	for _, sig := range sigs {
		for _, eqs := range []*[]*eq2{&lanes, &scalar} {
			e, err := ver.prepare(msg, sig, counter{})
			if err != nil {
				t.Fatal(err)
			}
			*eqs = append(*eqs, e)
		}
	}
	g1SumsLanes(lanes)
	g1SumsScalar(scalar)
	identities := 0
	for i := range sigs {
		l, r := lanes[i].outs(), scalar[i].outs()
		for k, name := range []string{"R̃1", "R̃3", "A", "B"} {
			if !bytes.Equal((*l[k]).Marshal(), (*r[k]).Marshal()) {
				t.Fatalf("signature %d: %s by lanes differs from the scalar tower's", i, name)
			}
			if (*l[k]).IsInfinity() {
				identities++
			}
		}
	}
	if identities < 6 {
		t.Fatalf("%d identity sums, the crafted ones alone give 6", identities)
	}

	var items []BatchItem
	for i := 0; i < 3; i++ {
		sig, err := Sign(rand.Reader, s.pk, s.keys[i%len(s.keys)], msg)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, BatchItem{Msg: msg, Sig: sig})
	}
	for _, sig := range sigs {
		items = append(items, BatchItem{Msg: msg, Sig: sig})
	}
	for i, err := range ver.VerifyGroup(items) {
		want := verifyReference(s.pk, msg, items[i].Sig)
		if (err == nil) != (want == nil) || (i < 3) != (err == nil) {
			t.Fatalf("slot %d: VerifyGroup %v, reference %v", i, err, want)
		}
	}
}
