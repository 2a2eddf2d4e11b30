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

// signedItems signs n distinct messages, alternating generator modes and
// the setup's keys, so one group mixes both derivations of (u, v).
func signedItems(t testing.TB, s *testSetup, n int) []BatchItem {
	t.Helper()
	items := make([]BatchItem, n)
	for i := range items {
		msg := []byte(fmt.Sprintf("group member %d", i))
		mode := PerMessageGenerators
		if i%3 == 1 {
			mode = FixedGenerators
		}
		sig, err := SignWithMode(rand.Reader, s.pk, s.keys[i%len(s.keys)], msg, mode)
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

// identitySided crafts a per-message-mode signature on msg whose pairing
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
		Mode: PerMessageGenerators, R: draw(), C: draw(), SAlpha: draw(), SX: draw(), SDelta: draw(),
		T1: new(bn256.G1).ScalarBaseMult(draw()),
	}
	tt := draw()
	sig.T2 = new(bn256.G1).ScalarBaseMult(tt)
	_, b := deriveScalars(pk, sig.Mode, msg, sig.R, counter{})
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
// pass, with both generator modes in one group: untouched, one member forged
// (each component in turn, at the first, a middle and the last slot), several
// forged at once, one *Signature in two slots, and crafted signatures whose
// pairing sides are the identity. A forged slot leaves its neighbours valid.
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
		ver.pairingProducts(group)
		for i, e := range alone {
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
				if err := Verify(s.pk, items[at].Msg, items[at].Sig); !errors.Is(err, ErrInvalidSignature) {
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
	if !e.a.IsInfinity() || !e.b.IsInfinity() {
		t.Fatalf("identitySided: A identity = %v, B identity = %v", e.a.IsInfinity(), e.b.IsInfinity())
	}
}

// TestForgedLaneCostsOnePass pins the price of a forgery inside a group:
// BatchVerifyCounted over eight items of which three are forged charges
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

	errs, counts := ver.BatchVerifyCounted(items)
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
