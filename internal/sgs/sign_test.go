package sgs

import (
	"bytes"
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	"sync"
	"testing"

	"github.com/peace-mesh/peace/internal/bn256"
)

// signTwoPairings is the signer as it was before the cached e(A, g2): R2
// from two live pairings and a generic GT exponentiation, consuming the RNG
// in the same order as sign. Test helper only — it is the oracle for
// TestSignMatchesTwoPairingFormula.
func signTwoPairings(rng io.Reader, pk *PublicKey, key *PrivateKey, msg []byte, mode GeneratorMode) *Signature {
	draw := func() *big.Int {
		k, err := bn256.RandomScalar(rng)
		if err != nil {
			panic(err)
		}
		return k
	}
	r := draw()
	u, v := deriveG1Generators(pk, mode, msg, r, counter{})
	alpha := draw()
	t1 := new(bn256.G1).ScalarMult(u, alpha)
	t2 := new(bn256.G1).ScalarMult(v, alpha)
	t2.Add(t2, key.A)
	grpX := new(big.Int).Add(key.Grp, key.X)
	grpX.Mod(grpX, bn256.Order)
	delta := mulMod(grpX, alpha)
	rAlpha, rX, rDelta := draw(), draw(), draw()
	negRAlpha := new(big.Int).Sub(bn256.Order, rAlpha)
	negRDelta := new(big.Int).Sub(bn256.Order, rDelta)

	r1 := new(bn256.G1).ScalarMult(u, rAlpha)

	// R2 = e(T2, g2)^{r_x} · e(v, w^{−r_α} · g2^{−r_δ}).
	combined := new(bn256.G2).ScalarMult(pk.W, negRAlpha)
	combined.Add(combined, new(bn256.G2).ScalarBaseMult(negRDelta))
	r2 := bn256.Pair(t2, new(bn256.G2).Base())
	r2.ScalarMult(r2, rX)
	r2.Add(r2, bn256.Pair(v, combined))

	r3 := new(bn256.G1).ScalarMult(t1, rX)
	r3.Add(r3, new(bn256.G1).ScalarMult(u, negRDelta))

	c := challenge(pk, msg, r, t1, t2, r1, r2, r3)
	resp := func(secret, blind *big.Int) *big.Int {
		s := mulMod(c, secret)
		s.Add(s, blind)
		return s.Mod(s, bn256.Order)
	}
	return &Signature{
		Mode: mode, R: r, T1: t1, T2: t2, C: c,
		SAlpha: resp(alpha, rAlpha), SX: resp(grpX, rX), SDelta: resp(delta, rDelta),
	}
}

// TestSignMatchesTwoPairingFormula checks that the one-pairing signer is a
// pure refactoring of the paper's two-pairing R2: on the same RNG stream it
// emits the same bytes, on a cold and on a warm e(A, g2) cache.
func TestSignMatchesTwoPairingFormula(t *testing.T) {
	s := newTestSetup(t, 1)
	key := s.keys[0]
	for _, mode := range []GeneratorMode{PerMessageGenerators, FixedGenerators} {
		for round := 0; round < 2; round++ {
			msg := []byte{byte(mode), byte(round)}
			seed := "one-pairing sign " + mode.String()
			got, err := SignWithMode(newDetReader(seed), s.pk, key, msg, mode)
			if err != nil {
				t.Fatal(err)
			}
			want := signTwoPairings(newDetReader(seed), s.pk, key, msg, mode)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%v round %d: one-pairing Sign differs from the two-pairing formula", mode, round)
			}
			if err := Verify(s.pk, msg, got); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPrivateKeyCacheStaysPrivate checks that the e(A, g2) cache is filled
// by signing and is neither serialized nor shared with copies.
func TestPrivateKeyCacheStaysPrivate(t *testing.T) {
	s := newTestSetup(t, 1)
	key := s.keys[0]
	cold := PrivateKeyBytes(key)
	if key.eAg2 != nil {
		t.Fatal("cache filled before the first signature")
	}
	if _, err := Sign(rand.Reader, s.pk, key, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if key.eAg2 == nil || !key.eAg2.Equal(bn256.Pair(key.A, new(bn256.G2).Base())) {
		t.Fatal("cache is not e(A, g2) after signing")
	}

	warm := PrivateKeyBytes(key)
	if !bytes.Equal(cold, warm) || len(warm) != bn256.G1Size+2*scalarBytes {
		t.Fatal("PrivateKeyBytes depends on the cache")
	}
	parsed, err := ParsePrivateKey(warm)
	if err != nil {
		t.Fatal(err)
	}
	clone := key.Clone()
	for name, k := range map[string]*PrivateKey{"parsed": parsed, "clone": clone} {
		if k.eAg2 != nil {
			t.Errorf("%s key carries the cache", name)
		}
		if k.A == key.A || k.Grp == key.Grp || k.X == key.X {
			t.Errorf("%s key aliases the original", name)
		}
		if !bytes.Equal(PrivateKeyBytes(k), cold) {
			t.Errorf("%s key differs from the original", name)
		}
		sig, err := Sign(rand.Reader, s.pk, k, []byte(name))
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(s.pk, []byte(name), sig); err != nil {
			t.Errorf("%s key: %v", name, err)
		}
		if k.eAg2 == key.eAg2 {
			t.Errorf("%s key shares the cache object", name)
		}
	}
}

// TestSignConcurrentColdKey signs from several goroutines with one key
// whose cache is still empty (run under -race in make ci).
func TestSignConcurrentColdKey(t *testing.T) {
	s := newTestSetup(t, 1)
	msg := []byte("concurrent signers")
	sigs := make([]*Signature, 4)
	var wg sync.WaitGroup
	for i := range sigs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sig, err := Sign(rand.Reader, s.pk, s.keys[0], msg)
			if err != nil {
				t.Error(err)
				return
			}
			sigs[i] = sig
		}(i)
	}
	wg.Wait()
	for i, sig := range sigs {
		if sig == nil {
			continue // already reported
		}
		if err := Verify(s.pk, msg, sig); err != nil {
			t.Errorf("signature %d: %v", i, err)
		}
	}
}

// TestVerifiersAgreeOnRejections pins the precomputed-table Verifier (single,
// batch, and one group through the lane pass) to the reference Verify on
// every rejection class, with the same error text. The router reports the
// group verifier's error as is; this table is what lets it skip a reference
// re-check on the reject path.
func TestVerifiersAgreeOnRejections(t *testing.T) {
	s := newTestSetup(t, 1)
	other := newTestSetup(t, 1)
	ver := NewVerifier(s.pk)
	msg := []byte("rejection classes")
	orig, err := Sign(rand.Reader, s.pk, s.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := Sign(rand.Reader, other.pk, other.keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}

	bump := func(v *big.Int) *big.Int {
		out := new(big.Int).Add(v, big.NewInt(1))
		return out.Mod(out, bn256.Order)
	}
	cases := []struct {
		name   string
		msg    []byte
		mutate func(*Signature) *Signature
	}{
		{"valid", msg, func(m *Signature) *Signature { return m }},
		{"nil signature", msg, func(*Signature) *Signature { return nil }},
		{"missing component", msg, func(m *Signature) *Signature { m.SX = nil; return m }},
		{"unknown mode", msg, func(m *Signature) *Signature { m.Mode = 9; return m }},
		{"flipped mode", msg, func(m *Signature) *Signature { m.Mode = FixedGenerators; return m }},
		{"T1 identity", msg, func(m *Signature) *Signature { m.T1.SetInfinity(); return m }},
		{"T2 identity", msg, func(m *Signature) *Signature { m.T2.SetInfinity(); return m }},
		{"scalar = order", msg, func(m *Signature) *Signature { m.SAlpha = new(big.Int).Set(bn256.Order); return m }},
		{"negative scalar", msg, func(m *Signature) *Signature { m.C = big.NewInt(-1); return m }},
		{"wrong message", []byte("another message"), func(m *Signature) *Signature { return m }},
		{"wrong group key", msg, func(*Signature) *Signature { return foreign }},
		{"tampered R", msg, func(m *Signature) *Signature { m.R = bump(m.R); return m }},
		{"tampered C", msg, func(m *Signature) *Signature { m.C = bump(m.C); return m }},
		{"zero C", msg, func(m *Signature) *Signature { m.C = new(big.Int); return m }},
		{"tampered SAlpha", msg, func(m *Signature) *Signature { m.SAlpha = bump(m.SAlpha); return m }},
		{"tampered SX", msg, func(m *Signature) *Signature { m.SX = bump(m.SX); return m }},
		{"tampered SDelta", msg, func(m *Signature) *Signature { m.SDelta = bump(m.SDelta); return m }},
		{"tampered T1", msg, func(m *Signature) *Signature { m.T1.Add(m.T1, new(bn256.G1).Base()); return m }},
		{"tampered T2", msg, func(m *Signature) *Signature { m.T2.Add(m.T2, new(bn256.G1).Base()); return m }},
	}

	items := make([]BatchItem, len(cases))
	refErrs := make([]error, len(cases))
	for i, tc := range cases {
		fresh, err := ParseSignature(orig.Bytes()) // deep copy
		if err != nil {
			t.Fatal(err)
		}
		sig := tc.mutate(fresh)
		items[i] = BatchItem{Msg: tc.msg, Sig: sig}
		refErrs[i] = Verify(s.pk, tc.msg, sig)
		if (refErrs[i] == nil) != (tc.name == "valid") {
			t.Fatalf("%s: reference verifier returned %v", tc.name, refErrs[i])
		}
		if refErrs[i] != nil && !errors.Is(refErrs[i], ErrInvalidSignature) {
			t.Fatalf("%s: reference error %v is not ErrInvalidSignature", tc.name, refErrs[i])
		}
	}

	batchErrs := ver.BatchVerify(items)
	groupErrs := ver.VerifyGroup(items)
	for i, tc := range cases {
		if got := ver.Verify(items[i].Msg, items[i].Sig); !sameVerdict(got, refErrs[i]) {
			t.Errorf("%s: Verifier.Verify = %v, reference = %v", tc.name, got, refErrs[i])
		}
		if !sameVerdict(batchErrs[i], refErrs[i]) {
			t.Errorf("%s: BatchVerify = %v, reference = %v", tc.name, batchErrs[i], refErrs[i])
		}
		if !sameVerdict(groupErrs[i], refErrs[i]) {
			t.Errorf("%s: VerifyGroup = %v, reference = %v", tc.name, groupErrs[i], refErrs[i])
		}
	}
}

// TestKnownGapTokenRecoverableFromSignature records a privacy gap of the
// current generator derivation; it asserts today's behaviour, not a goal.
//
// H0 is realized as a hash to two *public* scalars (a, b) with u = g1^a and
// v = g1^b (deriveScalars), so the discrete logs of the linear-encryption
// bases are known to everyone. Given (T1, T2) = (u^α, A·v^α), any holder of
// (msg, sig) computes A = T2 − (b/a)·T1 with one G1 scalar multiplication:
// the signer's revocation token, constant across signatures. Signatures are
// therefore linkable by every observer, not only by NO — contradicting the
// paper's unlinkability claim. ROADMAP item 4 (privacy-regression suite)
// owns the fix, a hash-to-curve H0 with unknown discrete logs; when it
// lands this test must flip to assert that the recovery fails.
func TestKnownGapTokenRecoverableFromSignature(t *testing.T) {
	s := newTestSetup(t, 2)
	recoverToken := func(msg []byte, sig *Signature) *bn256.G1 {
		a, b := deriveScalars(s.pk, sig.Mode, msg, sig.R, counter{})
		ratio := new(big.Int).ModInverse(a, bn256.Order)
		ratio = mulMod(ratio, b)
		ratio.Sub(bn256.Order, ratio) // −b/a
		out := new(bn256.G1).ScalarMult(sig.T1, ratio)
		return out.Add(out, sig.T2)
	}

	for _, mode := range []GeneratorMode{PerMessageGenerators, FixedGenerators} {
		var recovered []*bn256.G1
		for i := 0; i < 2; i++ {
			msg := []byte{byte('m'), byte(i)}
			sig, err := SignWithMode(rand.Reader, s.pk, s.keys[0], msg, mode)
			if err != nil {
				t.Fatal(err)
			}
			recovered = append(recovered, recoverToken(msg, sig))
		}
		for i, a := range recovered {
			if !a.Equal(s.keys[0].A) {
				t.Fatalf("%v signature %d: public data no longer yields the signer's token — "+
					"if H0 was fixed, flip this test (see ROADMAP item 4)", mode, i)
			}
			if a.Equal(s.keys[1].A) {
				t.Fatalf("%v signature %d: recovered another member's token", mode, i)
			}
		}
	}
}
