package sgs

import (
	"fmt"
	"io"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/peace-mesh/peace/internal/bn256"
)

// BatchItem is one (message, signature) pair of a verification batch.
type BatchItem struct {
	Msg []byte
	Sig *Signature
}

// Verifier amortizes the fixed costs of signature verification across many
// calls for one group public key. It rewrites the pairing side of the
// paper's Eq.2 so that both pairings have a constant G2 argument:
//
//	R̃2 = e(T2, g2^{s_x} · w^c) · e(v, w^{−s_α} · g2^{−s_δ}) · e(g1,g2)^{−c}
//	   = e(T2^{s_x} · v^{−s_δ} · g1^{−c}, g2) · e(T2^{c} · v^{−s_α}, w)
//
// which eliminates both G2 exponentiations and the GT exponentiation of the
// reference verifier: the g1^{−c} term absorbs e(g1,g2)^{−c}, and the fixed
// G2 sides (g2, w) let the Miller-loop line functions be precomputed once.
// Both Miller loops walk the same addition chain, so they are evaluated
// simultaneously with a shared squaring chain and share one final
// exponentiation.
//
// With per-message generators, v = g1^b collapses the v-terms into the
// fixed-base table of g1 (v^{−s_δ} = g1^{−b·s_δ}); with fixed generators
// the Verifier holds dedicated window tables for u and v. Either way each
// signature costs 4 G1 multi-exponentiations and 2 pairings — against the
// paper's 6 exponentiations and 3 pairings — and the batch path spreads
// the work across all CPUs.
//
// A Verifier is immutable after construction and safe for concurrent use.
type Verifier struct {
	pk     *PublicKey
	g2Prep *bn256.PreparedG2
	wPrep  *bn256.PreparedG2

	// Fixed-generator cache: the H0 scalars, window tables for u = g1^a
	// and v = g1^b, and the prepared G2 counterparts for revocation sweeps.
	fixedA, fixedB *big.Int
	uTable, vTable *bn256.G1Table
	uhatPrep       *bn256.PreparedG2
	vhatPrep       *bn256.PreparedG2
	vhat           *bn256.G2
}

// NewVerifier precomputes the pairing and exponentiation tables for pk.
// The one-time cost is a few full pairings; every subsequent verification
// is roughly twice as fast as Verify, before any parallelism.
func NewVerifier(pk *PublicKey) *Verifier {
	v := &Verifier{
		pk:     pk,
		g2Prep: bn256.PrepareG2(new(bn256.G2).Base()),
		wPrep:  bn256.PrepareG2(pk.W),
	}
	v.fixedA, v.fixedB = deriveScalars(pk, FixedGenerators, nil, nil, counter{})
	v.uTable = bn256.NewG1Table(new(bn256.G1).ScalarBaseMult(v.fixedA))
	v.vTable = bn256.NewG1Table(new(bn256.G1).ScalarBaseMult(v.fixedB))
	uhat := new(bn256.G2).ScalarBaseMult(v.fixedA)
	v.vhat = new(bn256.G2).ScalarBaseMult(v.fixedB)
	v.uhatPrep = bn256.PrepareG2(uhat)
	v.vhatPrep = bn256.PrepareG2(v.vhat)
	return v
}

// PublicKey returns the group public key this verifier was built for.
func (v *Verifier) PublicKey() *PublicKey { return v.pk }

// Verify checks one signature using the precomputed tables.
func (v *Verifier) Verify(msg []byte, sig *Signature) error {
	return v.verifyOne(msg, sig, counter{})
}

// VerifyCounted is Verify with operation counts. The tallies reflect the
// work actually performed on this path: 4 multi-exponentiations and 2
// pairings per signature, no GT exponentiation (see the Verifier type
// documentation for the rewriting that removes the rest).
func (v *Verifier) VerifyCounted(msg []byte, sig *Signature) (OpCounts, error) {
	var counts OpCounts
	err := v.verifyOne(msg, sig, counter{&counts})
	return counts, err
}

// VerifyGroup checks the items side by side on the calling goroutine and
// returns one error slot per item (nil for valid signatures), each the
// verdict Verify gives that item alone. Side by side means SIMD, not
// aggregation: every signature keeps its own R̃2 and its own challenge
// comparison, and what a group shares is the pass of the lane-parallel
// tower (bn256.PairProductLanes) that computes up to bn256.Lanes of those
// R̃2 at once — one squaring chain and one final exponentiation for eight
// pairing products. A bad signature therefore costs what a good one does,
// is attributed directly, and leaves its neighbours' verdicts alone.
func (v *Verifier) VerifyGroup(items []BatchItem) []error {
	errs := make([]error, len(items))
	v.verifyGroup(items, errs, counter{})
	return errs
}

// verifyOne is verifyGroup for a group of one.
func (v *Verifier) verifyOne(msg []byte, sig *Signature, ct counter) error {
	var err [1]error
	v.verifyGroup([]BatchItem{{Msg: msg, Sig: sig}}, err[:], ct)
	return err[0]
}

// verifyGroup is the verifier: Eq.2 in three steps, of which the first and
// the last run a signature at a time and the pairing step in the middle is
// the only one that looks at the size of the group. errs has a slot per
// item.
func (v *Verifier) verifyGroup(items []BatchItem, errs []error, ct counter) {
	// Step 1, per signature: shape check, bases, and the eight G1
	// exponentiations that give R̃1, R̃3 and the G1 sides A, B of the
	// pairing product. A misshapen signature stops here.
	eqs := make([]*eq2, len(items)) // nil where the shape check failed
	live := make([]*eq2, 0, len(items))
	for i, it := range items {
		if eqs[i], errs[i] = v.prepare(it.Msg, it.Sig, ct); errs[i] == nil {
			live = append(live, eqs[i])
		}
	}

	// Step 2, the group at once: every R̃2.
	v.pairingProducts(live)
	ct.pairing(2 * len(live))

	// Step 3, per signature: the challenge equation.
	for i, e := range eqs {
		if e != nil {
			errs[i] = v.finish(items[i].Msg, items[i].Sig, e, ct)
		}
	}
}

// pairingProducts sets R̃2 = e(A, g2) · e(B, w) for every signature of a
// group: two prepared Miller loops sharing the squaring chain and one final
// exponentiation — on the lane-parallel tower eight signatures to a pass
// where bn256.PackG1Lanes says that is the faster way (the rule is its own:
// the kernels exist and there are at least two signatures), one signature
// at a time on the scalar tower otherwise. Both give the same GT element,
// byte for byte.
func (v *Verifier) pairingProducts(eqs []*eq2) {
	preps := []*bn256.PreparedG2{v.g2Prep, v.wPrep}
	as, bs := make([]*bn256.G1, len(eqs)), make([]*bn256.G1, len(eqs))
	for j, e := range eqs {
		as[j], bs[j] = e.a, e.b
	}
	aLanes, bLanes := bn256.PackG1Lanes(as), bn256.PackG1Lanes(bs)
	if aLanes == nil {
		for _, e := range eqs {
			e.r2 = bn256.MillerCombined(preps, []*bn256.G1{e.a, e.b}).Finalize()
		}
		return
	}
	lanes := []*bn256.G1Lanes{aLanes, bLanes}
	for c := 0; c < aLanes.Chunks(); c++ {
		for j, r2 := range bn256.PairProductLanes(preps, lanes, c, nil) {
			eqs[c*bn256.Lanes+j].r2 = r2
		}
	}
}

// eq2 is one signature between the steps of verifyGroup: the recovered
// helper values of Eq.2. t1 and t2 are copies of the signature's points:
// marshaling (in the challenge hash) normalizes points in place, and the
// same *Signature may appear in several slots being verified on different
// goroutines.
type eq2 struct {
	t1, t2 *bn256.G1
	r1, r3 *bn256.G1
	a, b   *bn256.G1 // R̃2 = e(a, g2) · e(b, w)
	r2     *bn256.GT
}

// prepare runs the G1 side of Eq.2 for one signature.
func (v *Verifier) prepare(msg []byte, sig *Signature, ct counter) (*eq2, error) {
	if err := checkSignatureShape(sig); err != nil {
		return nil, err
	}
	e := &eq2{t1: new(bn256.G1).Set(sig.T1), t2: new(bn256.G1).Set(sig.T2)}

	negC := new(big.Int).Sub(bn256.Order, sig.C)
	negC.Mod(negC, bn256.Order)
	negSAlpha := new(big.Int).Sub(bn256.Order, sig.SAlpha)
	negSDelta := new(big.Int).Sub(bn256.Order, sig.SDelta)

	if sig.Mode == FixedGenerators {
		// Dedicated per-key window tables for u and v.
		e.r1 = v.uTable.Mul(new(bn256.G1), sig.SAlpha)
		e.r3 = v.uTable.Mul(new(bn256.G1), negSDelta)
		e.a = v.vTable.Mul(new(bn256.G1), negSDelta)
		e.a.Add(e.a, new(bn256.G1).ScalarBaseMult(negC))
		e.b = v.vTable.Mul(new(bn256.G1), negSAlpha)
	} else {
		// Per-message generators: u = g1^a, v = g1^b, so every u/v power
		// folds into the generator table (u^{s_α} = g1^{a·s_α}).
		a, b := deriveScalars(v.pk, sig.Mode, msg, sig.R, ct) // hash 1
		e.r1 = new(bn256.G1).ScalarBaseMult(mulMod(a, sig.SAlpha))
		e.r3 = new(bn256.G1).ScalarBaseMult(mulMod(a, negSDelta))
		bnd := mulMod(b, negSDelta)
		bnd.Add(bnd, negC)
		e.a = new(bn256.G1).ScalarBaseMult(bnd.Mod(bnd, bn256.Order))
		e.b = new(bn256.G1).ScalarBaseMult(mulMod(b, negSAlpha))
	}

	// R̃1 = u^{s_α} · T1^{−c} and R̃3 = T1^{s_x} · u^{−s_δ}.
	e.r1.Add(e.r1, new(bn256.G1).ScalarMult(e.t1, negC))
	ct.exp(1)
	e.r3.Add(e.r3, new(bn256.G1).ScalarMult(e.t1, sig.SX))
	ct.exp(1)

	// A = T2^{s_x} · v^{−s_δ} · g1^{−c} and B = T2^{c} · v^{−s_α}: the G1
	// sides of the rearranged pairing product.
	e.a.Add(e.a, new(bn256.G1).ScalarMult(e.t2, sig.SX))
	ct.exp(1)
	e.b.Add(e.b, new(bn256.G1).ScalarMult(e.t2, sig.C))
	ct.exp(1)
	return e, nil
}

// finish compares the challenge recomputed from the recovered values with
// the signature's (Step 3.2.3).
func (v *Verifier) finish(msg []byte, sig *Signature, e *eq2, ct counter) error {
	ct.hash(1)
	c := challenge(v.pk, msg, sig.R, e.t1, e.t2, e.r1, e.r2, e.r3)
	if c.Cmp(sig.C) != 0 {
		return ErrInvalidSignature
	}
	return nil
}

// mulMod returns a·b mod Order.
func mulMod(a, b *big.Int) *big.Int {
	out := new(big.Int).Mul(a, b)
	return out.Mod(out, bn256.Order)
}

// ForEachGroup cuts n signatures into consecutive groups for VerifyGroup
// and calls fn(lo, hi) once per group [lo, hi), on up to GOMAXPROCS
// goroutines, returning when every call has. The cut is the one a batch
// wants on this verifier: a group's lane pass costs the same for two
// signatures as for eight, while everything else about a signature is
// serial, so groups are as large as bn256.Lanes allows — but never so
// large that a core is left without one, and their number is a multiple of
// the cores, so the cores finish together. Two signatures on two cores are
// two groups of one.
func ForEachGroup(n int, fn func(lo, hi int)) {
	procs := runtime.GOMAXPROCS(0)
	groups := (n + bn256.Lanes - 1) / bn256.Lanes
	groups = min(n, (groups+procs-1)/procs*procs)
	bounds := func(g int) (lo, hi int) { return g * n / groups, (g + 1) * n / groups }

	workers := min(procs, groups)
	if workers <= 1 {
		for g := 0; g < groups; g++ {
			fn(bounds(g))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := int(next.Add(1)) - 1; g < groups; g = int(next.Add(1)) - 1 {
				fn(bounds(g))
			}
		}()
	}
	wg.Wait()
}

// BatchVerify checks every item and returns one error slot per item (nil
// for valid signatures): the items cut into groups by ForEachGroup, each
// group verified by VerifyGroup's code on its own goroutine. Signatures
// are verified independently — a cross-signature pairing product is not
// possible here because each challenge c_i binds its own R̃2_i — so a bad
// signature is attributed directly without any fallback re-verification.
func (v *Verifier) BatchVerify(items []BatchItem) []error {
	errs, _ := v.BatchVerifyCounted(items)
	return errs
}

// BatchVerifyCounted is BatchVerify with aggregate operation counts.
func (v *Verifier) BatchVerifyCounted(items []BatchItem) ([]error, OpCounts) {
	errs := make([]error, len(items))
	var total OpCounts
	var mu sync.Mutex
	ForEachGroup(len(items), func(lo, hi int) {
		var local OpCounts
		v.verifyGroup(items[lo:hi], errs[lo:hi], counter{&local})
		mu.Lock()
		total.Add(local)
		mu.Unlock()
	})
	return errs, total
}

// SweepURL scans the revocation list for the signer of sig (the paper's
// Eq.3, see scan) using all CPUs. It returns whether a token matched and,
// if so, the smallest matching index.
func (v *Verifier) SweepURL(msg []byte, sig *Signature, tokens []*RevocationToken) (bool, int) {
	return v.SweepURLWorkers(msg, sig, tokens, runtime.GOMAXPROCS(0))
}

// SweepURLWorkers is SweepURL with an explicit worker count (minimum 1).
// It exists so benchmarks can pin the parallelism; SweepURL is the
// convenience form.
func (v *Verifier) SweepURLWorkers(msg []byte, sig *Signature, tokens []*RevocationToken, workers int) (bool, int) {
	idx := v.sweep(msg, sig, newTokenSet(tokens), workers)
	return idx >= 0, idx
}

// sweep runs scan with the verifier's bases. Fixed-generator signatures
// reuse the prepared û and v̂ built at construction; per-message ones pay
// one derivation and preparation per sweep, amortized over the whole list.
func (v *Verifier) sweep(msg []byte, sig *Signature, set tokenSet, workers int) int {
	if len(set.tokens) == 0 {
		return -1
	}
	uhatPrep, vhatPrep := v.uhatPrep, v.vhatPrep
	if sig.Mode != FixedGenerators {
		uhat, vhat := deriveG2Generators(v.pk, sig.Mode, msg, sig.R, counter{})
		uhatPrep = bn256.PrepareG2(uhat)
		vhatPrep = bn256.PrepareG2(vhat)
	}
	return scan(sig, uhatPrep, vhatPrep, set, workers)
}

// BatchCheckKeys verifies the SDH equation e(A_i, w·g2^{grp_i+x_i}) =
// e(g1, g2) for every key with a single randomized pairing product:
//
//	Π e(A_i^{ρ_i}, w·g2^{grp_i+x_i}) · e(g1^{−Σρ_i}, g2) = 1
//
// with independent 64-bit exponents ρ_i, sharing one final exponentiation
// across the whole batch. A forged key slips through only if its defect
// cancels the random ρ_i, probability 2^{−64}. Small exponents are sound
// here precisely because — unlike signature verification — no challenge
// hash binds the individual equations. On batch failure every key is
// re-checked individually and the first bad index is reported.
func BatchCheckKeys(rng io.Reader, pk *PublicKey, keys []*PrivateKey) error {
	if len(keys) == 0 {
		return nil
	}
	pairs := make([]bn256.Pairing, 0, len(keys)+1)
	rhoSum := new(big.Int)
	for _, key := range keys {
		rho, err := randomSmallExponent(rng)
		if err != nil {
			return fmt.Errorf("sgs: sample batch exponent: %w", err)
		}
		rhoSum.Add(rhoSum, rho)

		s := new(big.Int).Add(key.Grp, key.X)
		s.Mod(s, bn256.Order)
		rhs := new(bn256.G2).ScalarBaseMult(s)
		rhs.Add(rhs, pk.W)
		pairs = append(pairs, bn256.Pairing{
			G1: new(bn256.G1).ScalarMult(key.A, rho),
			G2: rhs,
		})
	}
	negSum := new(big.Int).Neg(rhoSum)
	negSum.Mod(negSum, bn256.Order)
	pairs = append(pairs, bn256.Pairing{
		G1: new(bn256.G1).ScalarBaseMult(negSum),
		G2: new(bn256.G2).Base(),
	})
	if bn256.PairBatch(pairs).IsOne() {
		return nil
	}
	for i, key := range keys {
		if err := CheckKey(pk, key); err != nil {
			return fmt.Errorf("sgs: key %d: %w", i, err)
		}
	}
	// The batch product rejected but each key passes individually: the
	// only remaining cause is a bad RNG draw colliding exponents, which
	// randomSmallExponent rules out, so surface it loudly.
	return fmt.Errorf("sgs: batch key check failed but all keys verify individually")
}

// randomSmallExponent samples a uniform non-zero 64-bit exponent.
func randomSmallExponent(rng io.Reader) (*big.Int, error) {
	var buf [8]byte
	for {
		if _, err := io.ReadFull(rng, buf[:]); err != nil {
			return nil, err
		}
		rho := new(big.Int).SetBytes(buf[:])
		if rho.Sign() != 0 {
			return rho, nil
		}
	}
}
