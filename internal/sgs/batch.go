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

// Verifier checks signatures under one group public key, whose prepared
// g2 and w lines it shares with every other Verifier and signer of that
// key. It rewrites the pairing side of the
// paper's Eq.2 so that both pairings have a constant G2 argument:
//
//	R̃2 = e(T2, g2^{s_x} · w^c) · e(v, w^{−s_α} · g2^{−s_δ}) · e(g1,g2)^{−c}
//	   = e(T2^{s_x} · v^{−s_δ} · g1^{−c}, g2) · e(T2^{c} · v^{−s_α}, w)
//
// which eliminates both G2 exponentiations and the GT exponentiation of the
// equation as written: the g1^{−c} term absorbs e(g1,g2)^{−c}, and the fixed
// G2 sides (g2, w) let the Miller-loop line functions be precomputed once.
// Both Miller loops walk the same addition chain, so they are evaluated
// simultaneously with a shared squaring chain and share one final
// exponentiation.
//
// The per-message bases are u = g1^a and v = g1^b, so the u- and v-terms
// collapse into powers of g1 (v^{−s_δ} = g1^{−b·s_δ}), and each signature
// costs 4 G1 multi-exponentiations and 2 pairings — against the paper's 6
// exponentiations and 3 pairings — and the batch path spreads the work
// across all CPUs. The multi-exponentiations of a group, four to a
// signature, go eight to a pass of the lane kernels
// (bn256.MultiScalarMultLanes) where the CPU has them. It is the package's
// only Eq.2: the free functions Verify and VerifyWithRevocation run on the
// key's own Verifier.
//
// A Verifier is safe for concurrent use.
type Verifier struct {
	pk *PublicKey
}

// NewVerifier returns a verifier for pk. It precomputes nothing itself: the
// prepared g2 and w lines live on pk and are built by the first signature
// or verification under it.
func NewVerifier(pk *PublicKey) *Verifier {
	return &Verifier{pk: pk}
}

// PublicKey returns the group public key this verifier was built for.
func (v *Verifier) PublicKey() *PublicKey { return v.pk }

// Verify checks one signature.
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
// pairing products — and the lane passes of its G1 sums, one doubling chain
// for eight. A bad signature therefore costs what a good one does,
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

// verifyGroup is the verifier: Eq.2 in three steps. The first and the last
// run a signature at a time, but for the G1 sums that end the first, which
// the group computes in one call; the pairing step in the middle takes the
// group at once. errs has a slot per item.
func (v *Verifier) verifyGroup(items []BatchItem, errs []error, ct counter) {
	// Step 1, per signature: shape check, bases and exponents of the eight
	// G1 exponentiations that give R̃1, R̃3 and the G1 sides A, B of the
	// pairing product; then those, for the group at once. A misshapen
	// signature stops here.
	eqs := make([]*eq2, len(items)) // nil where the shape check failed
	live := make([]*eq2, 0, len(items))
	for i, it := range items {
		if eqs[i], errs[i] = v.prepare(it.Msg, it.Sig, ct); errs[i] == nil {
			live = append(live, eqs[i])
		}
	}
	g1Sums(live)

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

// g1Sums computes R̃1, R̃3, A and B of every signature of a group: four
// sums to a signature, in one call of bn256.MultiScalarMultLanes where
// bn256.G1LanesPay says that is the faster way (the rule is its own: the
// kernels exist and there are at least two sums, so a lone signature's
// four go to the lanes too), one at a time on the scalar tower otherwise.
// Both give the same points, byte for byte.
func g1Sums(eqs []*eq2) {
	if bn256.G1LanesPay(4 * len(eqs)) {
		g1SumsLanes(eqs)
	} else {
		g1SumsScalar(eqs)
	}
}

// g1SumsScalar is g1Sums on the scalar tower.
func g1SumsScalar(eqs []*eq2) {
	for _, e := range eqs {
		for s, out := range e.outs() {
			*out = e.sums[s].scalar()
		}
	}
}

// g1SumsLanes is g1Sums on the lane kernels, whatever the rule says.
func g1SumsLanes(eqs []*eq2) {
	n := 4 * len(eqs)
	out := make([]*bn256.G1, 0, n)
	ps := make([][]*bn256.G1, 0, n)
	ks := make([][]*big.Int, 0, n)
	for _, e := range eqs {
		for s, o := range e.outs() {
			sum := &e.sums[s]
			*o = new(bn256.G1)
			out = append(out, *o)
			ps = append(ps, sum.bases[:])
			ks = append(ks, sum.exps[:])
		}
	}
	bn256.MultiScalarMultLanes(out, ps, ks)
}

// pairingProducts sets R̃2 = e(A, g2) · e(B, w) for every signature of a
// group: two prepared Miller loops sharing the squaring chain and one final
// exponentiation — on the lane-parallel tower eight signatures to a pass
// where bn256.PackG1Lanes says that is the faster way (the rule is its own:
// the kernels exist and there are at least two signatures), one signature
// at a time on the scalar tower otherwise. Both give the same GT element,
// byte for byte.
func (v *Verifier) pairingProducts(eqs []*eq2) {
	preps := v.pk.pairingLines()
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
	t1, t2 bn256.G1
	r1, r3 *bn256.G1
	a, b   *bn256.G1 // R̃2 = e(a, g2) · e(b, w)
	r2     *bn256.GT

	// sums are r1, r3, a and b, in that order, as prepare folds them.
	sums [4]g1Sum
}

// outs returns where the four sums go, in the order of sums.
func (e *eq2) outs() [4]**bn256.G1 { return [4]**bn256.G1{&e.r1, &e.r3, &e.a, &e.b} }

// g1Sum is one of a signature's G1 sums, g1^exps[0] · bases[1]^exps[1]:
// a power of the generator (bases[0] is g1Base) and one of T1 or T2.
type g1Sum struct {
	bases [2]*bn256.G1
	exps  [2]*big.Int
}

// g1Base is the generator g1 as a base of a g1Sum.
var g1Base = new(bn256.G1).Base()

// newG1Sum returns g1^k · t^kt.
func newG1Sum(k *big.Int, t *bn256.G1, kt *big.Int) g1Sum {
	return g1Sum{bases: [2]*bn256.G1{g1Base, t}, exps: [2]*big.Int{k, kt}}
}

// scalar computes the sum on the scalar tower: the generator's power from
// its fixed-base table, the other by variable-base multiplication. (The
// second power is written out where it is added, which keeps it off the
// heap.)
func (s *g1Sum) scalar() *bn256.G1 {
	sum := new(bn256.G1).ScalarBaseMult(s.exps[0])
	return sum.Add(sum, new(bn256.G1).ScalarMult(s.bases[1], s.exps[1]))
}

// prepare folds the G1 side of Eq.2 for one signature into its four sums.
func (v *Verifier) prepare(msg []byte, sig *Signature, ct counter) (*eq2, error) {
	if err := checkSignatureShape(sig); err != nil {
		return nil, err
	}
	e := new(eq2)
	e.t1.Set(sig.T1)
	e.t2.Set(sig.T2)

	negC := new(big.Int).Sub(bn256.Order, sig.C)
	negC.Mod(negC, bn256.Order)

	// u = g1^a and v = g1^b, so every u/v power folds into the generator
	// (u^{s_α} = g1^{a·s_α}).
	ea, eb := deriveScalars(v.pk, msg, sig.R, ct) // hash 1
	aExp := negMulMod(eb, sig.SDelta)
	aExp.Add(aExp, negC)
	e.sums = [4]g1Sum{
		// R̃1 = u^{s_α} · T1^{−c} and R̃3 = T1^{s_x} · u^{−s_δ}.
		newG1Sum(mulMod(ea, sig.SAlpha), &e.t1, negC),
		newG1Sum(negMulMod(ea, sig.SDelta), &e.t1, sig.SX),
		// A = T2^{s_x} · v^{−s_δ} · g1^{−c} and B = T2^{c} · v^{−s_α}: the
		// G1 sides of the rearranged pairing product.
		newG1Sum(aExp.Mod(aExp, bn256.Order), &e.t2, sig.SX),
		newG1Sum(negMulMod(eb, sig.SAlpha), &e.t2, sig.C),
	}
	ct.exp(4)
	return e, nil
}

// finish compares the challenge recomputed from the recovered values with
// the signature's (Step 3.2.3).
func (v *Verifier) finish(msg []byte, sig *Signature, e *eq2, ct counter) error {
	ct.hash(1)
	c := challenge(v.pk, msg, sig.R, &e.t1, &e.t2, e.r1, e.r2, e.r3)
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

// negMulMod returns −a·b mod Order.
func negMulMod(a, b *big.Int) *big.Int {
	out := new(big.Int).Mul(a, b)
	return out.Mod(out.Neg(out), bn256.Order)
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
	errs, _ := v.batchVerifyCounted(items)
	return errs
}

// batchVerifyCounted is BatchVerify with aggregate operation counts, for
// the tests that pin what a batch charges.
func (v *Verifier) batchVerifyCounted(items []BatchItem) ([]error, OpCounts) {
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
	return v.sweepURLWorkers(msg, sig, tokens, runtime.GOMAXPROCS(0))
}

// sweepURLWorkers is SweepURL with an explicit worker count (minimum 1),
// so the tests can pin the parallelism.
func (v *Verifier) sweepURLWorkers(msg []byte, sig *Signature, tokens []*RevocationToken, workers int) (bool, int) {
	return v.setupSweep([]BatchItem{{Msg: msg, Sig: sig}}, newTokenSet(tokens), workers).Check(0)
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
