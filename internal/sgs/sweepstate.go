package sgs

import (
	"runtime"
	"sync"
)

// SweepState is the router-side revocation sweep cache, keyed by the
// epoch of the installed URL snapshot. It owns the shared Verifier (built
// lazily — construction costs a few pairings) plus the token list for the
// current epoch in the form the Eq.3 scan reads (a tokenSet: the A_i
// already packed in lane form when the scan will test them eight at a
// time), so per-request work never re-derives what the epoch already
// fixes. A signature runs the parallel Eq.3 scan over the cached set; what
// it adds is its own û, v̂ and the Miller product every token's pairing is
// multiplied by. A group of verified signatures (Group) sets those up
// together: û prepared eight to a walk of the lane-parallel tower and every
// signature's Miller product in one more pass that walks v̂, the scalar
// set-up of a lone signature otherwise.
//
// Update is epoch-monotonic: a lower epoch is refused, so a delayed or
// replayed older list can never displace newer sweep state. All methods
// are safe for concurrent use.
type SweepState struct {
	pk *PublicKey

	vOnce sync.Once
	v     *Verifier

	mu    sync.RWMutex
	epoch uint64
	set   tokenSet
}

// NewSweepState creates sweep state for one group public key with no
// tokens installed (every check reports not-revoked until Update).
func NewSweepState(pk *PublicKey) *SweepState {
	return &SweepState{pk: pk}
}

// Verifier returns the shared verifier, building it on first use.
func (s *SweepState) Verifier() *Verifier {
	s.vOnce.Do(func() { s.v = NewVerifier(s.pk) })
	return s.v
}

// Update installs the token list for epoch. It returns false — leaving
// the installed state untouched — when epoch is lower than the current
// one. Re-installing the current epoch is a no-op (the token set is
// immutable per epoch). The caller keeps ownership of nothing: the slice
// is stored as-is and must not be mutated afterwards.
func (s *SweepState) Update(epoch uint64, tokens []*RevocationToken) bool {
	s.mu.RLock()
	done, ok := s.settled(epoch)
	s.mu.RUnlock()
	if done {
		return ok
	}
	// Packing costs an inversion per token; do it before taking the write
	// lock so concurrent Checks wait only for the install. Two Updates racing
	// here waste one pack, and the re-check below keeps the outcome the same
	// as if they had run one after the other.
	set := newTokenSet(tokens)

	s.mu.Lock()
	defer s.mu.Unlock()
	if done, ok := s.settled(epoch); done {
		return ok
	}
	s.epoch = epoch
	s.set = set
	return true
}

// settled reports, with s.mu held, whether an Update to epoch has nothing
// to install, and if so what it returns: false for an epoch lower than the
// installed one, true for the installed epoch once it has a token list.
func (s *SweepState) settled(epoch uint64) (done, ok bool) {
	if epoch < s.epoch {
		return true, false
	}
	return epoch == s.epoch && s.set.tokens != nil, true
}

// Epoch returns the installed epoch (0 before the first Update).
func (s *SweepState) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Tokens returns the installed token list for the current epoch.
func (s *SweepState) Tokens() []*RevocationToken {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.set.tokens
}

// Check reports whether the signer of sig is revoked and, if so, the
// token index within the current epoch's list. It is the check of a group
// of one (Group).
func (s *SweepState) Check(msg []byte, sig *Signature) (bool, int) {
	return s.checkWorkers(msg, sig, 0)
}

// checkWorkers is Check with an explicit sweep worker count (0 means
// GOMAXPROCS), so the tests can pin the parallelism.
func (s *SweepState) checkWorkers(msg []byte, sig *Signature, workers int) (bool, int) {
	return s.group([]BatchItem{{Msg: msg, Sig: sig}}, workers).Check(0)
}

// Group sets up the revocation check of every item against the current
// epoch's list at once (SweepGroup), each scan to run on all the sweep's
// workers. The caller gives it only signatures that verified and checks
// each with Check.
func (s *SweepState) Group(items []BatchItem) *SweepGroup {
	return s.group(items, 0)
}

func (s *SweepState) group(items []BatchItem, workers int) *SweepGroup {
	s.mu.RLock()
	set := s.set
	s.mu.RUnlock()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return s.Verifier().setupSweep(items, set, workers)
}
