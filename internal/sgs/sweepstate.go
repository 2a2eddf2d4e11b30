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
// fixes:
//
//   - PerMessageGenerators signatures run the parallel Eq.3 scan over the
//     cached set; what a signature adds is its own û, v̂ and the Miller
//     product every token's pairing is multiplied by.
//   - FixedGenerators signatures use a FastRevocationChecker whose
//     e(A, û) index is built once per epoch (one pairing per token,
//     amortized) and answers each check with two pairings and a hash
//     lookup regardless of |URL| (BS04 §6).
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

	fastMu    sync.Mutex
	fastEpoch uint64
	fast      *FastRevocationChecker
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
// token index within the current epoch's list. FixedGenerators signatures
// take the constant-cost indexed path; everything else sweeps.
func (s *SweepState) Check(msg []byte, sig *Signature) (bool, int) {
	return s.CheckWorkers(msg, sig, 0)
}

// CheckWorkers is Check with an explicit sweep worker count (0 means
// GOMAXPROCS); the FixedGenerators path is single-lookup and ignores it.
func (s *SweepState) CheckWorkers(msg []byte, sig *Signature, workers int) (bool, int) {
	s.mu.RLock()
	epoch, set := s.epoch, s.set
	s.mu.RUnlock()
	if len(set.tokens) == 0 {
		return false, -1
	}
	if sig.Mode == FixedGenerators {
		if revoked, idx, err := s.fastChecker(epoch, set).IsRevoked(sig); err == nil {
			return revoked, idx
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	idx := s.Verifier().sweep(msg, sig, set, workers)
	return idx >= 0, idx
}

// fastChecker returns the per-epoch e(A, û) index, building it when the
// epoch moved since the last build. Concurrent callers at the same epoch
// share one build.
func (s *SweepState) fastChecker(epoch uint64, set tokenSet) *FastRevocationChecker {
	s.fastMu.Lock()
	defer s.fastMu.Unlock()
	if s.fast == nil || s.fastEpoch != epoch {
		s.fast = newFastRevocationChecker(s.pk, set)
		s.fastEpoch = epoch
	}
	return s.fast
}
