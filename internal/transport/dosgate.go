package transport

import (
	"net"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/core"
)

// Server-side half of the adaptive DoS defense (paper Section V.A): the
// handshake gate's puzzle check, a bounded replayed-solution table, and
// the sampler that feeds ingest pressure to the router's difficulty
// controller. The router decides *whether* and *how hard*
// (core/dosdetect.go); this file is where those decisions meet the wire
// — cheaply, before any curve unmarshal, queue slot or pairing is spent
// on the datagram.

// dosReplayCap bounds the solved-puzzle replay table. Two generations of
// this many entries cover well over a beacon-refresh interval of
// accepted solutions even under full-rate floods; older triples age out
// harmlessly because the puzzles they answer go stale too.
const dosReplayCap = 4096

// replayKey identifies one solved puzzle: the echoed issue time and
// difficulty pin the seed derivation, the solution completes the triple.
type replayKey struct {
	issuedAt   int64
	difficulty uint8
	solution   uint64
}

// solutionReplayTable remembers which source first presented each
// accepted solution. A retransmit from the same source is admitted (the
// reply cache will answer it); the same solution arriving from a second
// source is the replay attack the table exists to stop — an attacker
// sniffing one legitimate solution must not get free admission for a
// whole spoofed fleet. Bounded by two-generation rotation: when the
// current generation fills, it becomes the previous one and lookups
// consult both.
type solutionReplayTable struct {
	mu   sync.Mutex
	cap  int
	cur  map[replayKey]string
	prev map[replayKey]string
}

func newSolutionReplayTable(cap int) *solutionReplayTable {
	if cap < 1 {
		cap = 1
	}
	return &solutionReplayTable{cap: cap, cur: make(map[replayKey]string, cap)}
}

// admit records the (puzzle, solution, source) binding and reports
// whether the source may proceed: true for first use and same-source
// reuse, false when another source presented the solution first.
func (t *solutionReplayTable) admit(issuedAt time.Time, difficulty uint8, solution uint64, source string) bool {
	k := replayKey{issuedAt: issuedAt.UnixNano(), difficulty: difficulty, solution: solution}
	t.mu.Lock()
	defer t.mu.Unlock()
	if owner, ok := t.cur[k]; ok {
		return owner == source
	}
	if owner, ok := t.prev[k]; ok {
		return owner == source
	}
	if len(t.cur) >= t.cap {
		t.prev = t.cur
		t.cur = make(map[replayKey]string, t.cap)
	}
	t.cur[k] = source
	return true
}

// puzzleGate is the gate's puzzle check. While the router demands a
// difficulty, it spends one HMAC plus one hash on the view's answer —
// for an access request before any curve unmarshal or signature work —
// and refuses a solution another source presented first. Anything
// refused here costs the sender a reject frame and the router almost
// nothing, which is the entire economics of the defense. A resume's
// answer rides under the request MAC (resume.go), but the check runs
// before the MAC is checkable: verifying it needs the ticket opened, and
// opening tickets for free is exactly what a resume flood buys.
// Cross-source grafting of a sniffed solution onto forged resumes is
// caught by the replay table instead.
func (s *Server) puzzleGate(l *shardLoop, from net.Addr, v *gateView) bool {
	if s.router.RequiredDifficulty() == 0 {
		return true
	}
	var reason string
	switch {
	case !v.hasSolution:
		reason = "puzzle solution required"
	case s.router.VerifyPuzzleSolution(v.issuedAt, v.difficulty, v.solution) != nil:
		reason = "puzzle solution rejected"
	case !s.dosReplay.admit(v.issuedAt, v.difficulty, v.solution, sourceKey(from)):
		s.stats.dosSolutionReplays.Add(1)
		reason = "puzzle solution replayed"
	default:
		s.stats.dosPuzzlesVerified.Add(1)
		return true
	}
	s.reject(l.eg, from, v.sid, RejectPuzzle, reason, false)
	return false
}

// dosSampleLoop takes one load sample per dosSampleInterval until Close.
func (s *Server) dosSampleLoop() {
	defer s.loops.Done()
	ticker := time.NewTicker(dosSampleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.dosStop:
			return
		case <-ticker.C:
			s.sample()
		}
	}
}

// sample feeds the router's difficulty controller one ingest pressure
// sample: verification-queue fill, cumulative rate-limiter drops, and
// cumulative admitted handshakes (the drop fraction's denominator). It
// also mirrors the controller's state into the dos_suspicion and
// dos_difficulty gauges and invalidates the cached beacon frame whenever
// the demanded difficulty moves, so the next solicitation advertises the
// new challenge immediately instead of after the refresh period.
func (s *Server) sample() {
	s.router.ObserveLoad(core.LoadSample{
		QueueDepth:    s.queue.Depth(),
		QueueCapacity: queueCapacity,
		RateDropped:   uint64(s.stats.ratelimitDropped.Load()),
		RequestsSeen:  uint64(s.handshakesSeen.Load()),
	})
	need := s.router.RequiredDifficulty()
	s.stats.dosDifficulty.Store(int64(need))
	if s.router.DoSDefenseActive() {
		s.stats.dosSuspicion.Store(1)
	} else {
		s.stats.dosSuspicion.Store(0)
	}
	if s.sampledDifficulty.Swap(uint32(need)) != uint32(need) {
		s.InvalidateBeacon()
	}
}
