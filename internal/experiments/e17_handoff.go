package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/peace-mesh/peace/internal/chaos"
)

// E17HandoffReport compares the three ways a metro user (re)gains
// service: a full M.1–M.3 pairing, a ticket resume at the same router,
// and a cross-router roaming handoff — a ticket resume at a *different*
// router, which additionally validates epoch pins against that router's
// own revocation state, re-logs the accountability escrow and announces
// the ownership transfer on the backbone. The handoff must price like a
// resume, not like a pairing: the gossip/relay work happens off the
// user's critical path.
type E17HandoffReport struct {
	FullAttachP50         time.Duration
	SameRouterResumeP50   time.Duration
	CrossRouterHandoffP50 time.Duration

	// HandoffVsResumeX is CrossRouterHandoffP50 / SameRouterResumeP50 —
	// the roaming premium (target: ≈1–2×).
	HandoffVsResumeX float64
	// AttachVsHandoffX is FullAttachP50 / CrossRouterHandoffP50 — how much
	// cheaper roaming is than re-pairing at the new router.
	AttachVsHandoffX float64

	Attaches int
	Resumes  int
	Handoffs int

	// HistAttachP50 / HistResumeP50 / HistHandoffP50 are the same three
	// latencies as estimated from the client's registry histograms
	// (attach_latency, resume_latency, handoff_latency) — the boundary
	// instrumentation cross-checked against the wall-clock medians above,
	// to log2-bucket precision.
	HistAttachP50  time.Duration
	HistResumeP50  time.Duration
	HistHandoffP50 time.Duration
}

// RunE17Handoff measures attach/resume/handoff latencies over real UDP
// loopback against a two-router metro sharing one STEK ring.
func RunE17Handoff(iters int) (*E17HandoffReport, error) {
	if iters < 1 {
		iters = 1
	}
	m, err := chaos.NewTestbed(chaos.TestbedConfig{Routers: 2})
	if err != nil {
		return nil, err
	}
	defer m.Close()

	cl, err := m.Dial(0)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	rep := &E17HandoffReport{}

	nAttach := 5 * iters
	fulls := make([]time.Duration, 0, nAttach)
	for i := 0; i < nAttach; i++ {
		start := time.Now()
		if _, err := cl.Attach(ctx); err != nil {
			return nil, fmt.Errorf("e17 full attach %d: %w", i, err)
		}
		fulls = append(fulls, time.Since(start))
	}

	nResume := 20 * iters
	sames := make([]time.Duration, 0, nResume)
	for i := 0; i < nResume; i++ {
		start := time.Now()
		if _, err := cl.Resume(ctx); err != nil {
			return nil, fmt.Errorf("e17 same-router resume %d: %w", i, err)
		}
		sames = append(sames, time.Since(start))
	}

	// Cross-router: bounce between the two routers, resuming at the one
	// the client did NOT get its current ticket from. Every iteration is a
	// real roaming handoff (handoffs_in bumps on the adopting side).
	crosses := make([]time.Duration, 0, nResume)
	at := 0
	for i := 0; i < nResume; i++ {
		at = 1 - at
		cl.Retarget(m.Servers[at].Addr())
		start := time.Now()
		if _, err := cl.Resume(ctx); err != nil {
			return nil, fmt.Errorf("e17 cross-router handoff %d: %w", i, err)
		}
		crosses = append(crosses, time.Since(start))
	}
	handoffs := m.Servers[0].Stats().HandoffsIn() + m.Servers[1].Stats().HandoffsIn()
	if handoffs < int64(nResume) {
		return nil, fmt.Errorf("e17: only %d/%d iterations registered as handoffs", handoffs, nResume)
	}
	// The client must have classified every cross-router resume as a
	// handoff (the resume confirmation names a different router).
	st := cl.Stats()
	if got := st.HandoffLatency().Count(); got < int64(nResume) {
		return nil, fmt.Errorf("e17: client histogram saw %d/%d handoffs", got, nResume)
	}
	rep.HistAttachP50 = st.AttachLatency().Quantile(0.5)
	rep.HistResumeP50 = st.ResumeLatency().Quantile(0.5)
	rep.HistHandoffP50 = st.HandoffLatency().Quantile(0.5)

	rep.Attaches = nAttach
	rep.Resumes = nResume
	rep.Handoffs = int(handoffs)
	rep.FullAttachP50 = median(fulls)
	rep.SameRouterResumeP50 = median(sames)
	rep.CrossRouterHandoffP50 = median(crosses)
	if rep.SameRouterResumeP50 > 0 {
		rep.HandoffVsResumeX = float64(rep.CrossRouterHandoffP50) / float64(rep.SameRouterResumeP50)
	}
	if rep.CrossRouterHandoffP50 > 0 {
		rep.AttachVsHandoffX = float64(rep.FullAttachP50) / float64(rep.CrossRouterHandoffP50)
	}
	return rep, nil
}
