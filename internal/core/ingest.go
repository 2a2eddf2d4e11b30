package core

import (
	"runtime"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
)

// ingestJob is one submitted request: the M.2, the caller's tag naming
// where its answer goes, and the time it entered the queue.
type ingestJob[T any] struct {
	m      *AccessRequest
	tag    T
	queued time.Time
}

// IngestQueue feeds M.2 access requests to a router's M.2 pipeline.
// Submissions beyond the queue's capacity are rejected immediately with
// ErrQueueFull — bounded backpressure, in the spirit of the paper's DoS
// discussion, instead of unbounded buffering. GOMAXPROCS drainer goroutines
// serve the queue, and each is a whole pipeline: it takes a group of waiting
// requests, carries it through precheck, verification, revocation scan and
// session establishment (MeshRouter.handleGroup) and answers it before it
// takes the next, so no stage waits for another group to reach it and no
// core idles while one request's serial work runs.
//
// A group is what one lane pass of the verifier holds: a drainer takes
// min(bn256.Lanes, waiting) requests, filling the lanes before it leaves
// work for another core, since a pass costs the same for two signatures as
// for eight and more requests keep arriving for the other drainers. A
// request that arrives alone on an idle router is served at once, with no
// wait for company, as a group of one: the scalar verifier, the scan on all
// its workers and the scalar Diffie–Hellman.
//
// T is the caller's tag: whatever it needs to deliver an answer. The queue
// hands the tags of a group back to answer with the group's results.
type IngestQueue[T any] struct {
	router *MeshRouter
	jobs   chan ingestJob[T]
	answer func(tags []T, out []AccessResult)

	mu       sync.Mutex
	closed   bool
	drainers sync.WaitGroup
}

// NewIngestQueue builds a queue for router; Start launches its drainers.
// capacity bounds the number of requests waiting to be taken (minimum 1).
// answer is called once per group, after the router has served it, with
// tags[i] the tag out[i] answers; it runs on the drainer (or Step's caller)
// and the next group waits for it.
func NewIngestQueue[T any](router *MeshRouter, capacity int, answer func(tags []T, out []AccessResult)) *IngestQueue[T] {
	q := &IngestQueue[T]{
		router: router,
		jobs:   make(chan ingestJob[T], max(1, capacity)),
		answer: answer,
	}
	// The depth gauge lives in the router's registry and re-binds to the
	// newest queue (a restarted transport builds a fresh one).
	router.Metrics().GaugeFunc("router_ingest_queue_depth",
		"access requests waiting for a pipeline to take them", func() int64 {
			return int64(q.Depth())
		})
	return q
}

// Start launches the drainers, one per GOMAXPROCS.
func (q *IngestQueue[T]) Start() {
	procs := runtime.GOMAXPROCS(0)
	q.drainers.Add(procs)
	for range procs {
		go q.drain()
	}
}

// Depth returns how many submitted requests are waiting to be drained.
func (q *IngestQueue[T]) Depth() int { return len(q.jobs) }

// Submit enqueues an access request with its tag. It never blocks: a full
// queue returns ErrQueueFull and a closed queue ErrQueueClosed. On success
// the tag reaches answer exactly once.
func (q *IngestQueue[T]) Submit(m *AccessRequest, tag T) error {
	job := ingestJob[T]{m: m, tag: tag, queued: q.router.cfg.Clock.Now()}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	select {
	case q.jobs <- job:
		return nil
	default:
		return ErrQueueFull
	}
}

// Close stops the drainers after the already-accepted requests have been
// answered; a queue never started answers them on Close's caller. It is
// idempotent and safe to call concurrently with Submit.
func (q *IngestQueue[T]) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.jobs)
	}
	q.mu.Unlock()
	q.drainers.Wait()
	for q.Step() {
	}
}

// Step serves one group of the waiting requests on the caller's goroutine,
// as a drainer does, and reports whether any request was waiting. It is how
// a test drives a queue it has not started.
func (q *IngestQueue[T]) Step() bool {
	select {
	case job, open := <-q.jobs:
		if open {
			q.serve(job)
		}
		return open
	default:
		return false
	}
}

// drain is one pipeline: it serves group after group until the queue
// closes and empties.
func (q *IngestQueue[T]) drain() {
	defer q.drainers.Done()
	for job := range q.jobs {
		q.serve(job)
	}
}

// serve completes the group first opens with up to a lane pass of the
// waiting requests, runs it through the router and answers it.
func (q *IngestQueue[T]) serve(first ingestJob[T]) {
	share := min(bn256.Lanes, 1+len(q.jobs))
	group := append(make([]ingestJob[T], 0, share), first)
fill:
	for len(group) < share {
		select {
		case extra, open := <-q.jobs:
			if !open {
				break fill
			}
			group = append(group, extra)
		default:
			break fill
		}
	}

	r := q.router
	now := r.cfg.Clock.Now()
	ms := make([]*AccessRequest, len(group))
	tags := make([]T, len(group))
	for i, j := range group {
		r.stages.ingestWait.Observe(now.Sub(j.queued))
		ms[i], tags[i] = j.m, j.tag
	}
	out := make([]AccessResult, len(group))
	r.handleGroup(ms, out)
	q.answer(tags, out)
}
